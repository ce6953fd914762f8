"""Child process that runs the `operators` or `states` workload.

    python3 bench/worker.py --workload states --seed 1 --seconds 30 \
        --trace 0 --result out.json [--trace-file spans.json] [--setup-only]

It imports `phasequant.cli` (and with it every module), builds the seeded
inputs and prints `ready <version>` so the parent can time set-up.  With
--setup-only it stops there.  Otherwise it runs whole rounds of the same
operations while another round still fits in --seconds (at least two
rounds), checks every output outside the timed span and writes a JSON
report to --result.  With
--trace 1 it alternates untraced and traced rounds, and the traced ones
record spans through `tracer.Tracer`.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import workloads

MIN_ROUNDS = 2


@dataclass
class Op:
    """One timed operation; `check` returns problems for a finished result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    expect_fail: bool = False
    # checks whose failure means the operation broke its own contract
    # (counted as failed, not as a wrong result)
    contract: Callable[[Any], list] | None = None


# checks (and mpmath) are imported only once set-up is over, so that
# setup_s measures phasequant's import and the inputs alone
def operators_ops(inp: dict) -> list[Op]:
    import checks
    from phasequant import fockreal, phaseops, repalg

    ops = []
    dim = inp["spectrum_dim"]
    for k in inp["spectrum_labels"]:
        def spectrum(k=k):
            pair = phaseops.build_phase_ops(repalg.RepLabel(k=k), dim)
            eigs = phaseops.phase_spectrum(pair)
            return eigs, phaseops.spectrum_verdict(eigs)
        ops.append(Op(f"phase_spectrum_k{k}", spectrum,
                      lambda r, k=k: checks.spectrum(k, dim, *r)))
    k_id, k_hp, d = inp["identity_k"], inp["hp_k"], inp["identity_dim"]
    ops.append(Op("diagonal_identities",
                  lambda: phaseops.diagonal_identities(repalg.RepLabel(k=k_id), d),
                  lambda r: checks.diagonal_identities(k_id, d, r)))
    ops.append(Op("hp_phase_ops", lambda: fockreal.hp_phase_ops(k_hp, d),
                  lambda r: checks.hp_phase_ops(k_hp, d, r)))
    d2 = inp["two_mode_dim"]
    ops.append(Op("two_mode", lambda: fockreal.two_mode(d2), lambda r: checks.two_mode(d2, r)))
    k_r, omega, d3 = inp["repr_k"], cmath.exp(1j * inp["repr_omega_phase"]), inp["repr_dim"]

    def serialize():
        op = repalg.build_k1(repalg.RepLabel(k=k_r, omega=omega), d3)
        return repalg.csv_lines(op), repalg.json_envelope(op)
    ops.append(Op("repr_k1", serialize, lambda r: checks.repr_k1(k_r, omega, d3, r)))
    return ops


def _analyse_state(k: float, z1: complex, z2: complex) -> dict:
    from phasequant import bgstates

    s = bgstates.make_bg_state(k, z1)
    m3 = bgstates.k3_moments(s)
    m12 = bgstates.k12_moments(s)
    ph = bgstates.phase_expectations(s)
    residual = bgstates.eigenvector_residual(s)
    ov = bgstates.overlap(s, bgstates.make_bg_state(k, z2))
    return {"dim": s.dim, "k3_mean": m3.mean, "mean_k1": m12.mean_k1, "var_k1": m12.var_k1,
            "cos_mean": ph.cos_mean, "sin_mean": ph.sin_mean, "residual": residual,
            "overlap": ov}


def states_ops(inp: dict) -> list[Op]:
    import numpy as np

    import checks
    from phasequant import bgstates, fockreal, nfm

    ops = []
    for i, (k, rho, phi, rho2, phi2) in enumerate(inp["states"]):
        z1, z2 = cmath.rect(rho, phi), cmath.rect(rho2, phi2)
        ops.append(Op(f"state_{i}", lambda k=k, z1=z1, z2=z2: _analyse_state(k, z1, z2),
                      lambda r, a=(k, rho, phi, rho2, phi2): checks.state(*a, r),
                      contract=lambda r, k=k, rho=rho: checks.state_tail(k, rho, r["dim"])))
    for k, rho in inp["known_failure_states"]:
        z2 = rho * 1.01
        ops.append(Op(f"known_failure_state_k{k}_rho{rho}",
                      lambda k=k, rho=rho, z2=z2: _analyse_state(k, rho, z2),
                      lambda r, a=(k, rho, 0.0, rho * 1.01, 0.0): checks.state(*a, r),
                      expect_fail=True,
                      contract=lambda r, k=k, rho=rho: checks.state_tail(k, rho, r["dim"])))
    k, za, zb = inp["known_failure_overlap"]
    ops.append(Op("known_failure_overlap",
                  lambda: bgstates.overlap(bgstates.make_bg_state(k, za),
                                           bgstates.make_bg_state(k, zb)),
                  lambda r: checks.close("|overlap|", abs(r), checks.overlap_abs(k, za, zb), 1e-9),
                  expect_fail=True))
    for k, rho in inp["g_k"]:
        ops.append(Op("g_k", lambda k=k, rho=rho: bgstates.g_k(k, rho),
                      lambda r, k=k, rho=rho: checks.g_k(k, rho, r)))
    ops.append(Op("kbound_scan", lambda: bgstates.kbound_scan(), checks.kbound_scan))
    k_c, ns = inp["completeness"]
    for n in ns:
        ops.append(Op(f"completeness_n{n}", lambda n=n: bgstates.completeness_check(k_c, n),
                      lambda r, n=n: checks.completeness(k_c, n, r)))
    for k, r, beta in inp["alpha"]:
        ops.append(Op("alpha_expectations",
                      lambda k=k, a=cmath.rect(r, beta): fockreal.alpha_expectations(k, a),
                      lambda res, a=(k, r, beta): checks.alpha(*a, res)))
    k_h, r_max, points = inp["h2"]
    r_grid = np.linspace(0.0, r_max, points)
    ops.append(Op("h2_curve", lambda: fockreal.h2_curve(k_h, r_grid),
                  lambda r: checks.h2_curve(k_h, r_grid, r)))
    count, seed = inp["trial_count"], inp["trial_seed"]
    for kind, k, x, phi, noise in inp["trials"]:
        if kind == "bg":
            spec = nfm.BGStateSpec(k=k, z=cmath.rect(x, phi))
            check = (lambda r, x=x, phi=phi, noise=noise: checks.trials_bg(x, phi, noise, r))
        else:
            spec = nfm.NumberStateSpec(k=k, n=x)

            def check(r, spec=spec, noise=noise):
                rec = nfm.simulate_and_reconstruct(spec).reconstruction
                return checks.trials_number(spec.k, spec.n, noise, r, rec)
        ops.append(Op(f"run_trials_{kind}_noise{noise}",
                      lambda spec=spec, noise=noise: nfm.run_trials(spec, noise, count, seed),
                      check))
    return ops


BUILDERS = {"operators": operators_ops, "states": states_ops}


def run_round(ops: list[Op], tracer=None) -> dict:
    rows, problems, failures = [], [], {}
    for op in ops:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter_ns()
        try:
            result = tracer.root(f"bench.{op.name}", op.run) if tracer else op.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.uninstall()
        if error is None and op.contract is not None:
            broken = op.contract(result)
            error = "; ".join(broken) if broken else None
        if error is not None:
            status = "failed"
            failures.setdefault(op.name, error)
            if not op.expect_fail:
                problems.append(f"{op.name} failed: {error}")
        else:
            wrong = op.check(result)
            status = "wrong" if wrong else "ok"
            problems += wrong
        del result
        rows.append((op.name, elapsed / 1e6, status))
    return {"traced": tracer is not None, "wall_s": sum(r[1] for r in rows) / 1e3,
            "ops": rows, "problems": problems, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import phasequant
    import phasequant.cli  # noqa: F401 - the import every user pays
    import_s = time.perf_counter() - start
    inputs = workloads.GENERATORS[args.workload](args.seed)
    print("ready", phasequant.__version__, flush=True)
    if args.setup_only:
        return 0

    ops = BUILDERS[args.workload](inputs)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(ops, tracer if traced else None))
        paired = tracer is None or len(rounds) % 2 == 0
        # stop once another round would end past the deadline
        spent = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and paired and time.perf_counter() + spent > deadline:
            break
    report = {"version": phasequant.__version__, "import_s": import_s, "rounds": rounds,
              "trace": tracer.aggregates() if tracer else None}
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    if tracer is not None and args.trace_file:
        tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed})
    return 0


if __name__ == "__main__":
    sys.exit(main())
