"""Command-line driver exposing the package analyses as subcommands.

Every subcommand validates its flags before computing (each flag type is
``errors.check_domain`` for one domain), computes fully before touching the
filesystem, and writes through a temp file plus atomic rename so a failure
never leaves a partial output.  Outputs carry a header line

    # phasequant v<version>, <subcommand>, <flags>

(as a CSV comment, or under the "_meta" key in JSON), and identical flags
plus seed produce byte-identical files.  Exit codes: 0 success, 1 validation
failure, 2 usage error.  PHASEQUANT_THREADS caps the numeric backends'
thread pools.

Library modules return data, not text, and so do the subcommand handlers:
each returns its exit code, stdout text, CSV rows and JSON payload, and
``main`` alone prints and writes them.  ``--out`` gets the rows as CSV, or
the payload under ``--format json`` or where a subcommand has no rows
(``verify-all``); ``--summary`` gets the payload.  Values are rendered by
one rule: a float, numpy's included, is the repr of its double, which
round-trips; integers and labels are their text; NaN is JSON null.  This
module applies it, and so do the operator serializers in ``repalg``:
``csv_lines`` writes the repr of each double, and ``json_envelope`` returns
Python floats, which ``json`` writes by the same repr.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

# errors loads no numpy, so the thread cap below still comes before numpy
from .errors import DomainError, check_domain


def _apply_thread_cap() -> bool:
    """Cap the numeric thread pools at PHASEQUANT_THREADS; False if it is invalid."""
    raw = os.environ.get("PHASEQUANT_THREADS")
    if raw is None:
        return True
    try:
        cap = check_domain("PHASEQUANT_THREADS", int(raw), "positive integer")
    except ValueError:
        return False
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, str(cap))
    return True


# the thread pools are sized when numpy loads; main() reports a bad value
_apply_thread_cap()

import numpy as np  # noqa: E402

# every subcommand needs these; each handler imports the rest itself, so a
# child process loads only the modules its subcommand runs
from . import MODULE_ORDER, __version__, repalg  # noqa: E402
from .repalg import RepLabel  # noqa: E402

_OMEGA = {"plus_one": 1.0, "imaginary_unit": 1j}
_BUILDERS = {
    "k3": repalg.build_k3,
    "kplus": repalg.build_kplus,
    "kminus": repalg.build_kminus,
    "k1": repalg.build_k1,
    "k2": repalg.build_k2,
}


def _flag_type(domain: str):
    """An argparse type: read the text as a number, then apply check_domain."""
    read = int if domain.endswith("integer") else float

    def parse(text: str):
        value = read(text)
        try:
            return check_domain("flag", value, domain)
        except DomainError:
            raise argparse.ArgumentTypeError(f"expected a {domain}, got {text!r}") from None
    # argparse names the type in "invalid <name> value: ..." messages
    parse.__name__ = domain
    return parse


class _DomainHelpFormatter(argparse.HelpFormatter):
    """Ends each typed flag's help with its domain, read from the type's name.

    ``_flag_type`` names each type after the domain it checks, so the help
    text cannot drift from the check.
    """

    def add_argument(self, action):
        if action.type is not None:
            import copy  # deferred: only --help formats

            domain = f"a {action.type.__name__}"
            action = copy.copy(action)
            action.help = f"{action.help}; {domain}" if action.help else domain
        super().add_argument(action)


_positive_float = _flag_type("positive real")
_nonneg_float = _flag_type("nonnegative real")
_finite_float = _flag_type("finite real")
_positive_int = _flag_type("positive integer")
_nonneg_int = _flag_type("nonnegative integer")


def _flags_text(args: argparse.Namespace) -> str:
    # destination paths stay out so identical computations give identical bytes
    parts = []
    for key in sorted(vars(args)):
        if key in ("func", "subcommand", "out", "summary"):
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            parts.append(f"{key}={','.join(repr(v) for v in value)}")
        else:
            parts.append(f"{key}={_cell(value)}")
    return " ".join(parts)


def _meta(args: argparse.Namespace) -> str:
    return f"phasequant v{__version__}, {args.subcommand}, {_flags_text(args)}"


def _write_atomic(outputs) -> None:
    # every (path, text) of a run, all or none: all temp files are written
    # before any is renamed, and a failure removes the temp files and the
    # outputs already renamed into place (a file one of them replaced is not
    # restored).  Mode "x" creates 0666 & ~umask, as a plain open() does, and
    # refuses to reuse a name that already exists
    temps, placed = [], []
    try:
        for path, text in outputs:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".phasequant-{os.urandom(6).hex()}")
            with open(tmp, "x") as handle:
                temps.append((tmp, path))
                handle.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for name in [tmp for tmp, _ in temps if os.path.exists(tmp)] + placed:
            os.unlink(name)
        raise


def _cell(value) -> str:
    # the one number format: a float (numpy's included) as the repr of its
    # double, which round-trips; integers and labels as their text
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _csv_rows(fields, records):
    """Header plus one line per record, each its values in field order, made lazily."""
    yield ",".join(fields)
    for record in records:
        yield ",".join(map(_cell, record))


def _dict_rows(records: list[dict]):
    """_csv_rows of dicts that share their keys, the keys giving the header."""
    return _csv_rows(records[0], (record.values() for record in records))


def _numpy_value(value):
    # json.dumps default for numpy values; a numpy float64 is a float already
    if isinstance(value, np.ndarray):
        return value.tolist()
    return float(value) if isinstance(value, np.floating) else value.item()


def _jsonable(value):
    # plain JSON values: numpy scalars and arrays become Python ones, and NaN
    # becomes null rather than the nonstandard NaN token
    return json.loads(json.dumps(value, default=_numpy_value),
                      parse_constant=lambda token: None if token == "NaN" else float(token))


def _csv_text(args: argparse.Namespace, rows) -> str:
    return "\n".join([f"# {_meta(args)}", *rows]) + "\n"


def _json_text(args: argparse.Namespace, payload: dict) -> str:
    document = {"_meta": _meta(args), **payload}
    try:
        # plain values, such as an operator's 65 536 cells, are not walked again
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False,
                          default=_numpy_value)
    except ValueError:
        # a NaN or an infinity: _jsonable writes NaN as null
        text = json.dumps(_jsonable(document), sort_keys=True, indent=2)
    return text + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each computes and returns (exit_code, stdout text, CSV
# rows or None, JSON payload), and main() alone prints and writes them


def _cmd_repr(args):
    label = RepLabel(k=args.k, omega=_OMEGA[args.omega])
    op = _BUILDERS[args.name](label, args.dim)
    # a 256-state operator is 65 536 cells: serialize only the format written
    written = None if args.out is None else args.format
    rows = repalg.csv_lines(op) if written == "csv" else []
    payload = repalg.json_envelope(op) if written == "json" else {}
    return 0, (
        f"{args.name} k={args.k!r} dim={args.dim} bandwidth={op.bandwidth}"
        + (f" -> {args.out}" if args.out else "")
    ), rows, payload


def _cmd_phase_spectrum(args):
    from . import phaseops

    pair = phaseops.build_phase_ops(RepLabel(k=args.k), args.dim)
    eigs = phaseops.phase_spectrum(pair)
    top = float(np.max(np.abs(eigs)))
    verdict = phaseops.spectrum_verdict(eigs)
    rows = _csv_rows(("index", "eigenvalue"), enumerate(eigs))
    payload = {"k": args.k, "dim": args.dim, "max_abs": top, "verdict": verdict,
               "eigenvalues": eigs}
    return 0, f"max|lambda| = {top!r}, verdict {verdict}", rows, payload


def _cmd_ground_variance(args):
    from . import phaseops

    entries = []
    for k in args.k:
        analytic = phaseops.ground_state_variance(k)
        pair = phaseops.build_phase_ops(RepLabel(k=k), args.dim)
        cos = pair.cos.diagonals
        matrix = float(repalg.banded_matmul(cos, cos, args.dim)[0][0].real)
        entries.append({"k": k, "analytic": analytic, "matrix_diag0": matrix,
                        "abs_gap": abs(matrix - analytic)})
    bound = phaseops.k1_bound()
    first = entries[0]
    return 0, (
        f"gsv({first['k']!r}) = {first['analytic']!r} "
        f"(matrix gap {first['abs_gap']:.2e}); k1 bound {bound!r}"
    ), _dict_rows(entries), {"rows": entries, "k1_bound": bound}


def _cmd_kbound_scan(args):
    from . import bgstates

    k_grid = rho_grid = None
    if args.k_min is not None or args.k_max is not None or args.k_step is not None:
        if None in (args.k_min, args.k_max, args.k_step):
            raise DomainError("give all of --k-min/--k-max/--k-step or none")
        if args.k_max < args.k_min:
            raise DomainError("--k-max must be >= --k-min")
        k_grid = np.arange(args.k_min, args.k_max + 0.5 * args.k_step, args.k_step)
    if args.rho_min is not None or args.rho_max is not None or args.rho_points is not None:
        if None in (args.rho_min, args.rho_max, args.rho_points):
            raise DomainError("give all of --rho-min/--rho-max/--rho-points or none")
        if not 0.0 < args.rho_min < args.rho_max:
            raise DomainError("need 0 < --rho-min < --rho-max")
        rho_grid = np.geomspace(args.rho_min, args.rho_max, args.rho_points)
    scan = bgstates.kbound_scan(k_grid, rho_grid)
    summary = bgstates.scan_json_summary(scan)

    def rows():
        # read only if the grid is written; every column is a double, so each
        # value is formatted once, as _cell would, by the repr of a Python float
        yield "k,rho,ratio,verdict"
        rhos = list(map(repr, scan.rho_values.tolist()))
        for k, verdict, row in zip(map(repr, scan.k_values.tolist()), scan.verdicts,
                                   scan.ratio.tolist()):
            for rho, ratio in zip(rhos, map(repr, row)):
                yield f"{k},{rho},{ratio},{verdict}"

    verdicts = [row["verdict"] for row in summary["rows"]]
    return 0, (
        f"{verdicts.count('BOUNDED')} BOUNDED, {verdicts.count('EXCEEDS')} EXCEEDS "
        f"over {len(verdicts)} k values; flip bracket {summary['flip_bracket']}"
    ), rows(), summary


def _cmd_coherent(args):
    from . import bgstates

    z = args.rho * cmath.exp(1j * args.phi)
    state = bgstates.make_bg_state(args.k, z)
    m3 = bgstates.k3_moments(state)
    m12 = bgstates.k12_moments(state)
    ph = bgstates.phase_expectations(state)
    payload = {
        "k": args.k,
        "rho": args.rho,
        "phi": args.phi,
        "dim": state.dim,
        "k3_mean": m3.mean,
        "k3_second": m3.second,
        "k3_variance": m3.variance,
        "b_k": m3.b_k,
        "mean_k1": m12.mean_k1,
        "mean_k2": m12.mean_k2,
        "var_k1": m12.var_k1,
        "var_k2": m12.var_k2,
        "cos_mean": ph.cos_mean,
        "sin_mean": ph.sin_mean,
        "tan_ratio": ph.tan_ratio,
        "eigenvector_residual": bgstates.eigenvector_residual(state),
    }
    return 0, (
        f"dim={state.dim} <K3>={m3.mean!r} <cos>={ph.cos_mean!r} <sin>={ph.sin_mean!r}"
    ), _csv_rows(("field", "value"), payload.items()), payload


def _cmd_completeness(args):
    from . import bgstates, specfun

    moment = bgstates.moment_integral(args.k, args.n, args.rho_max)
    # completeness_check's own weight, so the value is bit-identical to it
    value = bgstates._completeness_weight(args.k, args.n, moment)
    log_norm = specfun.ln_gamma(args.n + 1.0) + specfun.ln_gamma(2.0 * args.k + args.n)
    expected = math.exp(log_norm) / 4.0
    rel = abs(moment - expected) / expected
    payload = {
        "k": args.k, "n": args.n, "completeness": value,
        "moment": moment, "moment_expected": expected, "moment_rel_gap": rel,
    }
    return 0, (
        f"completeness = {value!r} (1 - value = {1.0 - value:.2e}), moment rel gap {rel:.2e}"
    ), _dict_rows([payload]), payload


def _cmd_oscillator(args):
    from . import fockreal

    r = np.linspace(0.0, args.r_max, args.points)
    h2 = fockreal.h2_curve(args.k, r)
    top = float(np.max(h2))
    end = float(h2[-1])
    rows = _csv_rows(("r", "h2"), zip(r, h2))
    payload = {"k": args.k, "r": r, "h2": h2, "max_h2": top, "h2_end": end}
    return 0, f"max h2 = {top!r}, h2({float(r[-1])!r}) = {end!r}", rows, payload


def _cmd_two_mode(args):
    from . import fockreal

    ops = fockreal.two_mode(args.dim_per_mode)
    sectors = [
        {"n1": e.n1, "n2": e.n2, "sector": e.sector,
         "irrep_k": e.irrep_k, "irrep_n": e.irrep_n}
        for e in ops.sector_table
    ]
    payload = {"dim_per_mode": ops.dim_per_mode, "sectors": sectors}
    d = ops.dim_per_mode
    return 0, f"{d * d} basis states, sectors -{d - 1}..{d - 1}", _dict_rows(sectors), payload


def _cmd_nfm_sim(args):
    from . import nfm

    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            spec, noise, trials, seed = nfm.parse_run_config(json.load(handle))
    else:
        state: dict = {"kind": args.kind, "k": args.k}
        if args.kind == "number":
            if args.n is None:
                raise DomainError("--kind number requires --n")
            state["n"] = args.n
        else:
            if args.rho is None:
                raise DomainError("--kind bg requires --rho")
            state["rho"] = args.rho
            state["phi"] = args.phi
        spec = nfm.parse_state_spec(state)
        noise, trials, seed = args.noise, args.trials, args.seed
    summary = nfm.run_trials(spec, noise=noise, trials=trials, seed=seed)
    records = ((r.trial, r.recovered_rho, r.recovered_phi, r.err_k1, r.err_k2)
               for r in summary.rows)
    return 0, (
        f"trials={summary.trials} noise={summary.noise!r} rho_mean={summary.rho_mean!r} "
        f"flat={summary.flat_count}"
    ), _csv_rows(("trial", "recovered_rho", "recovered_phi", "err_k1", "err_k2"),
                 records), nfm.trials_json_summary(summary)


def _cmd_verify_all(args):
    from dataclasses import asdict

    from . import verify

    results = verify.run_all(args.module if args.module else None)
    by_module: dict[str, list] = {}
    for item in results:
        by_module.setdefault(item.module, []).append(item)
    lines = []
    for module, items in by_module.items():
        failures = [item for item in items if not item.passed]
        status = "PASS" if not failures else "FAIL"
        lines.append(f"{module}: {status} ({len(items) - len(failures)}/{len(items)} checks)")
        lines.extend(f"  FAIL {item.name}: {item.detail}" for item in failures)
    failed = sum(not item.passed for item in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    checks = [asdict(item) for item in results]
    return (0 if failed == 0 else 1), "\n".join(lines), None, {"checks": checks}


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output file format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasequant",
        description="Operator toolkit for phase/modulus pairs on the positive discrete series.",
    )
    parser.add_argument("--version", action="version", version=f"phasequant {__version__}")
    subs = parser.add_subparsers(
        dest="subcommand", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       formatter_class=_DomainHelpFormatter))

    p = subs.add_parser("repr", help="emit a truncated generator matrix")
    p.add_argument("--k", type=_positive_float, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--name", choices=sorted(_BUILDERS), default="k3")
    p.add_argument("--omega", choices=sorted(_OMEGA), default="plus_one")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_repr)

    p = subs.add_parser("phase-spectrum", help="eigenvalues of the cos operator")
    p.add_argument("--k", type=_positive_float, required=True)
    p.add_argument("--dim", type=_positive_int, default=2000)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_phase_spectrum)

    p = subs.add_parser("ground-variance", help="ground-state phase variance")
    p.add_argument("--k", type=_positive_float, action="append", required=True,
                   help="representation label; repeatable")
    p.add_argument("--dim", type=_positive_int, default=16,
                   help="dimension for the matrix cross-check (default 16)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_ground_variance)

    p = subs.add_parser("kbound-scan", help="coherent-state ratio scan over (k, rho)")
    p.add_argument("--k-min", type=_positive_float)
    p.add_argument("--k-max", type=_positive_float)
    p.add_argument("--k-step", type=_positive_float)
    p.add_argument("--rho-min", type=_positive_float)
    p.add_argument("--rho-max", type=_positive_float)
    p.add_argument("--rho-points", type=_positive_int)
    p.add_argument("--out", help="CSV grid output path")
    p.add_argument("--summary", help="JSON verdict summary path")
    p.set_defaults(func=_cmd_kbound_scan)

    p = subs.add_parser("coherent", help="coherent-state moments and phase expectations")
    p.add_argument("--k", type=_positive_float, required=True)
    p.add_argument("--rho", type=_nonneg_float, required=True)
    p.add_argument("--phi", type=_finite_float, default=0.0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_coherent)

    p = subs.add_parser("completeness", help="resolution-of-identity quadrature")
    p.add_argument("--k", type=_positive_float, required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--rho-max", type=_positive_float, default=60.0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_completeness)

    p = subs.add_parser("oscillator", help="single-mode h2 profile over r")
    p.add_argument("--k", type=_positive_float, required=True)
    p.add_argument("--r-max", type=_positive_float, default=20.0)
    p.add_argument("--points", type=_positive_int, default=200)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_oscillator)

    p = subs.add_parser("two-mode", help="two-mode sector decomposition table")
    p.add_argument("--dim-per-mode", type=_positive_int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_two_mode)

    p = subs.add_parser("nfm-sim", help="interference simulation and reconstruction")
    p.add_argument("--config", help="JSON run config {state, noise, trials, seed}")
    p.add_argument("--kind", choices=("bg", "number"), default="bg")
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--n", type=_nonneg_int)
    p.add_argument("--rho", type=_nonneg_float)
    p.add_argument("--phi", type=_finite_float, default=0.0)
    p.add_argument("--noise", type=_nonneg_float, default=0.0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", help="per-trial CSV path")
    p.add_argument("--summary", help="JSON summary path")
    p.set_defaults(func=_cmd_nfm_sim)

    p = subs.add_parser("verify-all", help="run the per-module invariant battery")
    p.add_argument("--module", action="append", choices=MODULE_ORDER,
                   help="restrict to a module; repeatable")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    if not _apply_thread_cap():
        print("usage error: PHASEQUANT_THREADS must be a positive integer", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    out, summary = args.out, getattr(args, "summary", None)
    for flag, path in (("--out", out), ("--summary", summary)):
        if path == "":  # abspath("") is the working directory: no file to name
            print(f"error: {flag} names no file", file=sys.stderr)
            return 1
        if path is not None and os.path.isdir(path):  # the rename would fail last
            print(f"error: {flag} names a directory: {path}", file=sys.stderr)
            return 1
    if None not in (out, summary) and os.path.realpath(out) == os.path.realpath(summary):
        print(f"error: --out and --summary name one file: {summary}", file=sys.stderr)
        return 1
    try:
        code, text, rows, payload = args.func(args)
        # the one output rule: --out gets the rows as CSV, or the payload under
        # --format json or where a subcommand has no rows; --summary the payload
        as_json = rows is None or getattr(args, "format", "csv") == "json"
        outputs = [] if out is None else [
            (out, _json_text(args, payload) if as_json else _csv_text(args, rows))]
        if summary is not None:
            outputs.append((summary, _json_text(args, payload)))
        _write_atomic(outputs)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # MemoryError: numpy refuses an array larger than it can allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
