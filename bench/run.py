"""phasequant benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {operators,states,cli} --seed N --seconds S --trace {0,1}

Without --workload all three run in turn.  Every workload runs in fresh
child processes, one at a time, with the numeric thread pools capped at one
thread.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones (setup_s, wall_s, op_p50_ms, peak_rss_mb), with
--trace 1 the per-layer ones from a traced run.  Full reports and spans go
to .bench_out/ at the repository root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import MIN_ROUNDS  # noqa: E402

SETUP_RUNS = 5  # setup_s is the median of this many fresh interpreters
RUN_LIMIT_S = 170.0  # every child is killed once the run passes this


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Runner:
    """Spawns children one at a time and reads each one's own rusage."""

    def __init__(self) -> None:
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, argv: list[str], cwd: Path, wait_ready: bool = False) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run exceeded its time limit")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE if wait_ready else subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        ready_s, line = None, ""
        try:
            if wait_ready:
                line = proc.stdout.readline().decode()
                ready_s = time.perf_counter() - start
                proc.stdout.read()
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wait_ready and not line.startswith("ready "):
            raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode} before set-up finished")
        return {"code": proc.returncode, "elapsed_s": elapsed, "ready_s": ready_s,
                "maxrss_kb": usage.ru_maxrss, "line": line.split()}

    def setup(self, workload: str, seed: int, count: int) -> tuple[list[float], str]:
        """Time `count` fresh set-ups; also returns the package version they report."""
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only"]
        runs = [self.spawn(argv, ROOT, wait_ready=True) for _ in range(count)]
        bad = [r["code"] for r in runs if r["code"] != 0]
        if bad:
            raise BenchError(f"set-up child exited {bad[0]}")
        return [r["ready_s"] for r in runs], runs[0]["line"][1]


# ---------------------------------------------------------------------------
# workloads


def run_worker(runner: Runner, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The operators and states workloads: one worker child runs every round."""
    result = OUT / f"rounds-{workload}-seed{seed}-trace{trace}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--result", str(result), "--trace-file", str(OUT / f"trace-{workload}-seed{seed}.json")]
    child = runner.spawn(argv, ROOT, wait_ready=True)
    if child["code"] != 0:
        raise BenchError(f"{workload} worker exited {child['code']}")
    report = json.loads(result.read_text())
    report["peak_rss_kb"] = child["maxrss_kb"]
    report["children"] = 0
    report["output_bytes"] = 0.0
    if trace:
        report["layers"] = report.pop("trace")
    return report


def _outputs(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--summary")]


def run_cli(runner: Runner, seed: int, seconds: int, trace: int, version: str) -> dict:
    """The README command list, one child per invocation, each round in a fresh directory."""
    commands, config = workloads.cli_commands(seed)
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    rounds, first, traces, traced_bytes = [], None, [], 0
    peak = 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        traced = bool(trace) and len(rounds) % 2 == 1
        work = Path(tempfile.mkdtemp(dir=scratch))
        try:
            (work / "cfg.json").write_text(json.dumps(config))
            rows, problems, failures = [], [], {}
            for i, argv in enumerate(commands):
                if traced:
                    spans = work.parent / f"{work.name}-{i}.trace.json"
                    child_argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans), *argv]
                else:
                    child_argv = [sys.executable, "-m", "phasequant.cli", *argv]
                child = runner.spawn(child_argv, work)
                peak = max(peak, child["maxrss_kb"])
                want = 1 if argv[0] == "verify-all" else 0  # verify-all fails its documented check
                status = "ok"
                if child["code"] != want:
                    status = "failed"
                    failures[argv[0]] = f"exit code {child['code']}"
                    problems.append(f"{argv[0]} exited {child['code']}")
                rows.append((argv[0], child["elapsed_s"] * 1e3, status))
                if traced:
                    data = json.loads(spans.read_text())
                    spans.unlink()
                    traces.append(data)
            files = {}
            for argv in commands:
                for name in _outputs(argv):
                    path = work / name
                    if not path.exists():
                        problems.append(f"{argv[0]}: no output {name}")
                        continue
                    files[name] = path.read_text()
                    problems += checks.cli_output(name, files[name], argv, version)
            if len(files) == sum(len(_outputs(a)) for a in commands):
                problems += checks.cli_contents(files)
            if first is None:
                first = files
            elif files != first:
                changed = sorted(n for n in files if files[n] != first.get(n))
                problems.append(f"repeat with the same flags and seed changed {changed}")
            if traced:
                traced_bytes += sum(len(text.encode()) for text in files.values())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        wall = sum(r[1] for r in rows) / 1e3
        rounds.append({"traced": traced, "wall_s": wall, "ops": rows,
                       "problems": problems, "failures": failures})
        paired = not trace or len(rounds) % 2 == 0
        # stop once another round would end past the deadline
        spent = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and paired and time.perf_counter() + spent > deadline:
            break
    report = {"version": version, "rounds": rounds, "peak_rss_kb": peak,
              "children": len(commands)}
    if trace:
        (OUT / f"trace-cli-seed{seed}.json").write_text(
            json.dumps({"workload": "cli", "seed": seed, "children": traces}))
        report["layers"] = tracer.merge([t["aggregates"] for t in traces])
        report["import_s"] = statistics.median(t["import_s"] for t in traces)
        report["output_bytes"] = traced_bytes / sum(r["traced"] for r in rounds)
    return report


# ---------------------------------------------------------------------------
# metrics


def summarize(workload: str, report: dict, setups: list[float], trace: int) -> tuple[dict, dict]:
    """The full run report and the result line."""
    rounds = report["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems = sorted({p for r in rounds for p in r["problems"]})
    failures = {}
    for r in rounds:
        failures.update(r["failures"])
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for row in r["ops"] if row[2] == "failed")
    latencies = [row[1] for r in plain for row in r["ops"]]
    if trace:
        values = tracer.layer_values(report["layers"], len(traced))
        values["cli.import_s"] = report["import_s"]
        values["cli.output_bytes"] = report["output_bytes"]
        values["cli.children"] = report["children"]
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    full = {
        "workload": workload,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "op_samples": len(latencies),
        "setup_samples": setups,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return full, result


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    runner = Runner()
    # a traced run reports no setup_s, so one set-up (for the version) is enough
    setups, version = runner.setup(workload, seed, 1 if trace else SETUP_RUNS)
    if workload == "cli":
        report = run_cli(runner, seed, seconds, trace, version)
    else:
        report = run_worker(runner, workload, seed, seconds, trace)
    full, result = summarize(workload, report, setups, trace)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(full, indent=2) + "\n")
    print(f"{workload}: {full['rounds']} rounds ({full['traced_rounds']} traced), "
          f"{full['op_samples']} untraced op samples, {result['attempted']} attempted, "
          f"{result['failed']} failed {sorted(full['failures'])}")
    for p in full["problems"]:
        print(f"  PROBLEM {p}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS),
                        help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "phasequant" / "cli.py").is_file():
        print(f"bench: no phasequant sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else ["operators", "states", "cli"]
    try:
        results = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
