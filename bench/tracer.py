"""Span tracer that wraps phasequant's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules at
every place it is bound: the defining module, each module that imported it
by name (for example `bgstates.build_phase_ops` or `nfm.make_bg_state`), and
dict-valued function tables such as `cli._BUILDERS`.  A wrapper records one
span per call (key, start, end, parent) and adds its duration to the parent's
child time, so self time is duration minus child time.  Spans stay in memory
until `dump()` writes them.

Counters that need the returned object (computed bytes of dense operators,
coherent-state dims, distinct nfm specs) are taken after the span has ended;
the time they take is charged to no span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "repalg", "phaseops", "bgstates", "fockreal", "nfm", "verify", "cli")
PACKAGE_MODULES = LAYERS + ("errors",)


def _dense_arrays(value):
    """Dense 2-d arrays held by an operator or a dataclass of operators."""
    # phasequant is imported lazily: the benchmark's parent imports this
    # module and must fail cleanly when the sources are missing
    from phasequant.fockreal import FockOperator
    from phasequant.repalg import TruncatedOperator

    if isinstance(value, (TruncatedOperator, FockOperator)):
        yield value.entries
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if isinstance(item, (TruncatedOperator, FockOperator)):
                yield item.entries
            elif getattr(item, "ndim", 0) == 2:
                yield item


class Tracer:
    """Collects spans and per-key aggregates for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.max_dim = 0
        self._specs: set = set()
        self._stack: list[list] = []
        self._bindings: list[tuple] = []  # (namespace, name, original, wrapper)

    # -- recording -------------------------------------------------------

    def span(self, key: str, fn, args, kwargs):
        frame = [key, len(self.spans), 0]  # key, span index, child ns
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter_ns()
        error = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.spans[frame[1]] = (key, start, end, parent)
            self.calls[key] += 1
            self.self_ns[key] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if error is not None:
                self._count_error(key, error)
        bookkeeping = time.perf_counter_ns()
        self._count_result(key, args, kwargs, result)
        if self._stack:
            # keep counter work out of the caller's self time
            self._stack[-1][2] += time.perf_counter_ns() - bookkeeping
        return result

    def _count_error(self, key: str, exc: BaseException) -> None:
        from phasequant.errors import TruncationError

        if (key.startswith("bgstates.") and isinstance(exc, TruncationError)
                and not getattr(exc, "_bench_counted", False)):
            exc._bench_counted = True
            self.counters["bgstates.route_errors"] += 1

    def _count_result(self, key: str, args, kwargs, result) -> None:
        layer = key.split(".", 1)[0]
        if layer in ("repalg", "phaseops"):
            for arr in _dense_arrays(result):
                self.counters["repalg.dense_bytes"] += arr.nbytes
                self.counters["repalg.stored_entries"] += arr.size
                self.counters["repalg.nonzero_entries"] += int(np.count_nonzero(arr))
        elif layer == "fockreal":
            for arr in _dense_arrays(result):
                self.counters["fockreal.dense_bytes"] += arr.nbytes
        if key == "phaseops.build_phase_ops":
            dim = kwargs["dim"] if "dim" in kwargs else args[1]
            self.max_dim = max(self.max_dim, int(dim))
        elif key == "bgstates.make_bg_state":
            self.counters["bgstates.state_dim_sum"] += result.dim
        elif key == "nfm.state_truth":
            self._specs.add(kwargs.get("spec", args[0] if args else None))
        elif key == "verify.run_all":
            self.counters["verify.checks"] += len(result)

    def root(self, key: str, fn):
        """Run `fn` as a root span (one benchmark operation)."""
        return self.span(key, fn, (), {})

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap public functions of every layer wherever they are bound."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for namespace, name, _original, wrapper in self._bindings:
            namespace[name] = wrapper

    def uninstall(self) -> None:
        """Restore the original functions, so untraced rounds pay nothing."""
        for namespace, name, original, _wrapper in self._bindings:
            namespace[name] = original

    def _find_bindings(self) -> list[tuple]:
        modules = [importlib.import_module(f"phasequant.{name}") for name in PACKAGE_MODULES]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        bindings = []
        for mod in modules:
            namespaces = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
            for namespace in namespaces:
                for name, value in namespace.items():
                    if inspect.isfunction(value) and value in wrappers:
                        bindings.append((namespace, name, value, wrappers[value]))
        return bindings

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(key, fn, args, kwargs)
        return traced

    # -- reporting -------------------------------------------------------

    def aggregates(self) -> dict:
        """Plain-data totals that can be merged across processes."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
            "max_dim": self.max_dim,
            "state_truth_specs": len(self._specs),
        }

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write aggregates and every span as JSON."""
        payload = {"aggregates": self.aggregates(), "spans": self.spans}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def merge(aggregates: list[dict]) -> dict:
    """Sum aggregates from several processes (the cli workload's children)."""
    out = {"calls": defaultdict(int), "self_ns": defaultdict(int),
           "counters": defaultdict(float), "max_dim": 0, "state_truth_specs": 0}
    for agg in aggregates:
        for field in ("calls", "self_ns", "counters"):
            for key, value in agg[field].items():
                out[field][key] += value
        out["max_dim"] = max(out["max_dim"], agg["max_dim"])
        out["state_truth_specs"] += agg["state_truth_specs"]
    return out


# (metric name, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("specfun.calls", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("specfun.ln_gamma.calls", "count", "lower"),
    ("specfun.ln_gamma.self_s", "s", "lower"),
    ("specfun.bessel_k_scaled.self_s", "s", "lower"),
    ("repalg.calls", "count", "lower"),
    ("repalg.self_s", "s", "lower"),
    ("repalg.banded_matmul.self_s", "s", "lower"),
    ("repalg.dense_bytes", "B", "lower"),
    ("repalg.useful_entry_ratio", "ratio", "higher"),
    ("phaseops.self_s", "s", "lower"),
    ("phaseops.build_phase_ops.calls", "count", "lower"),
    ("phaseops.build_phase_ops.self_s", "s", "lower"),
    ("phaseops.build_phase_ops.max_dim", "count", "lower"),
    ("phaseops.phase_spectrum.self_s", "s", "lower"),
    ("phaseops.diagonal_identities.self_s", "s", "lower"),
    ("bgstates.self_s", "s", "lower"),
    ("bgstates.make_bg_state.calls", "count", "lower"),
    ("bgstates.make_bg_state.self_s", "s", "lower"),
    ("bgstates.state_dim_sum", "count", "lower"),
    ("bgstates.k12_moments.self_s", "s", "lower"),
    ("bgstates.phase_expectations.self_s", "s", "lower"),
    ("bgstates.overlap.self_s", "s", "lower"),
    ("bgstates.g_k.self_s", "s", "lower"),
    ("bgstates.kbound_scan.self_s", "s", "lower"),
    ("bgstates.completeness_check.self_s", "s", "lower"),
    ("bgstates.route_errors", "count", "lower"),
    ("fockreal.self_s", "s", "lower"),
    ("fockreal.two_mode.self_s", "s", "lower"),
    ("fockreal.hp_phase_ops.self_s", "s", "lower"),
    ("fockreal.alpha_expectations.self_s", "s", "lower"),
    ("fockreal.dense_bytes", "B", "lower"),
    ("nfm.self_s", "s", "lower"),
    ("nfm.run_trials.self_s", "s", "lower"),
    ("nfm.state_truth.calls", "count", "lower"),
    ("nfm.state_truth_per_spec", "ratio", "lower"),
    ("verify.run_all.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("cli.children", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_values(agg: dict, rounds: int) -> dict:
    """Per-layer metrics for one round from aggregates summed over `rounds`.

    `cli.import_s`, `cli.output_bytes`, `cli.children` and
    `trace.overhead_s` are measured by the caller and filled in there.
    """
    calls, self_ns, counters = agg["calls"], agg["self_ns"], agg["counters"]

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def seconds(ns):
        return ns / 1e9 / rounds

    out = {}
    for name, _unit, _better in LAYER_METRICS:
        parts = name.split(".")
        layer, tail = parts[0], parts[-1]
        if name in ("repalg.dense_bytes", "fockreal.dense_bytes",
                    "bgstates.state_dim_sum", "bgstates.route_errors", "verify.checks"):
            out[name] = counters.get(name, 0.0) / rounds
        elif name == "repalg.useful_entry_ratio":
            stored = counters.get("repalg.stored_entries", 0.0)
            out[name] = counters.get("repalg.nonzero_entries", 0.0) / stored if stored else 0.0
        elif name == "phaseops.build_phase_ops.max_dim":
            out[name] = agg["max_dim"]
        elif name == "nfm.state_truth_per_spec":
            specs = agg["state_truth_specs"]
            out[name] = calls.get("nfm.state_truth", 0) / rounds / specs if specs else 0.0
        elif len(parts) == 2 and tail == "calls":
            out[name] = layer_sum(calls, layer) / rounds
        elif len(parts) == 2 and tail == "self_s":
            out[name] = seconds(layer_sum(self_ns, layer))
        elif tail == "calls":
            out[name] = calls.get(".".join(parts[:2]), 0) / rounds
        elif tail == "self_s":
            out[name] = seconds(self_ns.get(".".join(parts[:2]), 0))
    return out
