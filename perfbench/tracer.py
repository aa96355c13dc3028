"""Spans and counts at the library's layer boundaries, recorded from outside.

Each traced function is replaced by a wrapper at *every* name that binds it
inside the package (``from .validity import enumerate_valid`` makes
``strategy.enumerate_valid`` a separate binding), so calls between modules
are seen too.  A span is (name, parent span, op, start, end) in integer
nanoseconds; self time is a span's duration minus its children's, kept
exact so that the layers' self times plus the uninstrumented remainder sum
to the traced wall time to the nanosecond.  Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter_ns

# (module, function, metric prefix); the scenario serializers share one prefix
TARGETS = [
    ("validity", "enumerate_valid", "validity.enumerate_valid"),
    ("validity", "is_valid", "validity.is_valid"),
    ("mechanism", "run", "mechanism.run"),
    ("core", "surplus", "core.surplus"),
    ("core", "welfare", "core.welfare"),
    ("equilibrium", "tx_deviation_candidates", "equilibrium.tx_deviation_candidates"),
    ("equilibrium", "node_deviation_candidates", "equilibrium.node_deviation_candidates"),
    ("equilibrium", "check_pne", "equilibrium.check_pne"),
    ("equilibrium", "check_dsic_barring_b", "equilibrium.check_dsic_barring_b"),
    ("strategy", "broker_best_response", "strategy.broker_best_response"),
    ("strategy", "best_response_dynamics", "strategy.best_response_dynamics"),
    ("strategy", "welfare_max_allocation", "strategy.welfare_max_allocation"),
    ("linineq", "find_point", "linineq.find_point"),
    ("linineq", "enumerate_cells", "linineq.enumerate_cells"),
    ("mdfm", "run_benchmarks", "mdfm.run_benchmarks"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "outcome_to_json", "scenario.serialize"),
    ("scenario", "equilibrium_report_to_json", "scenario.serialize"),
    ("scenario", "truthfulness_report_to_json", "scenario.serialize"),
    ("scenario", "dynamics_step_to_json", "scenario.serialize"),
    ("scenario", "dynamics_summary_to_json", "scenario.serialize"),
    ("scenario", "benchmark_result_to_json", "scenario.serialize"),
]

# per-prefix count taken from each call's result
RESULT_COUNTS = {
    "validity.enumerate_valid": ("allocations", len),
    "mechanism.run": ("winners", lambda outcome: outcome.winner is not None),
    "equilibrium.tx_deviation_candidates": ("candidates", len),
    "equilibrium.node_deviation_candidates": ("candidates", len),
    "strategy.broker_best_response": ("allocations_examined", lambda r: r.allocations_examined),
    "strategy.best_response_dynamics": ("steps", lambda trace: len(trace.steps)),
    "linineq.find_point": ("feasible", lambda point: point is not None),
}


class Tracer:
    """Installs wrappers on the brokerlab modules; ``close`` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        # span columns: name id, parent span (-1 at the root), op, start, end
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op = -1
        self.stack: list[list] = []  # [name id, span index, start, child ns, parent name]
        self.root_ns = 0
        self.identity_errors: list[str] = []
        self.bbr_enumerated = 0  # enumerate_valid allocations under broker_best_response
        self._restore: list[tuple] = []
        self.bindings: dict[str, int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target in the loaded brokerlab modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "brokerlab" or n.startswith("brokerlab.")]
        for module_name, func_name, prefix in TARGETS:
            original = getattr(sys.modules[f"brokerlab.{module_name}"], func_name)
            wrapper = self._wrap(original, prefix)
            sites = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        sites += 1
            self.bindings[f"{module_name}.{func_name}"] = sites

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _name_id(self, prefix: str) -> int:
        if prefix not in self.calls:
            self.names.append(prefix)
            self.calls[prefix] = 0
            self.self_ns[prefix] = 0
        return self.names.index(prefix)

    def _wrap(self, original, prefix: str):
        name_id = self._name_id(prefix)
        count = RESULT_COUNTS.get(prefix)
        if inspect.isgeneratorfunction(original):
            return self._wrap_generator(original, prefix, name_id)
        if prefix == "equilibrium.check_pne":
            return self._wrap_check_pne(original, name_id)

        def wrapper(*args, **kwargs):
            self._enter(name_id, prefix)
            try:
                result = original(*args, **kwargs)
            finally:
                frame = self._exit()
            if count is not None:
                self._count(prefix, count[0], count[1](result))
            if prefix == "validity.enumerate_valid" and frame[4] == "strategy.broker_best_response":
                self.bbr_enumerated += len(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_generator(self, original, prefix: str, name_id: int):
        """Each resume of the generator is its own span of the same name."""

        def wrapper(*args, **kwargs):
            self._enter(name_id, prefix)
            try:
                inner = original(*args, **kwargs)
            finally:
                self._exit()
            while True:
                self._enter(name_id, None)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self._count(prefix, "cells", 1)
                yield item

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_check_pne(self, original, name_id: int):
        """Checks run calls == 1 + checked agent deviations + proposing brokers."""
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            proposers = {p.broker for p in bound.arguments["proposals"]}
            brokers = sum(1 for b in bound.arguments["broker_order"] if b in proposers)
            runs_before = self.calls["mechanism.run"]
            self._enter(name_id, "equilibrium.check_pne")
            try:
                report = original(*args, **kwargs)
            finally:
                self._exit()
            runs = self.calls["mechanism.run"] - runs_before
            expected = 1 + report.checked_agent_deviations + brokers
            if runs != expected:
                self.identity_errors.append(
                    f"op {self.op}: check_pne made {runs} run calls, expected "
                    f"1 + {report.checked_agent_deviations} + {brokers} = {expected}"
                )
            return report

        wrapper.__wrapped__ = original
        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, name_id: int, prefix: str | None) -> None:
        """Open a span; ``prefix`` None marks a generator resume (not a call)."""
        if prefix is not None:
            self.calls[prefix] += 1
        parent = self.stack[-1] if self.stack else None
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent[1] if parent else -1)
        self.span_op.append(self.op)
        self.span_start.append(0)
        self.span_end.append(0)
        parent_name = self.names[parent[0]] if parent else None
        self.stack.append([name_id, index, 0, 0, parent_name])
        self.stack[-1][2] = perf_counter_ns()

    def _exit(self) -> list:
        end = perf_counter_ns()
        frame = self.stack.pop()
        name_id, index, start, child_ns, _ = frame
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self.self_ns[self.names[name_id]] += duration - child_ns
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.root_ns += duration
        return frame

    def _count(self, prefix: str, stat: str, value) -> None:
        key = f"{prefix}.{stat}"
        self.counts[key] = self.counts.get(key, 0) + int(value)

    # -- results ------------------------------------------------------------

    def check_identities(self) -> list[str]:
        errors = list(self.identity_errors)
        examined = self.counts.get("strategy.broker_best_response.allocations_examined", 0)
        if examined != self.bbr_enumerated:
            errors.append(
                f"broker_best_response examined {examined} allocations but enumerate_valid "
                f"returned {self.bbr_enumerated} to it"
            )
        return errors

    def metrics(self, wall_ns: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics; raises if the self times and the uninstrumented
        remainder do not sum to ``wall_ns``, the traced ops' wall time."""
        uninstrumented = wall_ns - self.root_ns
        if sum(self.self_ns.values()) + uninstrumented != wall_ns:
            raise RuntimeError("layer self times and the remainder do not sum to the wall time")
        out: dict[str, float] = dict(self.counts)
        for prefix in self.names:
            out[f"{prefix}.self_s"] = self.self_ns[prefix] / 1e9
            out[f"{prefix}.calls"] = self.calls[prefix]
        runs, points = self.calls["mechanism.run"], self.calls["linineq.find_point"]
        out["mechanism.run.winner_frac"] = out.get("mechanism.run.winners", 0) / runs if runs else 0.0
        out["linineq.find_point.feasible_frac"] = out.get("linineq.find_point.feasible", 0) / points if points else 0.0
        out["trace.uninstrumented_s"] = uninstrumented / 1e9
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, parent, op, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\top\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}\t{self.span_op[i]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
