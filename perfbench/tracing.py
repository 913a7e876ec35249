"""Spans around gridmix's public functions, taken from outside the package.

``Tracer.install`` rebinds each traced function in every gridmix module
that holds it, so ``from .lp import solve`` copies inside the package are
replaced as well as the defining attribute. Nothing inside a function is
wrapped. Spans stay in memory until ``layer_metrics`` reads them.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter_ns

from gridmix.lp import LPError

# (module, function) pairs; the layer of a span is its module's last part.
TARGETS = (
    ("gridmix.cli", "main"),
    ("gridmix.catalog", "get_scenario"),
    ("gridmix.model", "compile_scenario"),
    ("gridmix.model", "report"),
    ("gridmix.lp", "solve"),
    ("gridmix.lp", "standardize"),
    ("gridmix.lp", "pivot_rule"),
    ("gridmix.lp", "check_feasible"),
    ("gridmix.analysis", "sweep"),
    ("gridmix.analysis", "oracle_solve"),
    ("gridmix.analysis", "enumerate_vertices"),
    ("gridmix.analysis", "audit_reference_results"),
    ("gridmix.analysis", "corner_report"),
    ("gridmix.derivation", "derive_all"),
)
LAYERS = ("cli", "catalog", "model", "lp", "analysis", "derivation")


def _subsets(program, box) -> int:
    planes = len(program.constraints) + program.var_count * (2 if box is not None else 1)
    return math.comb(planes, program.var_count)


class Tracer:
    def __init__(self) -> None:
        # span: [name, layer, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_solve: dict[int, tuple[object, object]] = {}

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "gridmix" or name.startswith("gridmix.")]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[1]}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, stack, notes = self.spans, self._stack, self.notes

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except LPError:
                notes[idx] = {"lp_error": True}
                raise
            finally:
                stack.pop()
                spans[idx][3] = perf_counter_ns()
            self._note(idx, name, args, kwargs, result)
            return result

        return traced

    def _note(self, idx: int, name: str, args, kwargs, result) -> None:
        if name == "lp.solve":
            self.notes[idx] = {"iterations": result.iterations}
            self._last_solve[id(args[0])] = (args[0], result)
        elif name == "analysis.sweep":
            self.notes[idx] = {"points": len(args[2] if len(args) > 2 else kwargs["values"])}
        elif name == "analysis.enumerate_vertices":
            box = kwargs.get("_box")
            self.notes[idx] = {"subsets": _subsets(args[0], box), "vertices": len(result)}
        elif name == "analysis.oracle_solve":
            program = args[0]
            seen = self._last_solve.get(id(program))
            if seen is not None and seen[0] is program:
                solution = seen[1]
                agree = result.status is solution.status and (
                    not solution.is_optimal
                    or abs(result.objective - solution.objective_value)
                    <= 1e-6 * max(1.0, abs(solution.objective_value))
                )
                self.notes[idx] = {"disagrees": not agree}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        spans, notes = self.spans, self.notes
        count: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(spans)
        for _name, _layer, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        in_sweep = [False] * len(spans)
        layer_self: dict[str, int] = defaultdict(int)
        for idx, (name, layer, start, end, parent) in enumerate(spans):  # parents precede children
            count[name] += 1
            total[name] += end - start
            own = end - start - child_ns[idx]
            self_ns[name] += own
            layer_self[layer] += own
            in_sweep[idx] = name == "analysis.sweep" or (parent >= 0 and in_sweep[parent])

        def mean(name: str, per: float) -> float:
            return total[name] / count[name] / per if count[name] else 0.0

        def mean_self(name: str, per: float) -> float:
            return self_ns[name] / count[name] / per if count[name] else 0.0

        def noted(name: str, key: str) -> list:
            return [notes[i][key] for i, s in enumerate(spans) if s[0] == name and key in notes.get(i, {})]

        iterations = noted("lp.solve", "iterations")
        points = sum(noted("analysis.sweep", "points"))
        sweep_solves = sum(1 for i, s in enumerate(spans) if s[0] == "lp.solve" and in_sweep[i])
        subsets = sum(noted("analysis.enumerate_vertices", "subsets"))
        vertices = sum(noted("analysis.enumerate_vertices", "vertices"))
        metrics = {
            "cli.main_ms": (mean("cli.main", 1e6), "ms"),
            "cli.self_ms": (mean_self("cli.main", 1e6), "ms"),
            "catalog.get_scenario_us": (mean("catalog.get_scenario", 1e3), "us"),
            "catalog.get_scenario_calls": (count["catalog.get_scenario"], "count"),
            "model.compile_us": (mean("model.compile_scenario", 1e3), "us"),
            "model.compile_calls": (count["model.compile_scenario"], "count"),
            "model.report_us": (mean("model.report", 1e3), "us"),
            "lp.standardize_us": (mean("lp.standardize", 1e3), "us"),
            "lp.pivot_rule_us": (mean("lp.pivot_rule", 1e3), "us"),
            "lp.pivot_rule_calls": (count["lp.pivot_rule"], "count"),
            "lp.solve_self_us": (mean_self("lp.solve", 1e3), "us"),
            "lp.solve_calls": (count["lp.solve"], "count"),
            "lp.iterations_per_solve": (sum(iterations) / len(iterations) if iterations else 0.0, "1"),
            "lp.check_feasible_us": (mean("lp.check_feasible", 1e3), "us"),
            "lp.errors": (len(noted("lp.solve", "lp_error")), "count"),
            "analysis.sweep_point_us": (total["analysis.sweep"] / points / 1e3 if points else 0.0, "us"),
            "analysis.solves_per_sweep_point": (sweep_solves / points if points else 0.0, "1"),
            "analysis.oracle_us": (mean("analysis.oracle_solve", 1e3), "us"),
            "analysis.enumerate_us": (mean("analysis.enumerate_vertices", 1e3), "us"),
            "analysis.enumerate_calls": (count["analysis.enumerate_vertices"], "count"),
            "analysis.audit_ms": (mean("analysis.audit_reference_results", 1e6), "ms"),
            "analysis.subsets_solved": (subsets, "count"),
            "analysis.vertex_yield": (vertices / subsets if subsets else 0.0, "1"),
            "analysis.oracle_disagreements": (sum(noted("analysis.oracle_solve", "disagrees")), "count"),
            "derivation.derive_all_us": (mean("derivation.derive_all", 1e3), "us"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_total_ms"] = (layer_self[layer] / 1e6, "ms")
        return metrics
