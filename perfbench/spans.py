"""Span recorder for the traced run.

Public functions of each package module are replaced, for the duration of
the traced passes, by wrappers installed at the module attribute their
callers look up; nothing inside the package changes. Each call records
``[name, start, end, parent, error, attrs]`` in memory; self time and the
per-layer metrics are derived after the run. Private hot loops such as
``bounds._nested_bound`` are never wrapped, so their time counts as the
self time of the public function that runs them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("qcore", "protocols", "simulator", "polytope", "bounds", "stats", "cli")
# Restarts ending this close to the best value count as having found it.
AT_BEST = 1e-6

NAME, START, END, PARENT, ERROR, ATTRS = range(6)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        spans, open_stack = self.spans, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_stack[-1] if open_stack else None, False, None]
            spans.append(span)
            open_stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                open_stack.pop()
            if on_result is not None:
                span[ATTRS] = on_result(args, kwargs, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count_items(self, owner, attr: str, key: str) -> None:
        """Wrap a generator function so each item it yields is counted on
        the innermost open span."""
        original = getattr(owner, attr)
        spans, open_stack = self.spans, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                if open_stack:
                    attrs = spans[open_stack[-1]][ATTRS] or {}
                    attrs[key] = attrs.get(key, 0) + 1
                    spans[open_stack[-1]][ATTRS] = attrs
                yield item

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, error, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "error": error, "attrs": attrs}) + "\n")


def instrument(recorder: SpanRecorder, modules: dict) -> None:
    """Install the wrappers on the package modules (keyed by layer name)."""
    cli, protocols, simulator = modules["cli"], modules["protocols"], modules["simulator"]
    polytope, bounds, stats = modules["polytope"], modules["bounds"], modules["stats"]
    wrap = recorder.wrap
    for attr in ("main", "parse_counts_file", "format_counts_file"):
        wrap(cli, attr, f"cli.{attr}")
    wrap(protocols, "optimal_protocol", "protocols.optimal_protocol")
    wrap(protocols, "parse_protocol_spec", "protocols.parse_protocol_spec")
    wrap(protocols.ProtocolSpec, "build", "protocols.build")
    # The simulator calls qcore.apply_map through the name it imported.
    wrap(simulator, "apply_map", "qcore.apply_map")
    wrap(simulator, "sequence_probabilities", "simulator.sequence_probabilities",
         lambda args, kwargs, table: {"cells": int(table.probs.size)})
    wrap(simulator, "apply_readout_noise", "simulator.apply_readout_noise")
    wrap(simulator, "format_correlation_table", "simulator.format_correlation_table")
    wrap(polytope, "aot_constraints", "polytope.aot_constraints",
         lambda args, kwargs, cons: {"constraints": len(cons),
                                     "independent": sum(c.independent for c in cons)})
    wrap(polytope, "algebraic_max", "polytope.algebraic_max")
    recorder.count_items(polytope, "enumerate_deterministic_strategies", "strategies")
    wrap(bounds, "optimize_qubit_bound", "bounds.optimize_qubit_bound",
         lambda args, kwargs, res: {"evaluations": res.evaluations, "value": res.value})
    wrap(bounds, "optimize_tee_bound", "bounds.optimize_tee_bound")
    # Nelder-Mead runs, objective included; each returns -(end value).
    wrap(bounds, "minimize", "bounds.minimize",
         lambda args, kwargs, res: {"end_value": -float(res.fun)})
    for attr in ("aot_lr_test", "sample_counts", "null_model_table", "certify"):
        wrap(stats, attr, f"stats.{attr}")
    wrap(stats, "aot_lr_test_montecarlo", "stats.aot_lr_test_montecarlo",
         lambda args, kwargs, res: {"replications": res.replications})


SELF_TIMES = (
    "cli.main", "cli.parse_counts_file", "cli.format_counts_file",
    "protocols.optimal_protocol", "protocols.parse_protocol_spec", "protocols.build",
    "qcore.apply_map",
    "simulator.sequence_probabilities", "simulator.apply_readout_noise",
    "simulator.format_correlation_table",
    "polytope.aot_constraints", "polytope.algebraic_max",
    "bounds.optimize_qubit_bound", "bounds.minimize", "bounds.optimize_tee_bound",
    "stats.aot_lr_test", "stats.aot_lr_test_montecarlo", "stats.sample_counts",
    "stats.null_model_table", "stats.certify",
)
CALLS = ("qcore.apply_map", "polytope.aot_constraints", "stats.sample_counts")


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, derived from recorded spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time = defaultdict(float)
    total_time = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    errors = dict.fromkeys(LAYERS, 0)
    restarts = at_best = 0
    for idx, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        self_time[name] += duration - child_time[idx]
        total_time[name] += duration
        calls[name] += 1
        errors[name.split(".")[0]] += span[ERROR]
        for key, value in (span[ATTRS] or {}).items():
            attr_sum[f"{name}.{key}"] += value
        parent = spans[span[PARENT]] if span[PARENT] is not None else None
        if name == "bounds.minimize" and parent and parent[NAME] == "bounds.optimize_qubit_bound":
            restarts += 1
            if span[ATTRS] and parent[ATTRS]:  # both calls returned
                at_best += span[ATTRS]["end_value"] >= parent[ATTRS]["value"] - AT_BEST

    metrics = {f"{name}.self_s": self_time[name] / passes for name in SELF_TIMES}
    metrics.update({f"{name}.calls": calls[name] / passes for name in CALLS})
    metrics.update({f"{layer}.errors": errors[layer] / passes for layer in LAYERS})
    evaluations = attr_sum["bounds.optimize_qubit_bound.evaluations"]
    replications = attr_sum["stats.aot_lr_test_montecarlo.replications"]
    qubit_time = total_time["bounds.optimize_qubit_bound"]
    mc_time = total_time["stats.aot_lr_test_montecarlo"]
    metrics.update({
        "simulator.table_cells": attr_sum["simulator.sequence_probabilities.cells"] / passes,
        "polytope.constraints": attr_sum["polytope.aot_constraints.constraints"] / passes,
        "polytope.independent_constraints":
            attr_sum["polytope.aot_constraints.independent"] / passes,
        "polytope.strategies_enumerated": attr_sum["polytope.algebraic_max.strategies"] / passes,
        "bounds.evaluations": evaluations / passes,
        "bounds.evals_per_s": evaluations / qubit_time if qubit_time else 0.0,
        "bounds.restarts": restarts / passes,
        "bounds.restarts_at_best_ratio": at_best / restarts if restarts else 0.0,
        "stats.mc_replications_per_s": replications / mc_time if mc_time else 0.0,
    })
    return metrics
