"""Traced experiment runs: the engine behind ``python -m repro trace``.

:func:`run_traced` executes one bench-harness experiment cell with a full
:class:`~.observer.Observer` attached — span tracing through MPI, the
data plane, the store, and the trainer, plus the canonical metrics
registry — then runs the critical-path analyzer over the collected spans
and returns everything a caller needs: the experiment result, the
observer, the Chrome trace document, and the checked
:class:`~.critical_path.CriticalPathReport`.

The traceable experiment names are deliberately the figure-shaped cells
whose analysis depends on per-stage timing (Fig 5's breakdown, Fig 9's
function durations, the resilience ablation's straggler run).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .critical_path import CriticalPathReport, analyze, render_report
from .observer import Observer
from .tracing import validate_chrome_trace

__all__ = ["TRACEABLE", "TracedRun", "run_traced", "traced_config", "trace_json_bytes"]


#: name -> (base cell, overrides, description): rows of the bench cell
#: table (:mod:`repro.bench.cells`), resolved by :func:`traced_config`.
#: ``tiered`` and ``nodeagg`` are the ablations' own cells — the
#: full-stage probe (every wave byte promotes off the node-local burst
#: buffer, so the "promote" spans tile the critical path with zero
#: prefetch wire bytes) and the aggregated cell (leader wire reads plus
#: ``store.fanout`` spans on the intra-node delivery path).
TRACEABLE: dict[str, tuple[str, dict, str]] = {
    "fig5": ("paper", {}, "DDStore breakdown cell (Fig 5 shape)"),
    "fig9": (
        "paper",
        dict(n_nodes=lambda p: p.scaling_nodes[0], dataset="ising"),
        "function-duration cell (Fig 9 shape)",
    ),
    "resilience": (
        "paper",
        dict(dataset="ising", fault_plan="straggler-10x", timeout_s=5e-3),
        "straggler fault with retry/failover armed",
    ),
    "columnar": (
        "paper",
        dict(n_nodes=lambda p: p.scaling_nodes[0], dataset="ising", columnar=True),
        "zero-copy columnar arena-scatter byte path",
    ),
    "tiered": (
        "tiered",
        dict(tiers="gpu:2m+dram:4m+nvme:512m"),
        "tiered cache hierarchy with NVMe promotion",
    ),
    "p2p": ("paper", dict(dataset="ising", method="ddstore-p2p"), "two-sided ablation data plane"),
    "nodeagg": (
        "nodeagg",
        dict(node_fetch=True),
        "node-aggregated wave fetch with intra-node fan-out",
    ),
}


def traced_config(name: str, profile=None):
    """The :class:`~repro.bench.harness.ExperimentConfig` ``trace <name>`` runs."""
    from ..bench.cells import cell, current_profile

    if name not in TRACEABLE:
        raise KeyError(
            f"unknown traceable experiment {name!r}; options: {sorted(TRACEABLE)}"
        )
    base, overrides, _description = TRACEABLE[name]
    return cell(base, profile or current_profile(), **overrides)


@dataclass
class TracedRun:
    """Everything one traced experiment produced."""

    name: str
    result: object  # bench ExperimentResult
    observer: Observer
    chrome: dict  # Chrome trace-event JSON document
    report: CriticalPathReport

    def render(self) -> str:
        head = [
            f"traced experiment: {self.name}",
            f"spans recorded:    {len(self.observer.tracer.spans)}",
            f"metric series:     {len(self.observer.metrics)}",
            "",
        ]
        return "\n".join(head) + render_report(self.report)


def run_traced(name: str, profile=None) -> TracedRun:
    """Run one traceable experiment cell with an observer attached.

    ``name`` selects from :data:`TRACEABLE`.  The returned run's report
    has already been analyzed but not ``check()``ed — callers decide
    whether a violated invariant is fatal.
    """
    from ..bench.harness import run_experiment

    observer = Observer(trace=True)
    result = run_experiment(traced_config(name, profile), observer=observer)
    chrome = observer.tracer.to_chrome()
    problems = validate_chrome_trace(chrome)
    if problems:
        raise ValueError(
            "exported trace failed Chrome trace-event validation: "
            + "; ".join(problems[:5])
        )
    report = analyze(observer.tracer.spans)
    return TracedRun(
        name=name, result=result, observer=observer, chrome=chrome, report=report
    )


def trace_json_bytes(chrome: dict) -> bytes:
    """Deterministic serialisation of a trace document (stable across
    reruns of the same experiment — the CI determinism check compares
    these bytes)."""
    return json.dumps(chrome, sort_keys=True, separators=(",", ":")).encode()
