"""Ablation — online elastic width control under a straggler.

The closed-loop headline: a job starts at a deliberately *bad* width
(the paper's default, width = N — one replica, so no failover headroom)
while one rank serves 10x slow.  The elastic controller, fed only by
the observability signals every run already collects, must walk the
width down the divisor lattice and land within 10% of the best fixed
width an oracle sweep would have picked — live, mid-training, with the
reshard cost fully visible to the critical-path analyzer.

Cells:

* **oracle sweep** — every candidate width as a fixed-width run under
  the same fault plan; the best steady-state epoch is the target.
* **elastic** — same job, started at width N with
  ``ElasticOptions(enabled=True)``; we record the width trajectory and
  per-epoch times.
* **probes** — the elastic cell twice more: once fresh (bit-identical
  trajectory ⇒ the control loop is deterministic under the sim clock)
  and once traced (the ``reshard`` pseudo-epoch spans must satisfy the
  critical-path invariant, i.e. the reshard is accounted, not dead
  time between epochs).
"""

from __future__ import annotations

from typing import Optional

from ..core.store import DDStore  # noqa: F401  (doc cross-ref)
from .experiments import ScaleProfile, cached_experiment, current_profile
from .harness import ExperimentConfig, run_experiment
from .reporting import render_table

__all__ = ["ablation_elastic", "ELASTIC_TIMEOUT_S"]

#: Per-read fetch deadline — same operating point as the resilience
#: ablation: tight enough that a 10x-slow peer blows it, loose enough
#: that healthy reads never do.
ELASTIC_TIMEOUT_S = 1.5e-4


def _candidate_widths(n_ranks: int) -> list[int]:
    return [d for d in range(1, n_ranks + 1) if n_ranks % d == 0]


def _cell(profile: ScaleProfile, **kw) -> ExperimentConfig:
    defaults = dict(
        machine="perlmutter",
        n_nodes=max(1, profile.perlmutter_nodes // 4),
        dataset="aisd",
        method="ddstore",
        batch_size=profile.batch_size,
        steps_per_epoch=max(4, profile.steps_per_epoch),
        stats_only=True,
        hidden_dim=8,  # fetch-bound on purpose: width is the lever here
        fault_plan="straggler-10x",
        timeout_s=ELASTIC_TIMEOUT_S,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def ablation_elastic(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    base = _cell(profile)
    n_ranks = base.n_ranks
    candidates = _candidate_widths(n_ranks)
    bad_width = n_ranks  # one replica: every chunk has a single owner
    n_rungs = len([c for c in candidates if c < bad_width])
    epochs = n_rungs + 2  # one epoch per rung + settle + measure

    data: dict = {"n_ranks": n_ranks, "candidates": candidates}
    rows = []

    # -- oracle sweep: fixed widths under the same straggler ---------------
    oracle_width, oracle_steady = None, float("inf")
    data["oracle"] = {}
    for width in candidates:
        r = cached_experiment(_cell(profile, width=width, epochs=2))
        steady = r.epoch_seconds[-1]
        data["oracle"][str(width)] = dict(
            epoch_seconds=list(r.epoch_seconds),
            steady=steady,
            timeouts=r.fetch_counters.get("n_timeouts", 0),
            failovers=r.fetch_counters.get("n_failovers", 0),
        )
        if steady < oracle_steady:
            oracle_width, oracle_steady = width, steady
        rows.append(
            [
                f"fixed width={width}",
                f"{steady * 1e3:.3f}",
                "-",
                f"{r.fetch_counters.get('n_timeouts', 0):,}",
            ]
        )
    data["oracle_width"] = oracle_width
    data["oracle_steady"] = oracle_steady

    # -- the elastic run: start bad, let the controller drive --------------
    elastic_cfg = _cell(profile, width=bad_width, epochs=epochs, elastic=True)
    r = cached_experiment(elastic_cfg)
    ctl = r.control or {}
    traj = ctl.get("trajectory", [])
    data["elastic"] = dict(
        start_width=bad_width,
        epoch_seconds=list(r.epoch_seconds),
        trajectory=traj,
        final_width=ctl.get("final_width"),
        reshards=ctl.get("reshards", 0),
        reshard_seconds=ctl.get("reshard_seconds", 0.0),
        decisions=ctl.get("decisions", []),
    )
    rows.append(
        [
            f"elastic (start {bad_width})",
            f"{r.epoch_seconds[-1] * 1e3:.3f}",
            "->".join(str(w) for w in [bad_width] + traj),
            f"{r.fetch_counters.get('n_timeouts', 0):,}",
        ]
    )

    # Convergence: first epoch from which every epoch stays within 10% of
    # the oracle's steady state.
    tol = 1.10 * oracle_steady
    conv = None
    for e in range(len(r.epoch_seconds)):
        if all(s <= tol for s in r.epoch_seconds[e:]):
            conv = e
            break
    data["convergence_epoch"] = conv

    # -- probe: determinism (two fresh runs, bit-identical behaviour) ------
    a, b = run_experiment(elastic_cfg), run_experiment(elastic_cfg)
    deterministic = (
        a.epoch_seconds == b.epoch_seconds
        and (a.control or {}).get("trajectory") == (b.control or {}).get("trajectory")
        and (a.control or {}).get("decisions") == (b.control or {}).get("decisions")
    )

    # -- probe: the reshard cost is accounted on the critical path ---------
    from ..obs import Observer
    from ..obs.critical_path import analyze

    obs = Observer(trace=True)
    run_experiment(elastic_cfg, observer=obs)
    spans = obs.tracer.spans
    reshard_epochs = [
        s for s in spans if s.name == "reshard" and s.cat == "trainer.epoch"
    ]
    reshard_stages = [
        s for s in spans if s.name == "reshard" and s.cat == "trainer.stage"
    ]
    report = analyze(spans)
    data["critical_path"] = dict(
        ok=report.ok,
        max_rel_residual=report.max_rel_residual,
        reshard_epoch_spans=len(reshard_epochs),
        reshard_stage_spans=len(reshard_stages),
        reshard_span_seconds=sum(s.duration for s in reshard_stages),
    )

    data["checks"] = {
        "converges": conv is not None,
        "within_10pct_of_oracle": bool(r.epoch_seconds[-1] <= tol),
        "converges_fast": conv is not None and conv <= max(2, n_rungs),
        "ends_at_oracle_width": ctl.get("final_width") == oracle_width,
        "deterministic": bool(deterministic),
        "critical_path_ok": bool(report.ok),
        # Every rank emits one epoch+stage span pair per reshard; the
        # analyzer passing with them present means the reshard interval is
        # attributed, not dead time.
        "reshard_cost_accounted": bool(
            reshard_epochs
            and len(reshard_epochs)
            == len(reshard_stages)
            == n_ranks * ctl.get("reshards", 0)
        ),
    }

    text = render_table(
        ["Cell", "steady epoch (ms)", "width trajectory", "timeouts"],
        rows,
        title=(
            "Ablation — elastic width control under a 10x straggler "
            f"({n_ranks} ranks, start width={bad_width}, "
            f"oracle width={oracle_width})"
        ),
    )
    text += (
        f"\noracle steady epoch: {oracle_steady * 1e3:.3f} ms; elastic last "
        f"epoch: {r.epoch_seconds[-1] * 1e3:.3f} ms; converged at epoch "
        f"{conv}; reshards: {ctl.get('reshards', 0)} "
        f"({ctl.get('reshard_seconds', 0.0) * 1e3:.3f} ms, all on the "
        "critical path)"
    )
    return text, data
