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
* **elastic** — same job, started at width N with an
  :class:`~repro.control.ElasticCoordinator` between epochs (the cell's
  ``elastic=True``); we record the width trajectory and per-epoch times.
* **probe** — the elastic cell once more, fresh and traced: a
  bit-identical trajectory ⇒ the control loop is deterministic under the
  sim clock, and the ``reshard`` pseudo-epoch spans must satisfy the
  critical-path invariant, i.e. the reshard is accounted, not dead time
  between epochs.
"""

from __future__ import annotations

from .cells import ScaleProfile, cell
from .reporting import render_table
from .sweep import Sweep, cached_experiment, count, named_checks, rerun_matches

__all__ = ["ablation_elastic"]


def _candidate_widths(n_ranks: int) -> list[int]:
    return [d for d in range(1, n_ranks + 1) if n_ranks % d == 0]


def ablation_elastic(profile: ScaleProfile):
    n_ranks = cell("elastic", profile).n_ranks
    candidates = _candidate_widths(n_ranks)
    bad_width = n_ranks  # one replica: every chunk has a single owner
    n_rungs = len([c for c in candidates if c < bad_width])
    epochs = n_rungs + 2  # one epoch per rung + settle + measure

    data: dict = {"n_ranks": n_ranks, "candidates": candidates}

    # -- oracle sweep: fixed widths under the same straggler ---------------
    oracle = Sweep("elastic", profile, [(w, dict(width=w, epochs=2)) for w in candidates])
    data["oracle"] = {
        str(w): dict(
            epoch_seconds=list(r.epoch_seconds),
            steady=r.epoch_seconds[-1],
            timeouts=r.fetch_counters.get("n_timeouts", 0),
            failovers=r.fetch_counters.get("n_failovers", 0),
        )
        for w, r in oracle.results.items()
    }
    # first of the fastest: ties go to the narrower width
    oracle_width = min(candidates, key=lambda w: oracle[w].epoch_seconds[-1])
    oracle_steady = oracle[oracle_width].epoch_seconds[-1]
    data["oracle_width"] = oracle_width
    data["oracle_steady"] = oracle_steady

    # -- the elastic run: start bad, let the controller drive --------------
    elastic_cfg = cell("elastic", profile, width=bad_width, epochs=epochs, elastic=True)
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

    def steady_ms(run):
        return f"{run.epoch_seconds[-1] * 1e3:.3f}"

    rows = [
        [f"fixed width={w}", steady_ms(run), "-", count("n_timeouts")(run)]
        for w, run in oracle.results.items()
    ]
    rows.append(
        [
            f"elastic (start {bad_width})",
            steady_ms(r),
            "->".join(str(w) for w in [bad_width] + traj),
            count("n_timeouts")(r),
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

    # -- probes: the traced rerun is both the determinism probe (bit-
    # identical epoch times, trajectory and decisions) and the source of
    # the spans that show the reshard cost on the critical path ----------
    from ..obs import Observer
    from ..obs.critical_path import analyze

    obs = Observer(trace=True)
    deterministic = rerun_matches(elastic_cfg, observer=obs)
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

    data["checks"] = named_checks(
        converges=conv is not None,
        within_10pct_of_oracle=r.epoch_seconds[-1] <= tol,
        converges_fast=conv is not None and conv <= max(2, n_rungs),
        ends_at_oracle_width=ctl.get("final_width") == oracle_width,
        deterministic=deterministic,
        critical_path_ok=report.ok,
        # Every rank emits one epoch+stage span pair per reshard; the
        # analyzer passing with them present means the reshard interval is
        # attributed, not dead time.
        reshard_cost_accounted=reshard_epochs
        and len(reshard_epochs) == len(reshard_stages) == n_ranks * ctl.get("reshards", 0),
    )

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
