"""Serving-layer bench: N concurrent tenant jobs sharing one store.

The cell that motivates the serving layer: one replicated DDStore, one
latency-sensitive *interactive* tenant (small batches, tight step loop)
sharing it with several throughput-oriented *batch* tenants (large
batches).  Three configurations of identical per-tenant work:

* **solo** — the interactive tenant alone on the store: its undisturbed
  p99 fetch latency (the isolation yardstick).
* **concurrent** — all tenants at once, each as its own engine process
  per rank, behind per-tenant sessions (own cache partition, own DRR
  lane).  This is the serving layer's case: per-target deficit-round-
  robin with QoS weights keeps the interactive tenant's p99 within a
  small factor of solo while the batch tenants soak the leftover wire.
* **serialized** — the one-at-a-time baseline a store *without* a
  serving layer forces: the same jobs run back to back.

``ablation_serving`` reports per-tenant p99 fetch latency and aggregate
throughput, and carries the checks ``--check`` (the CI smoke step) turns
into an exit code:

* ``qos_isolation`` — interactive p99 under full concurrency is within
  1.2x of its solo run;
* ``aggregate_2x`` — concurrent aggregate throughput is >= 2x the
  serialized baseline (tenant compute overlaps other tenants' fetches);
* ``deterministic`` — the concurrent cell, re-run from scratch,
  reproduces every latency, byte count, and queue second exactly (the
  two cell records compare equal);
* ``tenants_on_wire`` — per-tenant accounting holds up: every tenant of
  the concurrent cell moved wire bytes (its ``ddstore.tenant`` roll-up is
  fed), and the interactive tenant's byte footprint is identical solo vs
  shared (its schedule is seeded per tenant, not per cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import client
from ..core import DataPlaneOptions, ServingOptions
from ..core.preloader import GeneratorSource
from ..graphs.ising import IsingGenerator
from ..hardware import get_machine
from ..mpi import run_world
from ..mpi.comm import World
from ..obs import Observer
from .cells import ScaleProfile
from .reporting import render_table
from .sweep import named_checks

__all__ = ["TenantSpec", "ablation_serving", "run_serving_cell"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant job: its QoS class, per-step shape, and epoch budget.

    ``compute_s`` is the modelled per-step training compute (forward +
    backward + optimizer): the time the tenant is off the wire, which is
    exactly what concurrent tenants overlap and a serialized store
    cannot.
    """

    name: str
    qos: str
    batch_size: int
    steps: int
    compute_s: float


def _tenant_job(ctx, session, spec: TenantSpec, n_samples: int, seed: int,
                t_index: int, out: dict):
    """One tenant's training loop on one rank (an engine process).

    Every step draws this rank's batch shard from the tenant's own
    sample schedule (seeded per tenant — independent epoch schedules),
    fetches it through the tenant's session, then models step compute.
    """
    rng = np.random.default_rng((seed, t_index, ctx.rank))
    latencies = []
    fetched = 0
    t_begin = ctx.now
    for _step in range(spec.steps):
        idx = rng.integers(0, n_samples, size=spec.batch_size)
        t0 = ctx.now
        yield from session.get_samples(idx, decode=False)
        latencies.append(ctx.now - t0)
        fetched += int(idx.size)
        yield ctx.engine.timeout(spec.compute_s)
    out[spec.name] = dict(
        latencies=latencies,
        n_samples=fetched,
        elapsed=ctx.now - t_begin,
        queue_seconds=session.lane.queue_seconds,
    )


def _rank_main_serving(ctx, tenants, mode: str, n_samples: int, width: int,
                       serving: ServingOptions, cache_bytes: int, seed: int):
    source = GeneratorSource(IsingGenerator(n_samples, seed=seed), ctx.world.machine)
    service = yield from client.serve(
        ctx.comm,
        source,
        width=width,
        dataplane=DataPlaneOptions(cache_bytes=cache_bytes),
        serving=serving,
    )
    sessions = {t.name: service.connect(t.name, qos=t.qos) for t in tenants}
    out: dict = {}
    yield from ctx.comm.barrier()
    t_begin = ctx.now
    if mode == "concurrent":
        procs = [
            ctx.engine.process(
                _tenant_job(ctx, sessions[t.name], t, n_samples, seed, i, out),
                name=f"{t.name}@{ctx.rank}",
            )
            for i, t in enumerate(tenants)
        ]
        yield ctx.engine.all_of(procs)
    else:  # serialized: the no-serving-layer baseline, one job at a time
        for i, t in enumerate(tenants):
            yield from _tenant_job(ctx, sessions[t.name], t, n_samples, seed, i, out)
            yield from ctx.comm.barrier()  # next job starts store-wide idle
    window = ctx.now - t_begin
    yield from ctx.comm.barrier()
    service.close()
    return dict(window=window, tenants=out)


def run_serving_cell(
    tenants,
    *,
    mode: str = "concurrent",
    n_nodes: int = 1,
    machine: str = "perlmutter",
    n_samples: int = 96,
    width: int = 2,
    serving: Optional[ServingOptions] = None,
    cache_bytes: int = 2 << 20,
    seed: int = 0,
) -> dict:
    """Simulate one serving cell; aggregate per-tenant and store-wide."""
    spec = get_machine(machine)
    world = World(spec, n_nodes, seed=seed)
    observer = Observer(trace=False)
    world.attach_observer(observer)
    serving = serving if serving is not None else ServingOptions()
    job = run_world(
        spec, n_nodes, _rank_main_serving,
        tenants, mode, n_samples, width, serving, cache_bytes, seed,
        seed=seed, world=world,
    )
    per_rank = job.results
    window = max(r["window"] for r in per_rank)
    m = observer.metrics
    tenant_wire = m.sum_by("ddstore.tenant", "tenant", "counter")
    cell: dict = {"mode": mode, "window": window, "tenants": {}}
    total = 0
    for t in tenants:
        lats = np.concatenate([r["tenants"][t.name]["latencies"] for r in per_rank])
        n = sum(r["tenants"][t.name]["n_samples"] for r in per_rank)
        total += n
        cell["tenants"][t.name] = dict(
            qos=t.qos,
            n_samples=n,
            p50=float(np.percentile(lats, 50)),
            p99=float(np.percentile(lats, 99)),
            mean=float(lats.mean()),
            elapsed=max(r["tenants"][t.name]["elapsed"] for r in per_rank),
            queue_seconds=sum(r["tenants"][t.name]["queue_seconds"] for r in per_rank),
            wire_bytes=int(tenant_wire.get((t.name, "wire_bytes"), 0)),
        )
    cell["total_samples"] = total
    cell["throughput"] = total / window if window else 0.0
    return cell


def _scaled(profile: ScaleProfile):
    """Cell sizes per scale profile: node count, sample pool, step count."""
    if profile.name == "tiny":
        return dict(n_nodes=1, n_samples=96, steps=8)
    return dict(
        n_nodes=max(2, profile.perlmutter_nodes // 4),
        n_samples=512,
        steps=max(12, 4 * profile.steps_per_epoch),
    )


def ablation_serving(profile: ScaleProfile):
    """Multi-tenant serving: QoS isolation + aggregate throughput.

    One interactive tenant (small batches, weight 4) against three batch
    tenants (large batches, weight 1), all on one store.  See the module
    docstring for the three cells and checks.
    """
    size = _scaled(profile)
    serving = ServingOptions(
        max_tenants=4,
        qos=(("interactive", 4), ("batch", 1)),
        drr_quantum_bytes=8 << 10,
        target_inflight_bytes=16 << 10,
        max_inflight_bytes=256 << 10,
    )
    steps = size["steps"]
    small = TenantSpec("fg-infer", "interactive", batch_size=4, steps=2 * steps,
                       compute_s=1.5e-3)
    larges = tuple(
        TenantSpec(f"bg-train{i}", "batch", batch_size=16, steps=steps,
                   compute_s=4e-3)
        for i in range(3)
    )
    kw = dict(
        n_nodes=size["n_nodes"],
        n_samples=size["n_samples"],
        serving=serving,
    )

    solo = run_serving_cell([small], mode="concurrent", **kw)
    concurrent = run_serving_cell([small, *larges], mode="concurrent", **kw)
    serialized = run_serving_cell([small, *larges], mode="serialized", **kw)
    rerun = run_serving_cell([small, *larges], mode="concurrent", **kw)

    p99_solo = solo["tenants"][small.name]["p99"]
    p99_conc = concurrent["tenants"][small.name]["p99"]
    checks = named_checks(
        qos_isolation=p99_conc <= 1.2 * p99_solo,
        aggregate_2x=concurrent["throughput"] >= 2.0 * serialized["throughput"],
        deterministic=concurrent == rerun,
        tenants_on_wire=all(t["wire_bytes"] > 0 for t in concurrent["tenants"].values())
        and concurrent["tenants"][small.name]["wire_bytes"]
        == solo["tenants"][small.name]["wire_bytes"],
    )
    data = dict(
        cells=dict(solo=solo, concurrent=concurrent, serialized=serialized),
        p99_small_solo=p99_solo,
        p99_small_concurrent=p99_conc,
        isolation_ratio=p99_conc / p99_solo if p99_solo else float("inf"),
        aggregate_speedup=(
            concurrent["throughput"] / serialized["throughput"]
            if serialized["throughput"]
            else float("inf")
        ),
        checks=checks,
    )

    rows = []
    for cell_name, cell in data["cells"].items():
        for tname, t in cell["tenants"].items():
            rows.append(
                [
                    cell_name,
                    tname,
                    t["qos"],
                    f"{t['n_samples']:,}",
                    f"{t['p50'] * 1e3:.3f}",
                    f"{t['p99'] * 1e3:.3f}",
                    f"{t['queue_seconds'] * 1e3:.3f}",
                    f"{t['wire_bytes'] / 1e6:.2f}",
                ]
            )
        rows.append(
            [
                cell_name,
                "(aggregate)",
                "",
                f"{cell['total_samples']:,}",
                "",
                "",
                "",
                f"{cell['throughput']:,.0f} samples/s",
            ]
        )
    text = render_table(
        ["cell", "tenant", "qos", "samples", "p50 (ms)", "p99 (ms)", "queue (ms)", "wire (MB)"],
        rows,
        title=(
            "Ablation — multi-tenant serving: 1 interactive + 3 batch tenants on one store\n"
            f"isolation {data['isolation_ratio']:.2f}x (bar 1.2x), "
            f"aggregate {data['aggregate_speedup']:.2f}x vs serialized (bar 2x)"
        ),
    )
    return text, data
