"""Ablation — fetch resilience under an injected 10x straggler rank.

Three cells on a width-2 DDStore (N/2 replica groups, several per node):
fault-free baseline, straggler with failover off (nowhere else to go, so
every read to the slow peer is waited out unbounded — no timeouts), and
straggler with failover on (the peer is marked suspect at the first
timeout and reads are steered to the nearest healthy replica's owner,
normally on the same node).  Checks the acceptance bar: failover cuts the latency tail the
straggler grew and recovers at least half of any throughput it cost,
reruns are bit-deterministic, and the fetched byte counts match the
fault-free run.
"""

from conftest import run_once

from repro.bench import write_report
from repro.bench.ablations import ablation_resilience


def test_ablation_resilience(benchmark, profile):
    text, data = run_once(benchmark, ablation_resilience, profile)
    write_report("ablation_resilience", text, data)

    base = data["baseline (no fault)"]
    off = data["straggler, failover off"]
    on = data["straggler, failover on"]

    # The straggler must actually hurt — the tail always, throughput where
    # prefetch cannot hide it — and the resilience path must fire, only
    # where a read has somewhere better to go.
    assert off["p99"] > 2 * base["p99"]
    assert off["throughput"] <= base["throughput"]
    assert on["p99"] < off["p99"]  # failover cuts the tail the straggler grew
    assert off["counters"]["n_timeouts"] == 0
    assert on["counters"]["n_timeouts"] > 0
    assert on["counters"]["n_failovers"] >= on["counters"]["n_retries"]  # + steered reads

    # Failover recovers >= 50% of the throughput the straggler cost.
    assert data["recovered_fraction"] >= 0.5

    # Faults may change timing, never bytes: every cell fetched the same
    # remote sample set as the fault-free run.
    assert data["bytes_match_baseline"]

    # Bit-determinism: re-simulating the failover-on cell reproduces its
    # throughput and latency tail exactly.
    from repro.bench import run_experiment
    from repro.bench.ablations import RESILIENCE_TIMEOUT_S, _base_cfg
    from dataclasses import replace

    cfg = _base_cfg(
        profile,
        method="ddstore",
        epochs=1,
        fault_plan="straggler-10x",
        timeout_s=RESILIENCE_TIMEOUT_S,
        failover=True,
    )
    cfg = replace(cfg, width=2)
    rerun = run_experiment(cfg)
    assert rerun.throughput == on["throughput"]
    assert rerun.fetch_counters["n_failovers"] == on["counters"]["n_failovers"]
