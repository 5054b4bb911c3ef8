"""The experiment registry: every regenerable artifact, once.

``python -m repro list|bench|ablation``, ``repro.bench``'s driver exports
and the parametrised ``benchmarks/bench_experiments.py`` are all derived
from :data:`EXPERIMENTS`.  A driver takes a scale profile and returns
``(text, data)`` with a non-empty ``data["checks"]``; its report is
``bench_results/<driver.__name__>.{txt,json}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import ablations as a
from . import experiments as e
from .cells import ScaleProfile
from .elastic import ablation_elastic
from .serving import ablation_serving

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    key: str  # CLI spelling (ablations also answer to the part after "ablation-")
    kind: str  # "bench" (a paper table/figure) or "ablation"
    driver: Callable[[ScaleProfile], tuple[str, dict]]
    description: str


_PAPER = (
    ("table1", e.table1_datasets, "dataset description (paper Table 1)"),
    ("fig4", e.fig4_speedup, "normalized end-to-end speedup"),
    ("fig5", e.fig5_breakdown, "training time breakdown, 64 GPUs Perlmutter"),
    ("fig6", e.fig6_latency_cdf, "graph loading latency CDF"),
    ("table2", e.table2_percentiles, "loading latency percentiles"),
    ("fig7", e.fig7_profile, "Score-P-style profile"),
    ("fig8", e.fig8_scaling, "scaling, fixed per-GPU batch"),
    ("fig9", e.fig9_function_breakdown, "function durations across scales"),
    ("fig10", e.fig10_global_batch, "scaling, fixed global batch"),
    ("fig11", e.fig11_width, "width parameter sweep"),
    ("fig12", e.fig12_width_cdf, "width CDF, default vs width=2"),
    ("table3", e.table3_width_median, "width median latency reduction"),
    ("fig13", e.fig13_convergence, "training convergence (real numerics)"),
)

_ABLATIONS = (
    ("dataplane", a.ablation_dataplane, "RMA vs two-sided p2p"),
    ("coalescing", a.ablation_coalescing, "fetch coalescing + hot-sample cache"),
    ("prefetch", a.ablation_prefetch, "epoch-ahead scheduler: depth-k x waves x eviction"),
    ("columnar", a.ablation_columnar, "row decode vs zero-copy columnar arena scatter"),
    ("tiered", a.ablation_tiered, "tiered cache hierarchy gpu/dram/nvme/pfs"),
    ("serving", ablation_serving, "multi-tenant serving: QoS isolation + aggregate throughput"),
    ("shuffle", a.ablation_shuffle, "global vs local shuffle"),
    ("nvme", a.ablation_nvme, "NVMe staging vs DDStore"),
    ("workers", a.ablation_workers, "loader-worker sensitivity"),
    ("cache", a.ablation_cache, "page-cache warm vs cold"),
    ("conv", a.ablation_conv_policy, "message-passing policy PNA/GIN/SAGE"),
    ("resilience", a.ablation_resilience, "straggler fault + retry/failover recovery"),
    ("elastic", ablation_elastic, "online elastic width retuning under a straggler"),
    ("nodeagg", a.ablation_nodeagg, "node-aggregated wave fetch: leader wire reads + intra-node fan-out"),
)

EXPERIMENTS: tuple[Experiment, ...] = tuple(
    [Experiment(key, "bench", fn, desc) for key, fn, desc in _PAPER]
    + [Experiment(f"ablation-{key}", "ablation", fn, desc) for key, fn, desc in _ABLATIONS]
)
