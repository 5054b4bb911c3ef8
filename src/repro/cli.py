"""Command-line interface: regenerate any table, figure, or ablation.

Usage::

    python -m repro list                      # what can be regenerated
    python -m repro bench fig4 table2         # paper tables and figures
    python -m repro bench all [--scale small] # the whole paper evaluation
    python -m repro ablation serving --check  # repo ablations (short names ok)
    python -m repro trace fig5 [--check]      # traced run + Chrome export
    python -m repro machines                  # calibrated machine specs
    python -m repro datasets [--samples 100]  # dataset statistics

Reports (text + JSON) are written to ``bench_results/`` (override with
``REPRO_RESULTS_DIR``), each named after its driver function
(``bench fig4`` writes ``fig4_speedup.{txt,json}``); scale via
``--scale`` or ``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .bench import ScaleProfile, current_profile, write_report
from .bench.experiments import table1_datasets
from .bench.registry import EXPERIMENTS as REGISTRY
from .bench.registry import Experiment
from .core.config import _check
from .obs import TRACEABLE

# Key -> Experiment, derived from the one registry (repro.bench.registry).
BENCHES: dict[str, Experiment] = {x.key: x for x in REGISTRY if x.kind == "bench"}
ABLATIONS: dict[str, Experiment] = {x.key: x for x in REGISTRY if x.kind == "ablation"}
# The union `list` prints.
EXPERIMENTS: dict[str, Experiment] = {**BENCHES, **ABLATIONS}


def _resolve(name: str, table: dict[str, Experiment]) -> Optional[str]:
    """Canonical experiment key for a (possibly short) CLI spelling:
    ``serving`` -> ``ablation-serving``."""
    if name in table:
        return name
    if f"ablation-{name}" in table:
        return f"ablation-{name}"
    return None


def _profile(args: argparse.Namespace) -> Optional[ScaleProfile]:
    """The scale profile ``--scale`` (else ``REPRO_BENCH_SCALE``) names,
    or None once stderr says why there is none (the caller exits 2)."""
    if getattr(args, "scale", None):
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    try:
        return current_profile()
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


def _run_experiments(names: list[str], table: dict, args: argparse.Namespace) -> int:
    """The one experiment runner behind ``bench`` and ``ablation``."""
    profile = _profile(args)
    if profile is None:
        return 2
    if "all" in names:
        resolved = list(table)
    else:
        resolved, unknown = [], []
        for n in names:
            key = _resolve(n, table)
            (resolved if key else unknown).append(key or n)
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(table)}", file=sys.stderr)
            return 2
    failed: list[str] = []
    for name in resolved:
        experiment = table[name]
        print(f"== {name}: {experiment.description} (scale profile: {profile.name}) ==")
        text, data = experiment.driver(profile)
        write_report(experiment.driver.__name__, text, data)
        if args.check:
            checks = data.get("checks", {})
            bad = [k for k, ok in checks.items() if not ok] if checks else ["no checks"]
            if bad:
                print(f"[check] {name} FAILED: {', '.join(bad)}", file=sys.stderr)
                failed.append(name)
            else:
                print(f"[check] {name}: all {len(checks)} check(s) pass")
    return 1 if failed else 0


def _add_run_flags(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument("names", nargs="+", help=f"{what} names, or 'all'")
    p.add_argument("--scale", choices=["tiny", "small", "paper"], default=None)
    p.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if an experiment's self-checks (data['checks']) fail",
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for heading, table in (
        ("paper benches (python -m repro bench <name>):", BENCHES),
        ("\nablations (python -m repro ablation <name>):", ABLATIONS),
    ):
        print(f"{heading}\n")
        for key, experiment in table.items():
            print(f"  {key.ljust(width)}  {experiment.description}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    return _run_experiments(args.names, BENCHES, args)


def _cmd_ablation(args: argparse.Namespace) -> int:
    return _run_experiments(args.names, ABLATIONS, args)


def _cmd_machines(_args: argparse.Namespace) -> int:
    from .hardware import MACHINES

    for name, spec in MACHINES.items():
        print(f"{name}:")
        print(f"  GPUs/node            {spec.gpus_per_node} x {spec.gpu.name}")
        print(f"  DRAM/node            {spec.mem_per_node_bytes / 2**30:.0f} GiB")
        print(f"  NIC                  {spec.nic.bandwidth_Bps / 1e9:.0f} GB/s, {spec.nic.latency_s * 1e6:.1f} us")
        print(f"  PFS                  {spec.pfs.name}: {spec.pfs.n_osts} OSTs, {spec.pfs.n_metadata_servers} MDS")
        nvme = "none" if spec.nvme is None else f"{spec.nvme.capacity_bytes / 1e12:.1f} TB/node"
        print(f"  node-local NVMe      {nvme}")
        print(f"  RMA software path    {spec.rma_software_overhead_s * 1e6:.0f} us remote / {spec.rma_software_local_s * 1e6:.0f} us shared-mem")
        print()
    return 0


def _count(text: str) -> int:
    """argparse type of a sample count: an integer of at least 1."""
    value = int(text)
    _check("samples", value)  # argparse turns its ValueError into exit 2
    return value


def _cmd_datasets(args: argparse.Namespace) -> int:
    profile = _profile(args)
    if profile is None:
        return 2
    text, _data = table1_datasets(profile, sample_n=args.samples)
    print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .bench.reporting import results_dir
    from .obs import run_traced, trace_json_bytes, validate_chrome_trace

    if args.name not in TRACEABLE:
        print(f"unknown traceable experiment: {args.name}", file=sys.stderr)
        width = max(len(k) for k in TRACEABLE)
        for key, (*_cell, desc) in TRACEABLE.items():
            print(f"  {key.ljust(width)}  {desc}", file=sys.stderr)
        return 2
    profile = _profile(args)
    if profile is None:
        return 2
    print(
        f"== trace {args.name}: {TRACEABLE[args.name][-1]} "
        f"(scale profile: {profile.name}) =="
    )
    run = run_traced(args.name, profile)
    payload = trace_json_bytes(run.chrome)
    out = args.out or os.path.join(results_dir(), f"trace_{args.name}.json")
    with open(out, "wb") as fh:
        fh.write(payload)
    print(run.render())
    print(f"\n[chrome trace written to {out} — open in ui.perfetto.dev]")
    if not run.report.ok:
        print(
            f"critical-path invariant VIOLATED on "
            f"{len(run.report.violations())} epoch(s)",
            file=sys.stderr,
        )
        return 1
    if args.check:
        with open(out, "rb") as fh:
            written = fh.read()
        problems = validate_chrome_trace(json.loads(written))
        # Determinism: an identical rerun must serialise byte-identically.
        rerun = run_traced(args.name, profile)
        checks = {
            "file_is_a_valid_chrome_trace": written == payload and not problems,
            "export_is_deterministic": trace_json_bytes(rerun.chrome) == payload,
        }
        bad = [k for k, ok in checks.items() if not ok]
        if bad:
            print(f"[check] trace {args.name} FAILED: {', '.join(bad)}", file=sys.stderr)
            for problem in problems[:5]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"[check] {out}: {len(run.chrome['traceEvents'])} events, shape valid, "
            "invariant holds, export deterministic"
        )
    return 0


def _cmd_dataplane(_args: argparse.Namespace) -> int:
    from .dataplane import TRANSPORTS

    print("data-plane transports:\n")
    for name, cls in TRANSPORTS.items():
        coal = "yes" if cls.supports_coalescing else "no"
        print(f"  {name.ljust(12)}  {cls.__module__}.{cls.__name__}  (coalescing: {coal})")
    print("\nselect with DDStore.create(..., dataplane=DataPlaneOptions(framework=<name>))")
    return 0


# ---------------------------------------------------------------------------
# subcommand registry (one declarative table instead of an if/elif ladder)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI subcommand: its spelling(s), flags, and runner."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    configure: Optional[Callable[[argparse.ArgumentParser], None]] = None
    aliases: tuple = ()


COMMANDS: tuple[Command, ...] = (
    Command("list", "list available experiments", _cmd_list, aliases=("ls",)),
    Command(
        "bench",
        "run paper tables/figures (fig4..fig13, table1..table3)",
        _cmd_bench,
        configure=lambda p: _add_run_flags(p, "bench"),
    ),
    Command(
        "ablation",
        "run repo ablations ('serving' == 'ablation-serving')",
        _cmd_ablation,
        configure=lambda p: _add_run_flags(p, "ablation"),
    ),
    Command(
        "trace",
        "run one experiment traced; export Chrome trace JSON",
        _cmd_trace,
        configure=lambda p: (
            p.add_argument("name", help=f"traceable experiment ({', '.join(TRACEABLE)})"),
            p.add_argument("--scale", choices=["tiny", "small", "paper"], default=None),
            p.add_argument("--out", default=None, help="output path for the trace JSON"),
            p.add_argument(
                "--check",
                action="store_true",
                help="also re-read and shape-validate the written file, and rerun to verify "
                "the export is bit-deterministic",
            ),
        )
        and None,
    ),
    Command("machines", "show calibrated machine models", _cmd_machines),
    Command(
        "datasets",
        "dataset statistics (Table 1)",
        _cmd_datasets,
        configure=lambda p: p.add_argument("--samples", type=_count, default=100) and None,
    ),
    Command("dataplane", "list the data-plane transports", _cmd_dataplane),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DDStore reproduction: regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, aliases=list(cmd.aliases), help=cmd.help)
        if cmd.configure is not None:
            cmd.configure(p)
        p.set_defaults(fn=cmd.run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
