#!/usr/bin/env python3
"""Compare two ledger outputs under the bounds fixed in BENCHMARK.json.

    python3 perf/compare.py A.json B.json [--require-identical]

``A`` is the base (the parent commit, or the first of two sets of the same
code), ``B`` the candidate.  One row per (workload, end-to-end metric): both
values, the ratio B/A (base A), and a verdict:

* ``same``        B is within the bound of A
* ``better``      B beats A by more than the bound
* ``worse``       B is worse than A by more than the bound
* ``unresolved``  a host-clock metric whose own spread (``bench.wall_iqr_s``
  over ``wall_s``) exceeds the bound, or measured on a loaded host: the data
  cannot tell ``same`` from ``worse``

Virtual-clock metrics and ``sim.events`` are also checked for exact equality.
Two sets of the *same* code must agree exactly (``--require-identical``, what
``run.py --selfcheck`` passes): any difference is a determinism break.
Exit status is non-zero on any ``worse`` row or determinism break.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["compare", "verdict"]

HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def verdict(a: float, b: float, better: str, bound: float) -> str:
    """``same`` / ``better`` / ``worse`` for candidate ``b`` against base ``a``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if a == b:
        return "same"
    if better == "higher":
        a, b = -a, -b
    slack = bound * abs(a)
    if b > a + slack:
        return "worse"
    if b < a - slack:
        return "better"
    return "same"


def _loaded(entry: dict) -> bool:
    """The measuring pass started on a host busier than its cores."""
    return bool(entry.get("report_t0", {}).get("host_unresolved"))


def _wall_spread(entry: dict) -> float:
    """Inter-quartile distance of this set's timed repeats as a share of wall_s."""
    report = entry.get("report_t0", {})
    wall = entry["end_to_end"]["wall_s"]["value"]
    return (report.get("wall_q3", wall) - report.get("wall_q1", wall)) / wall if wall else 0.0


def compare(a: dict, b: dict, bench: dict, require_identical: bool = False, out=sys.stdout) -> int:
    """Print the table; returns the process exit status."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    failures = 0
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, spec in bounds.items():
            va = wa["end_to_end"][metric]["value"]
            vb = wb["end_to_end"][metric]["value"]
            row_verdict = verdict(va, vb, spec["better"], spec["bound"])
            if metric in HOST_METRICS:
                noisy = _loaded(wa) or _loaded(wb) or (
                    metric == "wall_s" and max(_wall_spread(wa), _wall_spread(wb)) > spec["bound"]
                )
                if noisy and row_verdict != "better":
                    row_verdict = "unresolved"
                identical = ""
            else:
                identical = "yes" if va == vb else "NO"
                if require_identical and va != vb:
                    row_verdict = "determinism-break"
            if row_verdict in ("worse", "determinism-break"):
                failures += 1
            ratio = vb / va if va else float("inf")
            rows.append((name, metric, spec["unit"], va, vb, ratio, identical, row_verdict))
        ea = wa.get("per_layer", {}).get("sim.events")
        eb = wb.get("per_layer", {}).get("sim.events")
        if ea is not None and eb is not None:
            same = ea["value"] == eb["value"]
            row_verdict = "same" if same else (
                "determinism-break" if require_identical else "changed")
            failures += row_verdict == "determinism-break"
            rows.append((name, "sim.events", "count", ea["value"], eb["value"],
                         eb["value"] / ea["value"] if ea["value"] else float("inf"),
                         "yes" if same else "NO", row_verdict))
        for label, w in (("A", wa), ("B", wb)):
            for key in ("report_t0", "report_t1"):
                if key in w and not w[key].get("correct", True):
                    failures += 1
                    print(f"!! {name}: set {label} {key} reported correct=false: "
                          f"{w[key].get('checks')}", file=out)
    header = ("workload", "metric", "unit", "A", "B", "B/A", "identical", "verdict")
    print("{:14s} {:24s} {:6s} {:>16s} {:>16s} {:>8s} {:>9s}  {}".format(*header), file=out)
    for name, metric, unit, va, vb, ratio, identical, row_verdict in rows:
        print(f"{name:14s} {metric:24s} {unit:6s} {va:16.6g} {vb:16.6g} {ratio:8.4f} "
              f"{identical:>9s}  {row_verdict}", file=out)
    print(f"# base of every ratio: A; {failures} failing row(s)", file=out)
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="base output (parent commit / first set)")
    ap.add_argument("b", help="candidate output (change / second set)")
    ap.add_argument("--require-identical", action="store_true",
                    help="treat any virtual-clock difference as a determinism break")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    return compare(a, b, bench, require_identical=args.require_identical)


if __name__ == "__main__":
    sys.exit(main())
