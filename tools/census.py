"""Call census: which ``src/repro`` functions does no drive ever enter?

Usage (no flags; ~3 min on a 2-core host)::

    python3 tools/census.py

Runs a fixed list of drives — the six examples, ``bench all`` and
``ablation all`` at tiny scale, the seven ``trace`` cells,
``perf/run.py --smoke`` (its child processes included) and ``python -m
repro dataplane`` — each as a subprocess with a temporary
``sitecustomize.py`` first on ``PYTHONPATH``.  That hook installs
``sys.setprofile`` / ``threading.setprofile``, records every code object
entered whose file lies under ``src/repro``, and dumps the set at exit.
Report files, traces and ledgers go to a temporary directory, so nothing
tracked is written.

It then parses every module under ``src/repro`` and prints each function
(``def``, nested ones included) that no drive entered, per file, as
``line  qualname  body-lines`` (``end_lineno - lineno + 1``), the
totals, and the line count of ``src/repro`` (every module's lines).
The result lists candidates, not verdicts: grep each one (a
test may be its only caller on purpose) before deleting it.

A second report follows: the paper drives alone (``bench all`` at tiny
scale and ``perf/run.py --smoke`` on the ``paper_default`` and
``file_baseline`` workloads) through the same hook.  Per subpackage it
prints the body lines those drives enter out of the body lines of the
modules they import, then how many ``repro`` modules a tiny paper cell
(DDStore, PFF and CFF) loads.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "repro")

TRACE_CELLS = ("fig5", "fig9", "resilience", "columnar", "tiered", "p2p", "nodeagg")
EXAMPLES = (
    "quickstart", "compare_formats", "elastic_reshard",
    "width_tuning", "multitask_heads", "train_homo_lumo",
)

# Written as ``sitecustomize.py`` into the temp dir; every Python process
# started with that dir on PYTHONPATH imports it before ``__main__``.
HOOK = textwrap.dedent(
    """
    import atexit, json, os, sys, threading

    _PKG = os.environ["CENSUS_PKG"] + os.sep
    _OUT = os.environ["CENSUS_OUT"]
    _seen = set()

    def _profile(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        entered = sorted(
            {(c.co_filename, c.co_firstlineno) for c in _seen if c.co_filename.startswith(_PKG)}
        )
        modules = sorted(
            f for f in (getattr(m, "__file__", None) for m in list(sys.modules.values()))
            if f and f.startswith(_PKG)
        )
        path = os.path.join(_OUT, f"entered_{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(dict(entered=entered, modules=modules), fh)

    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    """
)


def drives(tmp: str) -> list[list[str]]:
    """The fixed drive list, every output pointed into ``tmp``."""
    py = sys.executable
    cmds = [[py, os.path.join(ROOT, "examples", f"{name}.py")] for name in EXAMPLES]
    cmds.append([py, "-m", "repro", "bench", "all", "--scale", "tiny", "--check"])
    cmds.append([py, "-m", "repro", "ablation", "all", "--scale", "tiny", "--check"])
    for cell in TRACE_CELLS:
        out = os.path.join(tmp, f"trace_{cell}.json")
        cmds.append([py, "-m", "repro", "trace", cell, "--scale", "tiny", "--check", "--out", out])
    cmds.append([py, os.path.join(ROOT, "perf", "run.py"), "--smoke",
                 "--out", os.path.join(tmp, "smoke.json")])
    cmds.append([py, "-m", "repro", "dataplane"])
    return cmds


# The tiny paper cell whose loaded modules the second report counts.
PAPER_CELL = textwrap.dedent(
    """
    from repro.bench import PROFILES, cell, run_experiment
    for method in ("ddstore", "pff", "cff"):
        run_experiment(cell("paper", PROFILES["tiny"], method=method))
    """
)


def paper_drives(tmp: str) -> list[list[str]]:
    """The drives that run only what the paper evaluates."""
    py = sys.executable
    return [
        [py, "-m", "repro", "bench", "all", "--scale", "tiny"],
        [py, os.path.join(ROOT, "perf", "run.py"), "--smoke", "--workload", "paper_default",
         "--workload", "file_baseline", "--out", os.path.join(tmp, "paper_smoke.json")],
    ]


def run_drives(tmp: str, cmds: list[list[str]], tag: str) -> tuple[set, set]:
    """Run ``cmds`` under the hook; returns the (file, first line) of every
    code object they entered and the files of every module they loaded."""
    hook_dir = os.path.join(tmp, "hook")
    out_dir = os.path.join(tmp, f"entered_{tag}")
    os.makedirs(hook_dir, exist_ok=True)
    os.makedirs(out_dir)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
        fh.write(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([hook_dir, SRC])
    env["CENSUS_PKG"] = PKG
    env["CENSUS_OUT"] = out_dir
    env["REPRO_RESULTS_DIR"] = os.path.join(tmp, "results")
    for cmd in cmds:
        label = " ".join(os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in cmd[1:])
        print(f"# drive: {label}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise SystemExit(f"drive failed (exit {proc.returncode}): {label}")
    entered: set[tuple[str, int]] = set()
    modules: set[str] = set()
    for path in glob.glob(os.path.join(out_dir, "entered_*.json")):
        with open(path) as fh:
            dump = json.load(fh)
        entered.update((f, n) for f, n in dump["entered"])
        modules.update(dump["modules"])
    return entered, modules


def functions(path: str):
    """Every ``def`` in a module: (first line as the code object sees it,
    def line, qualname, body lines), and the module's line count."""
    with open(path) as fh:
        text = fh.read()
    tree = ast.parse(text, path)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.lineno, qual, child.end_lineno - child.lineno + 1))
                visit(child, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found, text.count("\n")


def subpackage(path: str) -> str:
    """``core`` for ``src/repro/core/store.py``; ``repro`` for a top-level module."""
    parts = os.path.relpath(path, PKG).split(os.sep)
    return parts[0] if len(parts) > 1 else "repro"


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="census_") as tmp:
        entered, _ = run_drives(tmp, drives(tmp), "all")
        paper_entered, paper_modules = run_drives(tmp, paper_drives(tmp), "paper")
        script = os.path.join(tmp, "paper_cell.py")
        with open(script, "w") as fh:
            fh.write(PAPER_CELL)
        _, cell_modules = run_drives(tmp, [[sys.executable, script]], "cell")
    total_fns = total_lines = src_lines = 0
    never_fns = never_lines = 0
    paper: dict[str, list[int]] = {}  # subpackage -> [entered, imported] body lines
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        found, n_lines = functions(path)
        src_lines += n_lines
        missing = []
        for first, line, qual, body in found:
            total_fns += 1
            total_lines += body
            if (path, first) not in entered:
                missing.append((line, qual, body))
        if missing:
            print(os.path.relpath(path, ROOT))
            for line, qual, body in missing:
                print(f"  {line:5d}  {qual}  {body}")
            never_fns += len(missing)
            never_lines += sum(body for _, _, body in missing)
        if path in paper_modules:
            row = paper.setdefault(subpackage(path), [0, 0])
            row[0] += sum(body for first, _, _, body in found if (path, first) in paper_entered)
            row[1] += sum(body for *_, body in found)
    print(
        f"never entered: {never_fns} of {total_fns} functions, "
        f"{never_lines} of {total_lines} body lines"
    )
    print(f"src/repro: {src_lines} lines")
    print("paper drives: body lines entered of the modules they import")
    paper["total"] = [sum(col) for col in zip(*paper.values())]
    for name, (hit, lines) in paper.items():
        print(f"  {name:10s} {hit:6d} of {lines:6d}  {100 * hit / max(1, lines):3.0f} %")
    print(f"paper cell (ddstore, pff, cff at tiny): {len(cell_modules)} repro modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
