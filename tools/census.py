"""Call census: which ``src/repro`` functions does no drive ever enter?

Usage (no flags; ~3 min on a 2-core host)::

    python3 tools/census.py

Runs a fixed list of drives — the six examples, ``bench all`` and
``ablation all`` at tiny scale, the seven ``trace`` cells,
``perf/run.py --smoke`` (its child processes included), ``python -m
repro dataplane`` and the three listing commands (``datasets --samples
8``, ``list``, ``machines``) — each as a subprocess with a temporary
``sitecustomize.py`` first on ``PYTHONPATH``.  That hook installs
``sys.setprofile`` / ``threading.setprofile``, records every code object
entered whose file lies under ``src/repro``, and dumps the set at exit.
Report files, traces and ledgers go to a temporary directory, so nothing
tracked is written.  A drive that exits nonzero stops the census, except
a ``perf/run.py`` drive that still wrote its ``--out`` JSON: it finished,
so its failed checks are printed as a ``# drive`` note and the census
goes on.

It then parses every module under ``src/repro`` and prints each function
(``def``, nested ones included) that no drive entered, per file, as
``line  qualname  body-lines`` (``end_lineno - lineno + 1``), the
totals, and the line count of ``src/repro`` (every module's lines).
A function that ``perf/layers.TARGETS`` wraps is marked ``[perf]``: it
can only go with a change to the benchmark, so the totals line also
counts the unpinned ones.  The result lists candidates, not verdicts:
grep each one (a test may be its only caller on purpose) before
deleting it.

A second report follows: the paper drives alone (``bench all`` at tiny
scale and ``perf/run.py --smoke`` on the ``paper_default`` and
``file_baseline`` workloads) through the same hook.  Per subpackage it
prints the body lines those drives enter out of the body lines of the
modules they import, then how many ``repro`` modules a tiny paper cell
(DDStore, PFF and CFF) loads.

Last, an option report, read from the source alone: every defaulted
parameter (``def f(x=...)``, ``Class(x=...)`` through ``__init__``) and
defaulted public field of a frozen dataclass (a config object) in
``src/repro`` that no call in ``src``,
``perf``, ``examples``, ``benchmarks`` or ``tools`` passes, by keyword or
by position.  Calls match by function or class name, so a same-named
callee elsewhere counts too.  A call that unpacks ``**mapping`` may pass
any key some dict literal (``dict(k=...)``, ``{"k": ...}``) spells, and
so may a call to a function that forwards its ``**kwargs`` into it;
``dataclasses.replace(obj, k=...)`` sets field ``k`` of any config.
It prints the values per module and their total: candidates for
constants, not verdicts.
"""

from __future__ import annotations

import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "repro")

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


def trace_cells() -> list[str]:
    """The ``trace`` cells, as ``repro.obs.TRACEABLE`` names them."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.obs import TRACEABLE

    return list(TRACEABLE)


def drives(tmp: str) -> list[list[str]]:
    """The fixed drive list, every output pointed into ``tmp``."""
    py = sys.executable
    cmds = [[py, os.path.join(ROOT, "examples", f"{name}.py")] for name in EXAMPLES]
    cmds.append([py, "-m", "repro", "bench", "all", "--scale", "tiny", "--check"])
    cmds.append([py, "-m", "repro", "ablation", "all", "--scale", "tiny", "--check"])
    for cell in trace_cells():
        out = os.path.join(tmp, f"trace_{cell}.json")
        cmds.append([py, "-m", "repro", "trace", cell, "--scale", "tiny", "--check", "--out", out])
    cmds.append([py, os.path.join(ROOT, "perf", "run.py"), "--smoke",
                 "--out", os.path.join(tmp, "smoke.json")])
    cmds.append([py, "-m", "repro", "dataplane"])
    cmds.append([py, "-m", "repro", "datasets", "--samples", "8"])
    cmds.append([py, "-m", "repro", "list"])
    cmds.append([py, "-m", "repro", "machines"])
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


def perf_failed_checks(cmd: list[str]) -> list[str] | None:
    """The failed checks of a ``perf/run.py`` drive that wrote its ``--out``
    JSON, as ``workload/report/check``; ``None`` for any other drive, or a
    perf drive that wrote no parseable output (it did not finish).  A perf
    check can fail on a busy host (``attribution_ok`` compares host wall
    clocks), and the entered-code record is complete all the same."""
    if not cmd[1].endswith(os.path.join("perf", "run.py")) or "--out" not in cmd:
        return None
    try:
        with open(cmd[cmd.index("--out") + 1]) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None
    return [
        f"{name}/{key}/{check}"
        for name, entry in result["workloads"].items()
        for key in sorted(k for k in entry if k.startswith("report_t"))
        for check, ok in entry[key]["checks"].items()
        if not ok
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
        if proc.returncode == 0:
            continue
        failed = perf_failed_checks(cmd)
        if failed is None:
            raise SystemExit(f"drive failed (exit {proc.returncode}): {label}")
        print(f"# drive finished with failed checks (exit {proc.returncode}): "
              f"{', '.join(failed) or 'none named'}", file=sys.stderr, flush=True)
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


def perf_pinned() -> set[tuple[str, str]]:
    """(module path, qualname) of every function ``perf/layers.TARGETS`` wraps."""
    spec = importlib.util.spec_from_file_location(
        "perf_layers", os.path.join(ROOT, "perf", "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {
        (os.path.join(SRC, *module.split(".")) + ".py", qual)
        for _layer, _op, module, qual, *_ in layers.TARGETS
    }


def subpackage(path: str) -> str:
    """``core`` for ``src/repro/core/store.py``; ``repro`` for a top-level module."""
    parts = os.path.relpath(path, PKG).split(os.sep)
    return parts[0] if len(parts) > 1 else "repro"


# -- the option report ---------------------------------------------------------
# Where the option report looks for calls: everything but ``tests/``.
CALLER_DIRS = ("src", "perf", "examples", "benchmarks", "tools")


def _callee(func) -> str | None:
    """``f`` for ``f(...)`` and ``obj.f(...)``; None for anything else."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_config(cls: ast.ClassDef) -> bool:
    """A frozen dataclass: a value object, so its fields are settings (a
    mutable one holds state, e.g. counters)."""
    return any(
        isinstance(d, ast.Call) and _callee(d.func) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        for d in cls.decorator_list
    )


def defaulted(path: str) -> list[tuple[int, str, str, int | None, bool]]:
    """Every defaulted parameter and config field of a module as
    ``(line, callee, name, position, is_field)``: ``callee`` is the name a
    call spells (the class for ``__init__`` and fields), ``position`` the
    index a positional argument fills (None: keyword-only)."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_config(child):
                    fields = [
                        s for s in child.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                        and "ClassVar" not in ast.unparse(s.annotation)
                    ]
                    for i, s in enumerate(fields):
                        init_false = (
                            isinstance(s.value, ast.Call) and _callee(s.value.func) == "field"
                            and any(k.arg == "init" for k in s.value.keywords)
                        )
                        public = not s.target.id.startswith("_")
                        if s.value is not None and public and not init_false:
                            found.append((s.lineno, child.name, s.target.id, i, True))
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(_callee(d) == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static and positional:
                    positional = positional[1:]  # self / cls
                callee = cls.name if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((child.lineno, callee, arg.arg, i, False))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.append((child.lineno, callee, arg.arg, None, False))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def calls() -> tuple[dict, set]:
    """What the non-test code passes: callee -> ``[keywords, positional
    count, unpacks **]``, and the keys ``**`` may carry (dict-literal keys;
    ``replace(...)`` keywords are filed under the callee ``replace``)."""
    seen: dict[str, list] = {}
    keys: set[str] = set()
    forwards: dict[str, set[str]] = {}  # f(**kw) -> callees it hands **kw to
    paths = []
    for d in CALLER_DIRS:
        paths += glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True)
    for path in sorted(paths):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.args.kwarg:
                kw = fn.args.kwarg.arg
                for c in ast.walk(fn):
                    if isinstance(c, ast.Call) and any(
                        k.arg is None and isinstance(k.value, ast.Name) and k.value.id == kw
                        for k in c.keywords
                    ):
                        forwards.setdefault(fn.name, set()).add(_callee(c.func))
        stack = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            for child in ast.iter_child_nodes(node):
                stack.append((child, child.name if isinstance(child, ast.ClassDef) else cls))
                if isinstance(child, ast.Dict):
                    keys.update(k.value for k in child.keys if isinstance(k, ast.Constant))
                if not isinstance(child, ast.Call):
                    continue
                name = _callee(child.func)
                if name == "cls" and cls is not None:
                    name = cls
                if name is None:
                    continue
                if name == "dict":
                    keys.update(k.arg for k in child.keywords if k.arg)
                row = seen.setdefault(name, [set(), 0, False])
                row[0].update(k.arg for k in child.keywords if k.arg)
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                row[1] = max(row[1], float("inf") if starred else len(child.args))
                row[2] = row[2] or any(k.arg is None for k in child.keywords)
    # A forwarder hands the keywords of its own calls on (the forwarding
    # call itself is already recorded as one that unpacks ``**``).
    changed = True
    while changed:
        changed = False
        for fwd, targets in forwards.items():
            passed = seen.get(fwd, [set()])[0]
            for t in targets:
                row = seen.setdefault(t, [set(), 0, False])
                if not passed <= row[0]:
                    row[0] |= passed
                    changed = True
    return seen, keys


def option_report() -> list[str]:
    """The option report's lines (see the module docstring)."""
    seen, keys = calls()
    replaced = seen.get("replace", [set()])[0]
    lines, n_never, n_all = [], 0, 0
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        never = []
        for line, callee, name, pos, is_field in defaulted(path):
            n_all += 1
            kws, n_pos, opened = seen.get(callee, (set(), 0, False))
            passed = (
                name in kws
                or (pos is not None and pos < n_pos)
                or (opened and name in keys)
                or (is_field and name in replaced)
            )
            if not passed:
                never.append(f"  {line:5d}  {callee}({name})")
        if never:
            lines.append(os.path.relpath(path, ROOT))
            lines.extend(never)
            n_never += len(never)
    lines.append(f"options no call outside tests/ sets: {n_never} of {n_all} defaulted values")
    return lines


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
    pinned = perf_pinned()
    total_fns = total_lines = src_lines = 0
    never_fns = never_lines = never_pinned = 0
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
                mark = "  [perf]" if (path, qual) in pinned else ""
                never_pinned += bool(mark)
                print(f"  {line:5d}  {qual}  {body}{mark}")
            never_fns += len(missing)
            never_lines += sum(body for _, _, body in missing)
        if path in paper_modules:
            row = paper.setdefault(subpackage(path), [0, 0])
            row[0] += sum(body for first, _, _, body in found if (path, first) in paper_entered)
            row[1] += sum(body for *_, body in found)
    print(
        f"never entered: {never_fns} of {total_fns} functions "
        f"({never_fns - never_pinned} not pinned by perf), "
        f"{never_lines} of {total_lines} body lines"
    )
    print(f"src/repro: {src_lines} lines")
    print("paper drives: body lines entered of the modules they import")
    paper["total"] = [sum(col) for col in zip(*paper.values())]
    for name, (hit, lines) in paper.items():
        print(f"  {name:10s} {hit:6d} of {lines:6d}  {100 * hit / max(1, lines):3.0f} %")
    print(f"paper cell (ddstore, pff, cff at tiny): {len(cell_modules)} repro modules")
    print("\n".join(option_report()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
