"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import ABLATIONS, BENCHES, EXPERIMENTS, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig4", "table2", "fig13", "ablation-nvme"):
        assert name in out


def test_machines_command(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "summit" in out and "perlmutter" in out
    assert "1.6 TB/node" in out  # Summit burst buffer
    assert "none" in out  # Perlmutter has no node-local NVMe


def test_datasets_command(capsys):
    assert main(["datasets", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "Ising" in out and "AISD" in out


def test_experiment_registry_complete():
    # Every paper table/figure is runnable from the CLI.
    for key in ("table1", "table2", "table3") + tuple(f"fig{i}" for i in range(4, 14)):
        assert key in EXPERIMENTS


def test_bench_and_ablation_registries_split_the_union():
    assert set(EXPERIMENTS) == set(BENCHES) | set(ABLATIONS)
    assert not set(BENCHES) & set(ABLATIONS)
    assert "ablation-serving" in ABLATIONS and "ablation-serving" not in BENCHES


def test_bench_subcommand_rejects_ablation_names(capsys):
    # The split registries are enforced: ablations are not benches.
    assert main(["bench", "ablation-serving"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bench_subcommand_runs_a_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert main(["bench", "table1"]) == 0
    assert os.path.exists(tmp_path / "table1_datasets.txt")
    assert "Table 1" in capsys.readouterr().out


def test_reports_are_named_after_their_driver(monkeypatch):
    """One name per artifact: whatever key the CLI was given, the report
    is ``<driver.__name__>.{txt,json}`` — the name ``benchmarks/`` writes
    and ``bench_results/`` commits."""
    import functools

    import repro.cli as cli

    written = []
    monkeypatch.setattr(cli, "write_report", lambda name, text, data: written.append(name))
    for command, table in (("bench", BENCHES), ("ablation", ABLATIONS)):
        drivers = [fn.__name__ for fn, _desc in table.values()]
        for key, (fn, desc) in table.items():
            stub = functools.wraps(fn)(lambda *args: ("", {}))
            monkeypatch.setitem(table, key, (stub, desc))
        written.clear()
        assert main([command, "all"]) == 0
        assert written == drivers
        committed = os.path.join(os.path.dirname(__file__), "..", "bench_results")
        assert all(os.path.exists(os.path.join(committed, f"{name}.json")) for name in written)


def test_ablation_short_names_resolve(capsys):
    # `ablation serving` resolves to `ablation-serving` — the unknown-name
    # path proves resolution happens before rejection.
    assert main(["ablation", "not-an-ablation"]) == 2
    err = capsys.readouterr().err
    assert "ablation-serving" in err  # listed as available


def test_run_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "table1"])
    assert exc.value.code == 2
    assert "invalid choice: 'run'" in capsys.readouterr().err


def test_ls_alias_for_list(capsys):
    assert main(["ls"]) == 0
    out = capsys.readouterr().out
    assert "ablation-serving" in out


def test_trace_check_rereads_and_validates_the_written_file(tmp_path, monkeypatch, capsys):
    # `--check` owns what the CI heredoc used to assert: the file on disk is
    # parsed again and shape-validated, and a failed check is exit code 1.
    import repro.obs

    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")  # restored after `--scale` sets it
    out = tmp_path / "trace.json"
    argv = ["trace", "fig5", "--scale", "tiny", "--check", "--out", str(out)]
    assert main(argv) == 0
    assert "shape valid, invariant holds, export deterministic" in capsys.readouterr().out
    assert repro.obs.validate_chrome_trace(json.loads(out.read_text())) == []

    monkeypatch.setattr(repro.obs, "validate_chrome_trace", lambda doc: ["event 0 missing name"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "file_is_a_valid_chrome_trace" in err and "event 0 missing name" in err
    assert "export_is_deterministic" not in err
