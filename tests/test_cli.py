"""Tests for the command-line interface."""

import dataclasses
import json
import os
import sys

import pytest

import repro.bench.registry
import repro.cli as cli
from repro.cli import ABLATIONS, BENCHES, EXPERIMENTS, main

COMMITTED = os.path.join(os.path.dirname(__file__), "..", "bench_results")


def _stub_drivers(monkeypatch, table, data):
    """Replace every driver of a CLI table with one that returns ``data``
    (same ``__name__``, so reports keep their names) and capture the
    report names instead of writing files."""
    written = []
    monkeypatch.setattr(cli, "write_report", lambda name, text, d: written.append(name))
    for key, experiment in table.items():
        def stub(profile, _data=data):
            return "", dict(_data)

        stub.__name__ = experiment.driver.__name__
        monkeypatch.setitem(table, key, dataclasses.replace(experiment, driver=stub))
    return written


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


@pytest.mark.parametrize("samples", ["5", "0", "-3"])
def test_datasets_command(capsys, samples):
    if int(samples) < 1:  # refused by argparse, not a ZeroDivisionError in Table 1
        with pytest.raises(SystemExit) as exc:
            main(["datasets", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
        return
    assert main(["datasets", "--samples", samples]) == 0
    out = capsys.readouterr().out
    assert "Ising" in out and "AISD" in out


def test_dataplane_command_lists_both_transports(capsys):
    assert main(["dataplane"]) == 0
    out = capsys.readouterr().out
    assert "mpi-rma" in out and "RmaTransport" in out and "(coalescing: yes)" in out
    assert "p2p" in out and "P2PTransport" in out and "(coalescing: no)" in out


def test_every_registered_experiment_has_a_committed_artifact():
    # One table: the CLI and benchmarks/ both read
    # repro.bench.registry.EXPERIMENTS; each entry's report is committed
    # under its driver's name, which its own module exports.
    assert len(repro.bench.registry.EXPERIMENTS) == 27
    for experiment in repro.bench.registry.EXPERIMENTS:
        name = experiment.driver.__name__
        assert getattr(sys.modules[experiment.driver.__module__], name) is experiment.driver
        assert os.path.exists(os.path.join(COMMITTED, f"{name}.json")), name
        assert EXPERIMENTS[experiment.key] is experiment


def test_bench_and_ablation_registries_split_the_union():
    assert set(EXPERIMENTS) == set(BENCHES) | set(ABLATIONS)
    assert not set(BENCHES) & set(ABLATIONS)
    assert list(EXPERIMENTS) == [x.key for x in repro.bench.registry.EXPERIMENTS]
    # every paper table/figure is a bench; every ablation spells ablation-<x>
    assert set(BENCHES) == {"table1", "table2", "table3"} | {f"fig{i}" for i in range(4, 14)}
    assert all(key.startswith("ablation-") for key in ABLATIONS)


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
    for command, table in (("bench", BENCHES), ("ablation", ABLATIONS)):
        drivers = [x.driver.__name__ for x in table.values()]
        written = _stub_drivers(monkeypatch, table, {"checks": {"ok": True}})
        assert main([command, "all", "--check"]) == 0
        assert written == drivers


def test_check_fails_on_a_driver_without_checks(monkeypatch, capsys):
    # A driver that returns no checks gates nothing: `--check` must say so
    # instead of passing vacuously.
    _stub_drivers(monkeypatch, ABLATIONS, {})
    assert main(["ablation", "resilience"]) == 0  # without --check: just a run
    assert main(["ablation", "resilience", "--check"]) == 1
    assert "[check] ablation-resilience FAILED: no checks" in capsys.readouterr().err


def test_check_reports_failed_and_passing_checks(monkeypatch, capsys):
    _stub_drivers(monkeypatch, BENCHES, {"checks": {"a": True, "b": False}})
    assert main(["bench", "fig4", "--check"]) == 1
    assert "[check] fig4 FAILED: b" in capsys.readouterr().err
    _stub_drivers(monkeypatch, BENCHES, {"checks": {"a": True, "b": True}})
    assert main(["bench", "fig4", "table1", "--check"]) == 0
    out = capsys.readouterr().out
    assert "[check] fig4: all 2 check(s) pass" in out and "[check] table1: all 2" in out


def test_every_ablation_answers_to_both_spellings(monkeypatch):
    written = _stub_drivers(monkeypatch, ABLATIONS, {"checks": {"ok": True}})
    for key, experiment in ABLATIONS.items():
        written.clear()
        assert main(["ablation", key, key.removeprefix("ablation-")]) == 0
        assert written == [experiment.driver.__name__] * 2
    assert "ablation-resilience" in ABLATIONS and "resilience" not in ABLATIONS


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
