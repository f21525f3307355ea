"""The ``python -m repro.experiments`` entry point — one subcommand
per registry row, ``--out`` / ``--check``, exit status — and the
campaign wiring of the rewired experiment harnesses."""

from __future__ import annotations

import inspect
import json

import pytest

from repro.experiments.__main__ import build_parser, main, parse_seeds
from repro.experiments.registry import ARTEFACTS
from repro.experiments.scalability import run_gateway_load_sweep

pytestmark = pytest.mark.integration


class TestParseSeeds:
    def test_inclusive_range(self):
        assert parse_seeds("0..3") == [0, 1, 2, 3]

    def test_comma_list_and_single(self):
        assert parse_seeds("1,5,9") == [1, 5, 9]
        assert parse_seeds("4") == [4]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("5..2")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == list(ARTEFACTS)
        assert "gateway-load-sweep" in listed
        assert "smtp-strictness" in listed

    def test_gateway_load_sweep_serial(self, capsys):
        code = main(["gateway-load-sweep", "--seeds", "0..1",
                     "--subfarms", "1", "--inmates-per", "2",
                     "--duration", "40"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"]
        assert summary["merged"]["shards_ok"] == 2
        assert len(summary["shards"]) == 2
        assert summary["digest"]

    def test_streaming_farm_with_workers(self, capsys):
        code = main(["streaming-farm", "--workers", "2",
                     "--seeds", "1..2", "--subfarms", "1",
                     "--inmates-per", "1", "--duration", "30"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"]
        assert summary["workers"] == 2

    def test_parameter_the_row_does_not_take_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["hostile-traffic", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("shards", [["--count", "-2"], ["--seeds", ","],
                                        ["--count", "0"]])
    def test_sweep_of_no_shards_is_a_usage_error(self, shards, capsys):
        # Before, each ran zero shards and exited 0.
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway-load-sweep", *shards])
        assert excinfo.value.code == 2
        assert "has no shards" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ARTEFACTS.values(), ids=list(ARTEFACTS))
    def test_subcommand_takes_exactly_what_its_run_reads(self, row, capsys):
        inspect.signature(row.run).bind(**row.defaults())
        parser = build_parser()
        every = {name for other in ARTEFACTS.values()
                 for name in other.params}
        for name in sorted(every - set(row.params)):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(
                    [row.id, "--" + name.replace("_", "-"), "1"])
            assert excinfo.value.code == 2, name
        capsys.readouterr()

    def test_out_file_of_a_sweep_feeds_repro_obs(self, tmp_path, capsys):
        from repro.obs import __main__ as obs_cli

        assert main(["streaming-farm", "--seeds", "1..2", "--subfarms", "1",
                     "--inmates-per", "1", "--duration", "40", "--journal",
                     "--out", str(tmp_path)]) == 0
        summary = str(tmp_path / "streaming-farm.json")
        capsys.readouterr()
        assert obs_cli.main(["snapshot", "--snapshot", summary,
                             "--journal", summary]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["telemetry"]["counters"]
        assert snapshot["event_counts"]["flow.created"] == 2

    def test_check_exits_1_with_a_diff_on_drift(self, tmp_path, capsys):
        assert main(["fig4-shim-layout", "--out", str(tmp_path)]) == 0
        tracked = tmp_path / "fig4_shim_layout.txt"
        assert main(["fig4-shim-layout", "--check", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

        text = tracked.read_text(encoding="utf-8")
        tracked.write_text(text.replace("0: 47 51", "0: 47 52", 1),
                           encoding="utf-8")
        assert main(["fig4-shim-layout", "--check", str(tmp_path)]) == 1
        diff = capsys.readouterr().out
        assert diff.startswith(f"--- {tracked}")
        assert "-     0: 47 52" in diff and "+     0: 47 51" in diff

        # A tracked file that is missing is drift too.
        tracked.unlink()
        assert main(["fig4-shim-layout", "--check", str(tmp_path)]) == 1

    def test_fault_matrix_exits_1_on_a_violation(self, capsys, monkeypatch):
        from repro.experiments import fault_matrix

        quick = ["fault-matrix", "--quick", "--duration", "60"]
        assert main(quick) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []

        real = fault_matrix.fault_farm_shard

        def leaky(**params):
            payload = real(**params)
            payload["coverage"]["violations"].append({
                "source": "wire", "class": "unlicensed", "subfarm": "s",
                "vlan": 2, "dst": "203.0.113.80", "dport": 7,
                "proto": "tcp", "reason": "planted"})
            return payload

        monkeypatch.setattr(fault_matrix, "fault_farm_shard", leaky)
        assert main(quick) == 1
        captured = capsys.readouterr()
        assert any("unlicensed frame upstream (vlan=2, "
                   "dst=203.0.113.80:7, proto=tcp)" in violation
                   for violation in json.loads(captured.out)["violations"])
        assert "fault-matrix: 3 violation(s)" in captured.err


class TestGatewayLoadSweep:
    def test_serial_vs_parallel_digest(self):
        kwargs = dict(seeds=[0, 1, 2], subfarms=1, inmates_per=2,
                      duration=40.0)
        serial = run_gateway_load_sweep(workers=1, **kwargs)
        parallel = run_gateway_load_sweep(workers=2, **kwargs)
        assert serial.ok and parallel.ok
        assert serial.digest == parallel.digest
        assert serial.merged["metrics"]["flows_created"] > 0

    def test_explicit_seeds_are_used(self):
        result = run_gateway_load_sweep(seeds=[7, 9], subfarms=1,
                                        inmates_per=1, duration=30.0)
        assert [r.payload["seed"] for r in result.shard_results] \
            == [7, 9]
