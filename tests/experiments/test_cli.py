"""The `python -m repro` command line: list, run, overrides, exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.experiments.scenario import SCENARIOS


class TestList:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(SCENARIOS)
        assert all(entry["kind"] in ("grid", "analytic") for entry in payload)


class TestRun:
    def test_analytic_scenario(self, capsys):
        assert main(["run", "figure3"]) == 0
        out = capsys.readouterr().out
        assert "counter_values" in out

    def test_grid_scenario_with_axis_overrides(self, capsys):
        # One (protocol, bandwidth) point so the CLI test stays fast.
        assert main(
            ["run", "figure1", "--scale", "quick",
             "--axis", "bandwidth=1600", "--axis", "protocol=bash"]
        ) == 0
        out = capsys.readouterr().out
        assert "bash" in out and "1600" in out

    def test_json_export_round_trips_the_frame(self, capsys, tmp_path):
        from repro.experiments.study import ResultFrame

        target = tmp_path / "result.json"
        assert main(
            ["run", "figure1", "--axis", "bandwidth=1600",
             "--axis", "protocol=bash", "--json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["scenario"] == "figure1"
        assert payload["scale"] == "quick"
        frame = ResultFrame.from_json(payload["frame"])
        assert len(frame) == 1
        assert frame.column("performance")[0] > 0

    def test_json_to_stdout(self, capsys):
        assert main(["run", "table1", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["paper"]["BASH"]["total_transitions"] == 114
        assert payload["frame"] is None

    def test_cache_dir_resumes(self, capsys, tmp_path):
        args = ["run", "figure1", "--axis", "bandwidth=1600",
                "--axis", "protocol=bash", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "figure99"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_malformed_axis_fails_cleanly(self, capsys):
        assert main(["run", "figure1", "--axis", "bandwidth"]) == 2
        assert "--axis expects" in capsys.readouterr().err

    def test_unknown_axis_fails_cleanly(self, capsys):
        assert main(["run", "figure1", "--axis", "volume=11"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_mistyped_protocol_fails_cleanly(self, capsys):
        assert main(["run", "figure1", "--axis", "protocol=bsah"]) == 2
        assert "invalid protocol" in capsys.readouterr().err

    def test_dropping_the_bash_baseline_fails_cleanly(self, capsys):
        # figure5 normalises to BASH; an override omitting it must produce
        # the clean error path, not a KeyError traceback after the sweep.
        assert main(
            ["run", "figure5", "--axis", "protocol=snooping",
             "--axis", "bandwidth=1600"]
        ) == 2
        err = capsys.readouterr().err
        assert "could not present" in err

    def test_list_survives_custom_figure_prefixed_names(self, capsys):
        from repro.experiments.scenario import AnalyticScenario, register

        register(
            AnalyticScenario(
                name="figureX_custom",
                title="custom",
                description="registered by the test suite",
                compute=lambda scale: {},
            )
        )
        try:
            assert main(["list"]) == 0
            assert "figureX_custom" in capsys.readouterr().out
        finally:
            SCENARIOS.pop("figureX_custom", None)


class TestVerify:
    def test_quick_campaign_subset_passes(self, capsys):
        assert main(
            ["verify", "--campaign", "quick", "--seed-range", "0:1"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign quick: PASS" in out
        assert "differential traces" in out

    def test_json_export_to_stdout(self, capsys):
        assert main(
            ["verify", "--seed-range", "0:1", "--protocol", "directory",
             "--json", "-"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["campaign"] == "quick"
        assert payload["differential_traces"] >= 1
        assert payload["failures"] == []

    def test_json_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        assert main(
            ["verify", "--seed-range", "0:1", "--protocol", "snooping",
             "--json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["ok"] is True
        # The human summary still prints when exporting to a file.
        assert "campaign quick" in capsys.readouterr().out

    def test_malformed_seed_range_fails_cleanly(self, capsys):
        assert main(["verify", "--seed-range", "a:b"]) == 2
        assert "--seed-range expects" in capsys.readouterr().err

    def test_failing_campaign_exits_nonzero_and_writes_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.coherence.state import MOSIState
        from repro.interconnect.message import MessageType
        from repro.protocols.directory.cache_controller import (
            DirectoryCacheController,
        )

        original = DirectoryCacheController._serve_forward

        def corrupt(self, block, message):
            if message.msg_type is MessageType.FWD_GETS and block.is_owner:
                self._send_data(
                    block.address, message.requester, 31337,
                    message.transaction_id,
                )
                block.state = MOSIState.OWNED
                block.tracked_sharers.add(message.requester)
                return
            return original(self, block, message)

        monkeypatch.setattr(DirectoryCacheController, "_serve_forward", corrupt)
        assert main(
            ["verify", "--seed-range", "0:3", "--artifact-dir", str(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "FAILED differential" in out
        artifacts = list(tmp_path.glob("*.json"))
        assert artifacts
        from repro.verification.campaign import load_artifact

        assert load_artifact(artifacts[0])["failures"]


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        # The real subprocess path: `python -m repro list` must work from a
        # clean interpreter (this is what the CI smoke step runs).
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            check=False,
            cwd=repo_root,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "figure1" in result.stdout


class TestServe:
    def test_serve_runs_a_sweep_through_the_service(self, capsys, tmp_path):
        store = tmp_path / "units"
        assert main(
            [
                "serve", "figure1",
                "--store", str(store),
                "--axis", "bandwidth=800,3200",
                "--json", "-",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["completed"] == payload["units"] == 6
        assert payload["summary"]["done"] == 6
        from repro.experiments.jobstore import JobStore

        assert JobStore(store).journal_entries()

    def test_serve_chaos_run_redispatches_and_completes(self, capsys, tmp_path):
        assert main(
            [
                "serve", "figure1",
                "--store", str(tmp_path / "units"),
                "--axis", "bandwidth=800,3200",
                "--fault-plan", "kill-after:3",
                "--json", "-",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["summary"]["worker_deaths"] >= 1
        assert payload["summary"]["redispatched"] >= 1

    def test_serve_resumes_without_recomputation(self, capsys, tmp_path):
        store = tmp_path / "units"
        args = [
            "serve", "figure1",
            "--store", str(store),
            "--axis", "bandwidth=800",
            "--json", "-",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["summary"]["resumed"] == 0
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["summary"]["resumed"] == second["units"]

    def test_serve_rejects_non_sweep_scenarios(self, capsys, tmp_path):
        assert main(
            ["serve", "figure3", "--store", str(tmp_path / "units")]
        ) == 2
        assert "not a sweep" in capsys.readouterr().err

    def test_serve_rejects_unknown_fault_plan(self, capsys, tmp_path):
        assert main(
            [
                "serve", "figure1",
                "--store", str(tmp_path / "units"),
                "--fault-plan", "explode",
            ]
        ) == 2
        assert "fault-plan" in capsys.readouterr().err.lower()


class TestWorker:
    def test_worker_drains_a_prepared_store(self, capsys, tmp_path):
        from repro.experiments.jobstore import JobStore
        from repro.experiments.scenario import get_scenario
        from repro.experiments.service import unit_for_spec

        store = JobStore(tmp_path / "units")
        grid = get_scenario("figure1").grid("quick", axes={"bandwidth": (800.0,)})
        for spec in grid.specs():
            store.enqueue(unit_for_spec(spec))
        assert main(["worker", "--store", str(store.root)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["completed"] == 3
        assert store.finished()


class TestVerifyService:
    def test_verify_through_the_service_store(self, capsys, tmp_path):
        assert main(
            [
                "verify", "--campaign", "quick",
                "--protocol", "bash",
                "--seed-range", "0:2",
                "--service-store", str(tmp_path / "units"),
                "--fault-plan", "kill-after:2",
                "--json", "-",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["service"]["worker_deaths"] >= 1

    def test_fault_plan_without_service_store_fails_cleanly(self, capsys):
        assert main(
            ["verify", "--campaign", "quick", "--fault-plan", "kill-after:1"]
        ) == 2
        assert "--service-store" in capsys.readouterr().err


class TestTraceCommands:
    def test_write_then_info_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        assert main(
            ["trace", "write", path, "--processors", "4", "--ops", "120",
             "--seed", "3", "--window", "32"]
        ) == 0
        written = capsys.readouterr().out
        assert "480" in written  # 4 x 120 operations recorded
        assert main(["trace", "info", path]) == 0
        info = capsys.readouterr().out
        assert "repro-trace" in info
        assert "480" in info

    def test_written_trace_replays_through_run(self, capsys, tmp_path):
        # the file a user records with `trace write` must drive a simulation
        from repro.workloads.streaming import (
            JsonlTraceReader,
            StreamingTraceWorkload,
        )
        import random as _random

        path = str(tmp_path / "svc.jsonl")
        assert main(
            ["trace", "write", path, "--processors", "2", "--ops", "40"]
        ) == 0
        capsys.readouterr()
        workload = StreamingTraceWorkload(JsonlTraceReader(path))
        workload.bind(2, 64, _random.Random(1))
        assert workload.next_operation(0, 0) is not None

    def test_info_on_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "info", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestTrafficScenarios:
    def test_zipfian_scenario_single_point(self, capsys):
        assert main(
            ["run", "zipfian", "--scale", "quick",
             "--axis", "bandwidth=1600", "--axis", "protocol=bash"]
        ) == 0
        out = capsys.readouterr().out
        assert "bash" in out

    def test_traffic_validation_scenario_passes_mva_cross_check(self, capsys):
        assert main(["run", "traffic_validation", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "traffic_validation"
        assert payload["data"]["ok"] is True
        assert payload["data"]["failures"] == []
        for point in payload["data"]["points"]:
            assert point["ok"] is True
