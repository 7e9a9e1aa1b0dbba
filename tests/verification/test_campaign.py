"""The verification campaign engine: fan-out, shrinking, artifacts, CLI glue."""

import json

import pytest

from repro.coherence.state import MOSIState
from repro.errors import VerificationError
from repro.experiments.batch import BatchRunner
from repro.interconnect.message import MessageType
from repro.verification.campaign import (
    CampaignSpec,
    DEEP_CAMPAIGN,
    QUICK_CAMPAIGN,
    VerificationCampaign,
    VerificationTask,
    differential_failure_predicate,
    load_artifact,
    replay_artifact,
    run_campaign,
    run_campaign_tasks,
    run_task,
    shrink_trace,
    write_artifact,
)

#: A deliberately tiny campaign so unit tests stay fast.
TINY = CampaignSpec(
    name="tiny",
    seeds=(0, 1),
    modes=("strict", "racy"),
    operations=30,
    random_seeds=(0,),
    random_operations=60,
)


class TestSpecs:
    def test_quick_campaign_meets_the_issue_floor(self):
        tasks = QUICK_CAMPAIGN.tasks()
        differential = [t for t in tasks if t.kind == "differential"]
        assert len(differential) >= 50
        assert all(len(t.protocols) == 3 for t in differential)
        assert any(t.max_outstanding_per_node >= 2 for t in differential)
        assert {t.mode for t in differential} == {"strict", "racy"}

    def test_deep_campaign_is_a_superset_of_axes(self):
        tasks = DEEP_CAMPAIGN.tasks()
        assert len(tasks) > len(QUICK_CAMPAIGN.tasks())
        assert {t.num_processors for t in tasks} == {4, 6}
        assert any(t.cache_capacity_blocks == 2 for t in tasks)

    def test_with_overrides_restricts_protocols_and_seeds(self):
        spec = QUICK_CAMPAIGN.with_overrides(
            protocols=["directory"], seeds=[3, 4]
        )
        tasks = spec.tasks()
        assert {t.seed for t in tasks if t.kind == "differential"} == {3, 4}
        assert all(t.protocols == ("directory",) for t in tasks)

    def test_unknown_campaign_name_raises(self):
        with pytest.raises(VerificationError):
            run_campaign("nope")

    def test_unknown_task_kind_raises(self):
        with pytest.raises(VerificationError):
            run_task(VerificationTask(kind="mystery", seed=0))


class TestExecution:
    def test_tiny_campaign_passes_serially(self):
        result = VerificationCampaign(TINY).run()
        assert result.ok, [f.failures for f in result.failures]
        assert result.traces == 4
        assert result.protocol_runs == 4 * 3 + 3  # differential + random
        assert result.wall_seconds > 0
        payload = result.to_jsonable()
        assert payload["ok"] is True
        assert payload["campaign"] == "tiny"

    def test_workers_match_serial_results(self):
        tasks = TINY.tasks()
        serial = run_campaign_tasks(tasks, workers=1)
        fleet = run_campaign_tasks(tasks, workers=2)
        assert [o.to_jsonable() for o in serial] == [
            o.to_jsonable() for o in fleet
        ]

    def test_store_backed_rerun_recomputes_nothing(self, tmp_path):
        from repro.experiments.jobstore import JobStore

        tasks = TINY.tasks()
        first = run_campaign_tasks(tasks, service=tmp_path)
        offset = JobStore(tmp_path).journal_offset()
        second = run_campaign_tasks(tasks, service=tmp_path)
        assert [o.to_jsonable() for o in first] == [
            o.to_jsonable() for o in second
        ]
        events = JobStore(tmp_path).journal_entries(offset=offset)
        assert not [event for event in events if event["event"] == "claim"]

    def test_run_campaign_accepts_spec_objects(self):
        result = run_campaign(TINY)
        assert result.spec.name == "tiny"
        assert result.ok


def _inject_directory_corruption(monkeypatch):
    """Mutate the directory owner's forwarded-GETS handler to serve garbage."""
    from repro.protocols.directory.cache_controller import (
        DirectoryCacheController,
    )

    original = DirectoryCacheController._serve_forward

    def corrupt(self, block, message):
        if message.msg_type is MessageType.FWD_GETS and block.is_owner:
            self._send_data(
                block.address, message.requester, 666666, message.transaction_id
            )
            block.state = MOSIState.OWNED
            block.tracked_sharers.add(message.requester)
            return
        return original(self, block, message)

    monkeypatch.setattr(DirectoryCacheController, "_serve_forward", corrupt)


class TestShrinking:
    def test_injected_bug_is_caught_and_shrunk_to_a_tiny_reproducer(
        self, monkeypatch
    ):
        """The ISSUE's acceptance bar: a mutated handler must be caught by the
        differential checker and shrunk to a <= 10-op reproducer."""
        _inject_directory_corruption(monkeypatch)
        runner = BatchRunner()
        failing_task = None
        for seed in range(8):
            task = VerificationTask(
                kind="differential", seed=seed, mode="strict", operations=50
            )
            if not run_task(task, runner).ok:
                failing_task = task
                break
        assert failing_task is not None, "differential checker missed the bug"
        predicate = differential_failure_predicate(failing_task, runner)
        shrunk = shrink_trace(failing_task.trace(), predicate)
        assert len(shrunk.ops) <= 10
        assert predicate(shrunk)  # the reproducer still fails

    def test_shrink_requires_a_failing_trace(self):
        task = VerificationTask(kind="differential", seed=0, operations=20)
        with pytest.raises(VerificationError):
            shrink_trace(task.trace(), lambda trace: False)

    def test_campaign_writes_replayable_artifacts(self, monkeypatch, tmp_path):
        _inject_directory_corruption(monkeypatch)
        spec = CampaignSpec(
            name="bughunt", seeds=(0, 1, 2), modes=("strict",), operations=50
        )
        result = VerificationCampaign(spec, artifact_dir=tmp_path).run()
        assert not result.ok
        failure = result.failures[0]
        assert failure.shrunk_trace is not None
        assert len(failure.shrunk_trace.ops) <= 10
        artifact = load_artifact(failure.artifact_path)
        assert artifact["failures"]
        assert artifact["task"]["seed"] == failure.task.seed
        # The artifact replays to the same verdict while the bug is in place.
        assert not replay_artifact(failure.artifact_path).ok

    def test_artifact_format_guard(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"format": "other"}))
        with pytest.raises(VerificationError):
            load_artifact(bogus)

    def test_artifact_without_shrunk_trace_replays_the_original(self, tmp_path):
        task = VerificationTask(kind="differential", seed=1, operations=30)
        path = write_artifact(tmp_path, task, ["boom"], None)
        result = replay_artifact(path)
        assert result.ok  # no bug injected: the regenerated trace passes

    def test_random_artifact_replays_the_random_task(self, tmp_path):
        task = VerificationTask(
            kind="random", seed=2, operations=60, protocols=("snooping",)
        )
        path = write_artifact(tmp_path, task, ["boom"], None)
        outcome = replay_artifact(path)
        # Random artifacts re-run the recorded tester task, not a synthetic
        # differential trace.
        assert outcome.task == task
        assert outcome.ok

    def test_artifact_names_distinguish_every_axis(self, tmp_path):
        base = dict(kind="differential", seed=0, mode="strict")
        first = VerificationTask(bandwidth_mb_per_second=400.0, **base)
        second = VerificationTask(bandwidth_mb_per_second=1600.0, **base)
        paths = {
            write_artifact(tmp_path, task, ["x"], None)
            for task in (first, second)
        }
        assert len(paths) == 2


# ------------------------------------------------------------------ service


class TestServiceCampaign:
    def test_service_outcomes_match_serial_field_for_field(self, tmp_path):
        from repro.experiments.service import FaultPlan, ServiceConfig

        serial = run_campaign(TINY)
        chaotic = run_campaign(
            TINY,
            service=ServiceConfig(
                store=tmp_path / "store", fault_plan=FaultPlan(kill_after=1)
            ),
        )
        assert [o.to_jsonable() for o in serial.outcomes] == [
            o.to_jsonable() for o in chaotic.outcomes
        ]
        assert chaotic.service is not None
        assert chaotic.service["worker_deaths"] >= 1
        assert chaotic.to_jsonable()["service"]["ok"] is True
        # Serial runs report no service block at all.
        assert "service" not in serial.to_jsonable()


class TestWatchdogEvidence:
    def test_task_outcome_round_trips_through_jsonable(self):
        task = VerificationTask(kind="differential", seed=0, operations=30)
        outcome = run_task(task, BatchRunner())
        outcome.watchdog_dumps = {"bash": {"cycle": 9, "completed": 3}}
        clone = type(outcome).from_jsonable(outcome.to_jsonable())
        assert clone.to_jsonable() == outcome.to_jsonable()

    def test_write_artifact_embeds_watchdog_dumps(self, tmp_path):
        task = VerificationTask(kind="differential", seed=1, operations=30)
        dumps = {"bash": {"cycle": 120, "completed": 7, "operations": 30}}
        path = write_artifact(tmp_path, task, ["hang"], None, watchdog_dumps=dumps)
        payload = json.loads(path.read_text())
        assert payload["watchdog_dumps"] == dumps
        # Absent dumps serialise as None, keeping the artifact format stable.
        bare = write_artifact(
            tmp_path, VerificationTask(kind="differential", seed=2), ["x"], None
        )
        assert json.loads(bare.read_text())["watchdog_dumps"] is None

    def test_deadlock_dump_is_json_safe(self, small_config):
        from repro.common.config import ProtocolName
        from repro.system.multiprocessor import MultiprocessorSystem
        from repro.verification.differential import empty_trace_workload
        from repro.verification.invariants import deadlock_dump

        system = MultiprocessorSystem(
            small_config(ProtocolName.BASH), empty_trace_workload(4)
        )
        dump = deadlock_dump(
            system, completed=3, operations=10, extra={"recent_events": []}
        )
        encoded = json.loads(json.dumps(dump))
        assert encoded["protocol"] == "bash"
        assert encoded["completed"] == 3
        assert encoded["operations"] == 10
        assert encoded["recent_events"] == []
        assert isinstance(encoded["pending_events"], int)
