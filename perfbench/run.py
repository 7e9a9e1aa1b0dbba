"""Repository benchmark: host time of the BASH coherence simulator.

Run from the repository root::

    python3 perfbench/run.py --workload locking --seed 1 --seconds 30 --trace 0

The simulator is a closed system: every processor issues its next memory
reference only after the previous one completes, so each workload is a fixed
amount of simulated work derived from ``--seed`` alone.  The benchmark times
how long the host takes to simulate it.

Workloads (one per ``--workload``):

* ``locking`` -- the paper's locking microbenchmark on 64 processors, all
  three protocols at 1600 MB/s.  Nearly every reference is a sharing miss,
  so the run is dominated by the event core, the interconnect and the
  protocol handlers.
* ``zipfian`` -- Zipf-skewed service traffic on 16 processors, all three
  protocols.  Hot keys give cache hits and read sharing, so the issue chain
  and workload generation carry a larger share than in ``locking``.
* ``sweep`` -- a Figure 1 grid (3 protocols x 200/1600/12800 MB/s) run
  through the scenario engine and its batched sweep executor: many short
  runs on reset systems, with BASH adapting at low bandwidth.

Every simulation runs on both event-core backends: ``pure`` (the reference
Python implementation) and ``compiled`` (the C extension, built from the
checkout's sources before anything is measured).  The two arms alternate
within each round, so a load spike hits both.

Correctness is checked on every run, not sampled:

* each result must be identical, field for field and including the final
  memory image, to a fresh-system run of the same simulation at the same
  seed -- across backends, across rounds, and for ``sweep`` between the
  batched executor and fresh systems;
* operation counts must match the workload and ``hits + misses`` must equal
  the operations completed;
* one run at a fixed anchor seed must reproduce the simulated outputs pinned
  in ``perfbench/reference.json`` (``--pin`` rewrites it when the model is
  meant to change).

Host times are normalised to a reference machine speed.  The machines this
runs on share their cores with other tenants and flip between a full-speed
and a roughly half-speed state many times a minute; the simulator and a fixed
pure-Python calibration loop slow down together.  So every timed region sits
between two calibration loops, its time is scaled by ``CALIBRATION_S`` over
the loops' mean, and an estimate is the median of those scaled times over
the samples taken at full speed (see :func:`at_reference_speed`).  Each
region also starts after a full garbage collection, so it pays only for the
collections its own allocations cause.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics:

* ``pure_ms`` / ``compiled_ms`` -- one round of the workload on that
  backend: the sum over its simulations of each one's median time;
* ``setup_s`` -- median cold set-up: a fresh interpreter importing the
  simulator and building one system per machine shape on both backends;
* ``peak_rss_mb`` -- the benchmark process's peak resident memory.

``--trace 1`` reports the per-layer ledger, measured from the benchmark's
side of each layer's public entry point (see :func:`ledger_pass`), plus exact
work counts from the fresh-system runs (see :func:`layer_counts`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

BACKENDS = ("pure", "compiled")
WORKLOADS = ("locking", "zipfian", "sweep")
#: Seed of the pinned-output check; independent of ``--seed``.
ANCHOR_SEED = 20020202
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
SWEEP_BANDWIDTHS = (200.0, 1600.0, 12800.0)
#: What one calibration loop takes at the reference speed (an unloaded
#: 2-core x86-64 container running CPython 3.11).
CALIBRATION_S = 0.015
#: A sample counts as taken at full speed when both of its calibration loops
#: ran within this factor of the fastest loop seen in the run.
FULL_SPEED_BAND = 1.2
#: Fewer full-speed samples than this and an estimate uses every sample.
MIN_FULL_SPEED = 3

#: Simulated outputs pinned at the anchor seed.  Host-side fields (the
#: statistics registry, which later changes may extend) are checked only
#: across backends and rounds, never against the pin.
PINNED_FIELDS = (
    "protocol",
    "num_processors",
    "bandwidth_mb_per_second",
    "cycles",
    "operations",
    "instructions",
    "misses",
    "hits",
    "mean_miss_latency",
    "mean_link_utilization",
    "broadcast_fraction",
    "retries",
    "nacks",
)


class CheckFailed(Exception):
    """A simulation produced output that differs from what it must be."""


def load_program() -> None:
    """Put the checkout's sources on the path and build the compiled backend."""
    if not (SRC / "repro" / "_core" / "build.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from repro._core import build

    try:
        build.build(verbose=False)
    except (RuntimeError, subprocess.CalledProcessError) as error:
        raise SystemExit(f"perfbench: cannot build the compiled backend: {error}")
    from repro import _core

    if not _core.compiled_available():
        raise SystemExit("perfbench: the compiled backend does not import")


# -------------------------------------------------------------------- clock


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop (dict, heap, arithmetic) takes now."""
    start = time.perf_counter()
    heap: List[int] = []
    table: Dict[int, int] = {}
    for i in range(40_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, key)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor turning wall seconds into seconds at the reference speed."""
    return CALIBRATION_S / ((before + after) / 2)


@dataclasses.dataclass(frozen=True)
class Sample:
    """One timed region and the calibration loops on either side of it."""

    wall: float
    before: float
    after: float


def calibrated(fn, *args) -> Tuple[Sample, object]:
    """Call ``fn`` after a full collection, between two calibration loops."""
    gc.collect()
    before = calibration_loop()
    start = time.perf_counter()
    value = fn(*args)
    wall = time.perf_counter() - start
    return Sample(wall, before, calibration_loop()), value


def at_reference_speed(samples: List[Sample], fastest: float) -> float:
    """Median reference-speed seconds over the samples taken at full speed.

    ``fastest`` is the quickest calibration loop of the whole run.  Scaling
    by the calibration alone leaves a sample taken while the machine changed
    state half-corrected, so those samples are left out when enough others
    remain.
    """
    full = [s for s in samples if max(s.before, s.after) < FULL_SPEED_BAND * fastest]
    chosen = full if len(full) >= MIN_FULL_SPEED else samples
    return statistics.median(s.wall * speed_scale(s.before, s.after) for s in chosen)


def fastest_loop(samples) -> float:
    """The quickest calibration loop among ``samples``."""
    return min(min(s.before, s.after) for s in samples)


# ----------------------------------------------------------------- workloads


@dataclasses.dataclass(frozen=True)
class Run:
    """One simulation: a system configuration and a fresh-workload factory."""

    label: str
    config: object
    make_workload: Callable[[], object]
    operations: int


def simulation_runs(workload: str, seed: int) -> List[Run]:
    """The simulations one round of ``workload`` performs, inputs from ``seed``."""
    from repro.experiments.runner import (
        PROTOCOLS,
        QUICK,
        LockingWorkloadSpec,
        microbenchmark_config,
        microbenchmark_factory,
    )
    from repro.workloads.traffic import ZipfianTrafficSpec

    if workload == "locking":
        processors, spec = 64, LockingWorkloadSpec(
            num_locks=4096, acquires_per_processor=30, think_jitter=16
        )
        per_processor = spec.acquires_per_processor
    elif workload == "zipfian":
        processors, spec = 16, ZipfianTrafficSpec(operations_per_processor=300)
        per_processor = spec.operations_per_processor
    else:
        scale = sweep_scale(seed)
        spec = microbenchmark_factory(scale)
        return [
            Run(
                f"{protocol}@{bandwidth:g}",
                microbenchmark_config(scale, protocol, bandwidth, seed=seed),
                functools.partial(spec, seed),
                scale.microbenchmark_processors * spec.acquires_per_processor,
            )
            for protocol in PROTOCOLS
            for bandwidth in SWEEP_BANDWIDTHS
        ]
    return [
        Run(
            str(protocol),
            microbenchmark_config(
                QUICK, protocol, 1600.0, num_processors=processors, seed=seed
            ),
            functools.partial(spec, seed),
            processors * per_processor,
        )
        for protocol in PROTOCOLS
    ]


def sweep_scale(seed: int):
    from repro.experiments.runner import QUICK

    return dataclasses.replace(QUICK, seeds=(seed,))


def setup_runs(runs: List[Run]) -> List[Run]:
    """One run per distinct machine shape -- the systems a sweep builds."""
    shapes: Dict[Tuple[str, int], Run] = {}
    for run in runs:
        shapes.setdefault((str(run.config.protocol), run.config.num_processors), run)
    return list(shapes.values())


# ------------------------------------------------------------------- checks


def output_of(result, system=None) -> Dict:
    """A run's observable output; with ``system``, its final memory image too."""
    output = {"result": dataclasses.asdict(result)}
    output["result"]["protocol"] = str(result.protocol)
    if system is not None:
        output["memory"] = sorted(system.final_memory_image().items())
    return output


def check_invariants(run: Run, result) -> None:
    if result.operations != run.operations:
        raise CheckFailed(
            f"{run.label}: {result.operations} operations, expected {run.operations}"
        )
    if result.hits + result.misses != result.operations:
        raise CheckFailed(f"{run.label}: hits + misses != operations")
    if result.cycles <= 0:
        raise CheckFailed(f"{run.label}: no simulated time elapsed")


def pinned_digest(outputs: List[Dict]) -> str:
    pinned = [
        {
            "result": {name: output["result"][name] for name in PINNED_FIELDS},
            "memory": output["memory"],
        }
        for output in outputs
    ]
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


class Ledger:
    """Counts simulations attempted and failed, and every check failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.expected: Dict[str, Dict] = {}

    def expect(self, key: str, output: Dict) -> None:
        self.expected[key] = output

    def verify(self, key: str, output: Dict, count: int = 1) -> bool:
        """Record ``count`` simulations whose output must equal the expected."""
        self.attempted += count
        if output != self.expected.get(key):
            self.fail(count, f"{key}: output differs from the fresh-system run")
            return False
        return True

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def fresh_outputs(runs: List[Run], backend: str) -> List[Tuple[Dict, int]]:
    """Run every simulation on its own fresh system; check its invariants.

    Returns each run's output and the number of events it fired.
    """
    from repro import _core
    from repro.system.multiprocessor import MultiprocessorSystem

    outputs = []
    with _core.use_backend(backend):
        for run in runs:
            system = MultiprocessorSystem(run.config, run.make_workload())
            result = system.run()
            check_invariants(run, result)
            outputs.append((output_of(result, system), system.simulator.scheduler.fired))
    return outputs


def check_anchor(workload: str, ledger: Ledger) -> None:
    """The pinned-output check at the fixed anchor seed."""
    runs = simulation_runs(workload, ANCHOR_SEED)
    ledger.attempted += len(runs)
    try:
        digest = pinned_digest([out for out, _ in fresh_outputs(runs, "compiled")])
    except Exception:  # noqa: BLE001 - a crashing model is a failed check
        traceback.print_exc()
        ledger.fail(len(runs), f"{workload}: anchor run raised")
        return
    pinned = json.loads(REFERENCE.read_text()).get(workload)
    if digest != pinned:
        ledger.fail(len(runs), f"{workload}: anchor outputs differ from the pin")


# ---------------------------------------------------------------- execution


def execute(workload: str, runs: List[Run], seed: int, backend: str, ledger: Ledger):
    """One timed execution of ``workload`` on ``backend``: ``[(key, Sample)]``.

    ``locking`` and ``zipfian`` time ``MultiprocessorSystem.run`` on a fresh
    system per protocol (construction is ``setup_s``'s job); ``sweep`` times
    the whole ``run_scenario`` call, executor included.
    """
    from repro import _core
    from repro.system.multiprocessor import MultiprocessorSystem

    timings = []
    with _core.use_backend(backend):
        if workload == "sweep":
            from repro.experiments.runner import PROTOCOLS
            from repro.experiments.scenario import run_scenario

            # One call per protocol: each is one batched chunk (a system
            # reused across the bandwidths), and the shorter timed regions
            # are less likely to straddle a change of machine speed.
            for protocol in PROTOCOLS:
                sample, result = calibrated(
                    functools.partial(
                        run_scenario,
                        "figure1",
                        scale=sweep_scale(seed),
                        axes={"protocol": (protocol,), "bandwidth": SWEEP_BANDWIDTHS},
                        workers=1,
                        cache_dir=False,
                    )
                )
                key = f"sweep:{protocol}"
                output = {
                    f"{point.protocol}@{point.x:g}": output_of(point.results[0])
                    for point in result.frame.points
                }
                if ledger.verify(key, output, count=len(SWEEP_BANDWIDTHS)):
                    timings.append((key, sample))
            return timings
        for run in runs:
            system = MultiprocessorSystem(run.config, run.make_workload())
            sample, result = calibrated(system.run)
            if ledger.verify(run.label, output_of(result, system)):
                timings.append((run.label, sample))
    return timings


def guarded(ledger: Ledger, count: int, fn, *args):
    """Call ``fn``; a raising simulation is a failed run, not a crash."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - keep measuring, report the failure
        traceback.print_exc()
        ledger.attempted += count
        ledger.fail(count, f"{getattr(fn, '__name__', fn)} raised")
        return None


def prepare(workload: str, seed: int, ledger: Ledger):
    """Set expectations from fresh-system runs at ``seed``; check the anchor.

    Returns the runs and their ``(output, events fired)`` on the pure backend.
    """
    runs = simulation_runs(workload, seed)
    fresh = fresh_outputs(runs, "pure")
    ledger.attempted += len(runs)
    for run, (output, _) in zip(runs, fresh):
        ledger.expect(run.label, output)
    if workload == "sweep":
        for run, (out, _) in zip(runs, fresh):
            key = f"sweep:{run.config.protocol}"
            ledger.expected.setdefault(key, {})[run.label] = {"result": out["result"]}
    check_anchor(workload, ledger)
    return runs, fresh


def end_to_end(workload: str, seed: int, seconds: float, ledger: Ledger) -> Dict:
    runs, _ = prepare(workload, seed, ledger)
    setup = cold_setups(workload, seed)
    samples: Dict[str, Dict[str, List[Sample]]] = {b: {} for b in BACKENDS}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        order = BACKENDS if rounds % 2 == 0 else BACKENDS[::-1]
        for backend in order:
            timings = guarded(ledger, len(runs), execute, workload, runs, seed, backend, ledger)
            for key, sample in timings or ():
                samples[backend].setdefault(key, []).append(sample)
        rounds += 1
    if not all(samples.values()):
        raise SystemExit("perfbench: a backend had no successful execution")
    fastest = fastest_loop(s for arm in samples.values() for k in arm.values() for s in k)
    metrics = {}
    for backend in BACKENDS:
        total = sum(at_reference_speed(k, fastest) for k in samples[backend].values())
        metrics[f"{backend}_ms"] = {"value": total * 1e3, "unit": "ms"}
    setup_s = at_reference_speed(setup, fastest_loop(setup))
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    return metrics


# -------------------------------------------------------------------- set-up


def cold_setups(workload: str, seed: int) -> List[Sample]:
    """``SETUP_SAMPLES`` cold set-ups, each in a fresh interpreter."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-child",
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=False
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed:\n{done.stderr}")
        times.append(Sample(*json.loads(done.stdout.splitlines()[-1])))
    return times


def setup_child(workload: str, seed: int) -> Sample:
    """Import the simulator and build every machine the workload needs.

    This is what a user pays before the first simulated event: importing the
    package, loading the compiled backend, and constructing one system per
    machine shape on each backend.
    """
    before = calibration_loop()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from repro import _core
    from repro.system.multiprocessor import MultiprocessorSystem

    for backend in BACKENDS:
        with _core.use_backend(backend):
            for run in setup_runs(simulation_runs(workload, seed)):
                MultiprocessorSystem(run.config, run.make_workload())
    wall = time.perf_counter() - start
    return Sample(wall, before, calibration_loop())


# ------------------------------------------------------------------- ledger


def generate_workload(run: Run) -> None:
    """Drain ``run``'s reference stream through the public Workload API."""
    workload = run.make_workload()
    config = run.config
    workload.bind(
        config.num_processors, config.cache_block_bytes, random.Random(config.random_seed)
    )
    for node in range(config.num_processors):
        operation = workload.next_operation(node, 0)
        while operation is not None:
            workload.on_complete(node, operation, 0, True, 0)
            operation = workload.next_operation(node, 0)


def bare_event_core(events: int, width: int) -> None:
    """Fire ``events`` trivial events on the active backend's scheduler."""
    from repro.sim import active_scheduler_class

    scheduler = active_scheduler_class()()
    schedule = scheduler.schedule_after_fast1

    def hop(_arg) -> None:
        schedule(1, hop, None, "hop")

    for _ in range(width):
        schedule(1, hop, None, "hop")
    if scheduler.run(max_events=events) != events:
        raise CheckFailed("bare event core fired the wrong number of events")


def timed(fn, *args) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def ledger_pass(runs: List[Run], order, ledger: Ledger) -> Dict[str, float]:
    """Time each layer of every run from outside its public entry point.

    Per backend: ``MultiprocessorSystem(...)`` (build), ``run()`` (the whole
    simulation), ``result()`` (the statistics snapshot) and ``reset()``
    (the sweep executor's reuse path); then the bare scheduler firing as many
    events as the runs did (event core) and a standalone drain of each
    workload's reference stream (workload generation).  Whatever ``run()``
    spends beyond those two is the protocol side: handlers, interconnect,
    issue chain and BASH sampling.
    """
    from repro import _core
    from repro.system.multiprocessor import MultiprocessorSystem

    sample: Dict[str, float] = {}
    workload_s = 0.0
    for run in runs:
        timing, _ = calibrated(generate_workload, run)
        workload_s += timing.wall * speed_scale(timing.before, timing.after)
    sample["workload_ms"] = workload_s * 1e3
    for backend in order:
        build_s = run_s = stats_s = reset_s = 0.0
        events = 0
        before = calibration_loop()
        with _core.use_backend(backend):
            for run in runs:
                gc.collect()
                wall, system = timed(MultiprocessorSystem, run.config, run.make_workload())
                build_s += wall
                wall, result = timed(system.run)
                run_s += wall
                events += system.simulator.scheduler.fired
                wall, _ = timed(system.result)
                stats_s += wall
                ledger.verify(run.label, output_of(result, system))
                wall, _ = timed(system.reset, run.make_workload(), run.config)
                reset_s += wall
            width = runs[0].config.num_processors
            core_s, _ = timed(bare_event_core, events, width)
        scale = speed_scale(before, calibration_loop())
        build_s, run_s, stats_s, reset_s, core_s = (
            value * scale for value in (build_s, run_s, stats_s, reset_s, core_s)
        )
        sample[f"{backend}_build_ms"] = build_s * 1e3
        sample[f"{backend}_reset_ms"] = reset_s * 1e3
        sample[f"{backend}_core_ms"] = core_s * 1e3
        sample[f"{backend}_protocol_ms"] = (run_s - core_s - workload_s) * 1e3
        sample[f"{backend}_ns_per_event"] = run_s / events * 1e9
        sample[f"{backend}_run_s"] = run_s
        if backend == "pure":
            sample["stats_ms"] = stats_s * 1e3
    sample["compiled_speedup"] = sample.pop("pure_run_s") / sample.pop("compiled_run_s")
    return sample


def layer_counts(fresh) -> Dict[str, int]:
    """Exact per-layer work counts, summed over the workload's fresh runs."""
    from repro import _core

    counts = dict.fromkeys(
        ("events", "sim_cycles", "hits", "misses", "messages", "broadcasts", "retries"),
        0,
    )
    for output, fired in fresh:
        result = output["result"]
        stats = result["stats"]
        counts["events"] += fired
        counts["sim_cycles"] += result["cycles"]
        counts["hits"] += result["hits"]
        counts["misses"] += result["misses"]
        counts["messages"] += int(
            stats.get("network.ordered.messages", 0)
            + stats.get("network.unordered.messages", 0)
        )
        counts["broadcasts"] += int(stats.get("network.ordered.broadcasts", 0))
        counts["retries"] += result["retries"]
    counts["compiled_selections"] = sum(
        status == "compiled" for status in _core.handler_selections().values()
    )
    return counts


def per_layer(workload: str, seed: int, seconds: float, ledger: Ledger) -> Dict:
    runs, fresh = prepare(workload, seed, ledger)
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        order = BACKENDS if len(samples) % 2 == 0 else BACKENDS[::-1]
        sample = guarded(ledger, 2 * len(runs), ledger_pass, runs, order, ledger)
        if sample is not None:
            samples.append(sample)
        elif time.perf_counter() >= deadline:
            raise SystemExit("perfbench: no successful ledger pass")
    metrics = {
        name: {
            "value": statistics.median(sample[name] for sample in samples),
            "unit": unit_of(name),
        }
        for name in samples[0]
    }
    for name, value in layer_counts(fresh).items():
        metrics[name] = {"value": value, "unit": "count"}
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ns_per_event"):
        return "ns"
    return "x"


# ---------------------------------------------------------------------- main


def pin() -> None:
    """Rewrite the anchor-seed reference outputs from the pure backend."""
    pinned = {
        workload: pinned_digest(
            [out for out, _ in fresh_outputs(simulation_runs(workload, ANCHOR_SEED), "pure")]
        )
        for workload in WORKLOADS
    }
    REFERENCE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pinned, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="rewrite perfbench/reference.json"
    )
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        print(json.dumps(dataclasses.astuple(setup_child(args.workload, args.seed))))
        return 0
    load_program()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    ledger = Ledger()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, ledger)
    report = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
