"""Command-line front end for the scenario engine: ``python -m repro``.

Runs any registered scenario — the paper's figures or the non-paper
studies — without writing Python::

    python -m repro list
    python -m repro run figure1 --scale quick
    python -m repro run figure10 --scale paper --workers 8 \\
        --cache-dir ~/.cache/repro-sweeps
    python -m repro run migratory --axis bandwidth=800,3200 --json results.json

``--workers`` fans sweep points across worker processes, ``--cache-dir``
keeps completed points in a job store (so an interrupted PAPER-scale campaign
resumes instead of recomputing; ``$REPRO_SWEEP_CACHE`` supplies the default),
``--axis name=v1,v2,...`` overrides any axis grid of a grid scenario, and
``--json`` exports the full result (unified frame included) for downstream
plotting.

``verify`` runs the protocol verification campaigns — differential trace
replays across all three protocols (strict, racy, windowed, and contended
replays standing in for the paper's random tester), with mid-run invariant
monitoring and failure-trace shrinking::

    python -m repro verify --campaign quick
    python -m repro verify --campaign deep --workers 8 --seed-range 0:100
    python -m repro verify --protocol directory --json -

A failing campaign exits nonzero and (with ``--artifact-dir``) writes each
shrunk failing trace as a replayable JSON artifact.

``serve`` and ``worker`` expose the fault-tolerant campaign service: a
coordinator shards a sweep into durable work units in a crash-safe store,
pull-workers claim them under lease timeouts, and interrupted campaigns
resume with zero recomputation of finished units::

    python -m repro serve figure1 --store /tmp/units --workers 2 --json -
    python -m repro worker --store /tmp/units        # extra pullers, same host
    python -m repro serve figure1 --store /tmp/units --workers 1 \\
        --fault-plan kill-after:3                    # chaos drill

``trace`` writes and inspects streaming JSONL trace files — the bounded-
memory workload format :class:`repro.workloads.StreamingTraceWorkload`
consumes.  ``write`` materialises a service-traffic stream to disk without
ever holding it in memory; ``info`` streams back through a file and reports
its shape::

    python -m repro trace write /tmp/svc.jsonl --processors 8 --ops 5000
    python -m repro trace info /tmp/svc.jsonl

``backend`` reports which event-core backend (pure Python or the compiled
``repro._core`` extension) this process would simulate with and why —
``$REPRO_BACKEND``, automatic detection, or fallback::

    python -m repro backend
    REPRO_BACKEND=pure python -m repro backend --format json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import _core
from .errors import ReproError

# Each subcommand imports the modules it runs, so ``backend`` loads no
# simulator code and ``run`` no verification code.


def _parse_seed_range(text: Optional[str]):
    """Parse ``A:B`` (half-open, like range) into an explicit seed list."""
    if text is None:
        return None
    start, separator, stop = text.partition(":")
    try:
        if not separator:
            return [int(start)]
        return list(range(int(start), int(stop)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seed-range expects A:B or a single seed (got {text!r})"
        ) from None


def _parse_axis_value(text: str):
    """Parse one axis value: int, then float, then bare string (protocol names)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axis_overrides(entries: Optional[List[str]]):
    """Parse repeated ``--axis name=v1,v2`` options into an override mapping."""
    if not entries:
        return None
    overrides = {}
    for entry in entries:
        name, separator, values = entry.partition("=")
        if not separator or not values:
            raise argparse.ArgumentTypeError(
                f"--axis expects name=v1,v2,... (got {entry!r})"
            )
        overrides[name.strip()] = tuple(
            _parse_axis_value(value.strip()) for value in values.split(",")
        )
    return overrides


class _CampaignNames:
    """The registered campaign names, read only when argparse needs them."""

    def __iter__(self):
        from .verification.campaign import CAMPAIGNS

        return iter(sorted(CAMPAIGNS))

    def __contains__(self, name) -> bool:
        return name in list(self)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper-reproduction scenarios from the command line.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list every registered scenario"
    )
    list_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    run_parser = commands.add_parser(
        "run", help="run one scenario and print (or export) its results"
    )
    run_parser.add_argument("scenario", help="a scenario name from `list`")
    run_parser.add_argument(
        "--scale", default="quick", metavar="NAME",
        help="experiment scale (paper, quick; default: quick)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan sweep points across N worker processes (0 = auto)",
    )
    run_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="keep completed sweep points in the job store at DIR "
        "(resumable campaigns; $REPRO_SWEEP_CACHE supplies the default)",
    )
    run_parser.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2", dest="axes",
        help="override an axis grid of a grid scenario (repeatable)",
    )
    run_parser.add_argument(
        "--json", dest="json_path", default=None, metavar="FILE",
        help="write the full result (data + unified frame) as JSON to FILE "
        "('-' for stdout)",
    )
    run_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format when --json is not given (default: text)",
    )

    verify_parser = commands.add_parser(
        "verify",
        help="fuzz all three protocols differentially and check invariants",
    )
    verify_parser.add_argument(
        "--campaign", default="quick", choices=_CampaignNames(), metavar="NAME",
        help="campaign preset (%(choices)s; default: quick)",
    )
    verify_parser.add_argument(
        "--protocol", action="append", dest="protocols", metavar="NAME",
        choices=("snooping", "directory", "bash"),
        help="restrict to one or more protocols (repeatable; "
        "default: snooping, directory and bash)",
    )
    verify_parser.add_argument(
        "--seed-range", default=None, metavar="A:B",
        help="override the campaign's seeds with range(A, B)",
    )
    verify_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan verification tasks across N worker processes (0 = auto)",
    )
    verify_parser.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="write each shrunk failing trace as a replayable JSON artifact "
        "under DIR",
    )
    verify_parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking failing traces to minimal reproducers",
    )
    verify_parser.add_argument(
        "--json", dest="json_path", default=None, metavar="FILE",
        help="write the campaign result as JSON to FILE ('-' for stdout)",
    )
    verify_parser.add_argument(
        "--service-store", default=None, metavar="DIR",
        help="run the campaign through the durable job service backed by "
        "DIR (resumable; workers pull leased units)",
    )
    verify_parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="chaos-test the service run (kill-after:K, drop-heartbeats, "
        "corrupt-result:N; comma-separated)",
    )
    verify_parser.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="service lease timeout before a dead worker's unit is "
        "re-dispatched (default: 30)",
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run a sweep scenario through the fault-tolerant job service",
    )
    serve_parser.add_argument("scenario", help="a grid scenario from `list`")
    serve_parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="durable job store directory (shared with `worker` processes)",
    )
    serve_parser.add_argument(
        "--scale", default="quick", metavar="NAME",
        help="experiment scale (paper, quick; default: quick)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="spawn N pull-worker processes (0/unset = drain inline; "
        "external `python -m repro worker` pullers also count)",
    )
    serve_parser.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2", dest="axes",
        help="override an axis grid of the scenario (repeatable)",
    )
    serve_parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="chaos-test the run (kill-after:K, drop-heartbeats, "
        "corrupt-result:N; comma-separated)",
    )
    serve_parser.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="lease timeout before a dead worker's unit is re-dispatched "
        "(default: 30)",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="quarantine a unit as poison after N failed attempts "
        "(default: 3)",
    )
    serve_parser.add_argument(
        "--stall-timeout", type=float, default=300.0, metavar="SECONDS",
        help="abort the campaign if no unit finishes for this long "
        "(default: 300)",
    )
    serve_parser.add_argument(
        "--json", dest="json_path", default=None, metavar="FILE",
        help="write the service summary as JSON to FILE ('-' for stdout)",
    )

    worker_parser = commands.add_parser(
        "worker",
        help="pull and execute work units from a job store until it drains",
    )
    worker_parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="job store directory to pull from",
    )
    worker_parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable worker identity (default: derived from pid)",
    )
    worker_parser.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="lease timeout this worker renews against (default: 30)",
    )
    worker_parser.add_argument(
        "--max-units", type=int, default=None, metavar="N",
        help="exit after completing N units (default: run until drained)",
    )
    worker_parser.add_argument(
        "--keep-alive", action="store_true",
        help="keep polling for new units instead of exiting when idle",
    )
    worker_parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="chaos-test this worker (kill-after:K, drop-heartbeats, "
        "corrupt-result:N)",
    )

    trace_parser = commands.add_parser(
        "trace",
        help="write or inspect streaming JSONL trace files",
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    trace_write = trace_commands.add_parser(
        "write",
        help="generate a service-traffic trace file (streamed, not "
        "materialised)",
    )
    trace_write.add_argument("path", help="output JSONL file")
    trace_write.add_argument(
        "--processors", type=int, default=8, metavar="P",
        help="number of per-node operation streams (default: 8)",
    )
    trace_write.add_argument(
        "--ops", type=int, default=200, metavar="N",
        help="operations per processor (default: 200)",
    )
    trace_write.add_argument(
        "--seed", type=int, default=1, metavar="SEED",
        help="deterministic stream seed (default: 1)",
    )
    trace_write.add_argument(
        "--num-keys", type=int, default=512, metavar="K",
        help="Zipf-popular key-space size per tenant (default: 512)",
    )
    trace_write.add_argument(
        "--zipf", type=float, default=0.9, metavar="S",
        help="Zipf popularity exponent (default: 0.9)",
    )
    trace_write.add_argument(
        "--write-fraction", type=float, default=0.10, metavar="F",
        help="fraction of operations that are writes (default: 0.10)",
    )
    trace_write.add_argument(
        "--tenants", type=int, default=1, metavar="G",
        help="tenant groups sharding the key space (default: 1)",
    )
    trace_write.add_argument(
        "--window", type=int, default=256, metavar="OPS",
        help="round-robin interleave chunk — bounds the reader's "
        "buffering (default: 256)",
    )
    trace_info = trace_commands.add_parser(
        "info", help="stream through a trace file and report its shape"
    )
    trace_info.add_argument("path", help="JSONL trace file from `trace write`")

    backend_parser = commands.add_parser(
        "backend",
        help="show which event-core backend is active and how it was chosen",
    )
    backend_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    return parser


def _command_list(args) -> int:
    from .experiments.scenario import SCENARIOS

    # Sorted with the paper's figures first (figure1..figure12, table1),
    # then the non-paper scenarios alphabetically.
    def sort_key(name: str):
        suffix = name[len("figure"):]
        if name.startswith("figure") and suffix.isdigit():
            return (0, int(suffix), name)
        if name.startswith("table"):
            return (1, 0, name)
        return (2, 0, name)

    names = sorted(SCENARIOS, key=sort_key)
    if args.format == "json":
        payload = [
            {
                "name": name,
                "kind": SCENARIOS[name].kind,
                "title": SCENARIOS[name].title,
                "description": SCENARIOS[name].description,
            }
            for name in names
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(name) for name in names)
    info = _core.backend_info()
    print(f"{len(names)} scenarios registered "
          f"(run with: python -m repro run <name> [--scale quick|paper])")
    print(f"event-core backend: {info['name']} "
          f"[{_describe_selection(info)}]\n")
    for name in names:
        scenario = SCENARIOS[name]
        kind = "sweep" if scenario.kind == "grid" else "static"
        print(f"  {name:<{width}}  [{kind}]  {scenario.title}")
    return 0


def _describe_selection(info: dict) -> str:
    """One phrase explaining *why* this backend is active."""
    selected_by = info["selected_by"]
    if selected_by == "env":
        return f"${info['env_var']}={info['requested']}"
    if selected_by == "auto":
        return "auto-detected"
    if selected_by == "fallback":
        return "compiled extension unavailable, fell back to pure"
    return selected_by  # "forced": set_backend()/use_backend() in process


def _command_backend(args) -> int:
    info = _core.backend_info()
    if args.format == "json":
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"backend:  {info['name']}")
    print(f"selected: {_describe_selection(info)} "
          f"(${info['env_var']}: pure|compiled|auto, default auto)")
    if info["compiled_loaded"]:
        print(f"compiled: repro._core._cext {info['compiled_version']} loaded")
    elif info["compiled_import_error"] is not None:
        print(f"compiled: unavailable ({info['compiled_import_error']})")
        print("          build it with: python -m repro._core.build")
    else:
        print("compiled: not imported (pure backend forced)")
    for component, status in sorted(info["components"].items()):
        print(f"  {component + ':':<14}{status}")
    selections = info["handler_selections"]
    if selections:
        # Populated per handler as systems compile their dispatch tables in
        # this process; "declined" means the pure Python handler stayed
        # authoritative for that entry (customised table or patched hook).
        print("handler selections:")
        for handler, status in sorted(selections.items()):
            print(f"  {handler + ':':<40}{status}")
    return 0


def _command_run(args) -> int:
    from .experiments.scenario import get_scenario, run_scenario

    scenario = get_scenario(args.scenario)
    axes = _parse_axis_overrides(args.axes)
    result = run_scenario(
        scenario.name,
        scale=args.scale,
        workers=args.workers,
        cache_dir=args.cache_dir,
        axes=axes,
    )
    if args.json_path is not None:
        payload = json.dumps(result.to_jsonable(), indent=2, sort_keys=True)
        if args.json_path == "-":
            print(payload)
        else:
            with open(args.json_path, "w") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.scenario} [{result.scale}] to {args.json_path}")
        return 0
    if args.format == "json":
        print(json.dumps(result.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(result.text())
    return 0


def _service_config(args, workers=None):
    """Build a ServiceConfig from the shared service CLI options."""
    from .experiments.service import FaultPlan, ServiceConfig

    return ServiceConfig(
        store=args.store if hasattr(args, "store") else args.service_store,
        workers=workers,
        fault_plan=FaultPlan.parse(args.fault_plan),
        lease_timeout=args.lease_timeout,
        max_attempts=getattr(args, "max_attempts", 3),
        stall_timeout=getattr(args, "stall_timeout", 300.0),
    )


def _command_serve(args) -> int:
    import time

    from .experiments.scenario import get_scenario
    from .experiments.service import run_service_sweep

    scenario = get_scenario(args.scenario)
    if scenario.kind != "grid":
        raise ReproError(
            f"scenario {args.scenario!r} is {scenario.kind}, not a sweep; "
            "the job service only shards sweeps"
        )
    grid = scenario.grid(args.scale, axes=_parse_axis_overrides(args.axes))
    specs = grid.specs()
    started = time.perf_counter()
    points, summary = run_service_sweep(
        specs, _service_config(args, workers=args.workers), strict=False
    )
    completed = sum(1 for point in points if point is not None)
    ok = completed == len(points) and not summary.quarantined
    payload = {
        "scenario": args.scenario,
        "scale": args.scale,
        "store": str(args.store),
        "units": len(specs),
        "completed": completed,
        "ok": ok,
        "wall_seconds": round(time.perf_counter() - started, 3),
        "summary": summary.to_jsonable(),
    }
    if args.json_path is not None:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json_path == "-":
            print(text)
        else:
            with open(args.json_path, "w") as handle:
                handle.write(text + "\n")
    if args.json_path != "-":
        status = "PASS" if ok else f"FAIL ({len(summary.quarantined)} poison)"
        print(
            f"serve {args.scenario} [{args.scale}]: {status} — "
            f"{completed}/{len(specs)} units "
            f"({summary.resumed} resumed, {summary.redispatched} re-dispatched,"
            f" {summary.worker_deaths} worker death(s)) in "
            f"{payload['wall_seconds']:.1f}s"
        )
    return 0 if ok else 1


def _command_worker(args) -> int:
    from .experiments.jobstore import JobStore
    from .experiments.service import FaultPlan, run_worker

    store = JobStore(args.store, lease_timeout=args.lease_timeout)
    try:
        stats = run_worker(
            store,
            worker_id=args.worker_id,
            fault=FaultPlan.parse(args.fault_plan),
            exit_when_idle=not args.keep_alive,
            max_units=args.max_units,
        )
    finally:
        store.close()
    print(json.dumps(stats.to_jsonable(), indent=2, sort_keys=True))
    return 0


def _command_trace(args) -> int:
    from .workloads.streaming import JsonlTraceReader, write_trace_jsonl
    from .workloads.traffic import traffic_operation_stream

    if args.trace_command == "write":
        # Lazy per-node generators: the writer interleaves them chunk by
        # chunk, so the whole trace is never resident no matter how large.
        streams = {
            node: traffic_operation_stream(
                node,
                seed=args.seed,
                num_processors=args.processors,
                num_keys=args.num_keys,
                zipf_exponent=args.zipf,
                write_fraction=args.write_fraction,
                tenant_groups=args.tenants,
                operations=args.ops,
            )
            for node in range(args.processors)
        }
        rows = write_trace_jsonl(args.path, streams, interleave=args.window)
        print(
            f"wrote {rows} operations ({args.processors} processors, "
            f"seed {args.seed}) to {args.path}"
        )
        return 0
    reader = JsonlTraceReader(args.path)
    processors = reader.num_processors
    window = int(reader.header.get("interleave", 256))
    counts = {node: 0 for node in range(processors)}
    reads = writes = 0
    progress = True
    while progress:
        progress = False
        for node in range(processors):
            window_ops = reader.next_window(node, window)
            if not window_ops:
                continue
            progress = True
            counts[node] += len(window_ops)
            for operation in window_ops:
                if operation.is_write:
                    writes += 1
                else:
                    reads += 1
    total = reads + writes
    print(f"{args.path}: {reader.header.get('format')} "
          f"v{reader.header.get('version')}")
    print(f"  processors:      {processors}")
    print(f"  block bytes:     {reader.header.get('block_bytes')}")
    print(f"  interleave:      {window} ops/chunk")
    print(f"  operations:      {total} "
          f"({reads} reads, {writes} writes)")
    print(f"  per node:        min {min(counts.values())}, "
          f"max {max(counts.values())}")
    print(f"  peak buffered:   {reader.max_buffered_seen} ops "
          f"(round-robin streaming read)")
    return 0


def _command_verify(args) -> int:
    from .verification.campaign import run_campaign

    service = None
    if args.service_store is not None:
        service = _service_config(args, workers=args.workers)
    elif args.fault_plan is not None:
        raise ReproError("--fault-plan requires --service-store")
    result = run_campaign(
        args.campaign,
        workers=args.workers,
        protocols=args.protocols,
        seeds=_parse_seed_range(args.seed_range),
        artifact_dir=args.artifact_dir,
        shrink=not args.no_shrink,
        service=service,
    )
    payload = None
    if args.json_path is not None:
        payload = json.dumps(result.to_jsonable(), indent=2, sort_keys=True)
        if args.json_path == "-":
            print(payload)
        else:
            with open(args.json_path, "w") as handle:
                handle.write(payload + "\n")
    if args.json_path != "-":
        print(result.summary())
        for failure in result.failures:
            print(f"  FAILED {failure.task.describe()}")
            for line in failure.failures[:5]:
                print(f"    {line}")
            if failure.shrunk_trace is not None:
                print(
                    f"    shrunk to {len(failure.shrunk_trace.ops)} op(s)"
                    + (
                        f" -> {failure.artifact_path}"
                        if failure.artifact_path
                        else ""
                    )
                )
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``python -m repro list | head``).
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten output is silent, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status


def _dispatch(args) -> int:
    try:
        if args.command == "list":
            return _command_list(args)
        if args.command == "backend":
            return _command_backend(args)
        if args.command == "verify":
            return _command_verify(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "worker":
            return _command_worker(args)
        if args.command == "trace":
            return _command_trace(args)
        return _command_run(args)
    except (ReproError, _core.BackendError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except argparse.ArgumentTypeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
