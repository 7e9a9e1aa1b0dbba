"""Internet-service traffic models: Zipfian popularity, diurnal/bursty load.

The paper drives its machines with synthetic commercial workloads whose
reference streams are stationary.  Production services are not: key
popularity is heavily skewed (a Zipf law over the object space), offered load
swings with the time of day, arrivals cluster into bursts, and one machine
serves many tenants whose address spaces never overlap.  This module grows
the workload space in that direction:

* :class:`ZipfSampler` — exact inverse-CDF sampling of a Zipf(``exponent``)
  popularity law over ``num_keys`` keys, plus the analytic top-``k`` mass the
  tests compare measured skew against.
* :class:`TrafficWorkload` — a closed-loop workload whose per-node reference
  stream draws keys Zipf-skewed over a (possibly tenant-sharded) block space,
  with think time modulated by a diurnal load curve and/or an on/off burst
  process evaluated at issue time (``now``), so offered load genuinely varies
  over the run.
* :class:`OpenLoopHomeWorkload` — the machine-repairman configuration of
  :mod:`repro.queueing.mva`: every node streams cold private reads to blocks
  homed at a single node with exponential think time, which makes the home's
  outbound data link the single FIFO service station of the analytic model
  (see :mod:`repro.queueing.validation`).

The *key sequence* of a node is a pure function of ``(spec, seed, node)`` —
each node draws from its own ``random.Random((seed << 16) ^ node)`` exactly
like :func:`repro.workloads.patterns.build_mixed_trace` — so the same traffic
can be replayed bit-identically through every protocol, pre-materialised into
a trace (:func:`build_traffic_trace`) or streamed in bounded windows
(:mod:`repro.workloads.streaming`).  Only the *think time* of the diurnal and
bursty shapes depends on simulated time; the stationary shapes (plain Zipfian
and multi-tenant) are therefore exactly streamable.  One helper,
``_draw_operation``, makes every reference: the streams call it with an RNG
of their own, and a bound :class:`TrafficWorkload` with the per-node RNGs it
keeps on itself (``_rngs``, rebuilt by every ``bind``).  Because that state
is on the workload, the compiled issue step (:func:`compile_issue_source`)
can draw a stationary workload's references in C from the very same RNG and
counters, and a node may pass between the C and the Python draw at any
reference without changing its stream.

Each shape ships as a frozen picklable spec (``__call__(seed) -> Workload``
plus ``cache_token()``) mirroring the PR-4 pattern specs, so the sweep
executor and the job-store service (its result cache) run them unchanged.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .. import _core
from .._core import is_stock, stock
from ..errors import WorkloadError
from .base import C_INT_LIMIT, MemoryOperation, Workload, c_ints, stock_rng

#: Default block size used when materialising traffic outside a bound system.
DEFAULT_BLOCK_BYTES = 64


@stock
class ZipfSampler:
    """Inverse-CDF sampler for a Zipf(``exponent``) law over ranked keys.

    Rank 0 is the most popular key; ``P(rank = r) ∝ 1 / (r + 1) ** exponent``.
    The cumulative table costs O(num_keys) once, then each draw is one bisect.
    """

    def __init__(self, num_keys: int, exponent: float) -> None:
        if num_keys < 1:
            raise WorkloadError(f"num_keys must be positive, got {num_keys}")
        if exponent < 0:
            raise WorkloadError(f"zipf exponent must be >= 0, got {exponent}")
        self.num_keys = num_keys
        self.exponent = exponent
        weights = [1.0 / (rank + 1) ** exponent for rank in range(num_keys)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def rank(self, u: float) -> int:
        """The key rank at quantile ``u`` of the popularity law."""
        if not 0.0 <= u <= 1.0:
            raise WorkloadError(f"quantile must be in [0, 1], got {u}")
        index = bisect.bisect_left(self._cumulative, u * self._total)
        return min(index, self.num_keys - 1)

    def sample(self, rng: random.Random) -> int:
        """Draw one key rank from ``rng``."""
        return self.rank(rng.random())

    def top_k_mass(self, k: int) -> float:
        """Analytic probability mass of the ``k`` most popular keys.

        ``H(k, s) / H(num_keys, s)`` — what the skew tests compare measured
        hit counts against.
        """
        if k < 1:
            return 0.0
        k = min(k, self.num_keys)
        return self._cumulative[k - 1] / self._total


def tenant_of(node: int, num_processors: int, tenant_groups: int) -> int:
    """The tenant group a node belongs to (contiguous, balanced grouping)."""
    if tenant_groups < 1:
        raise WorkloadError(f"tenant_groups must be positive, got {tenant_groups}")
    groups = min(tenant_groups, num_processors)
    return node * groups // num_processors


def _validate_stream(write_fraction, base_think: int, think_jitter: int) -> None:
    """Reject a read/write mix or think time no stream can draw."""
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError(f"write_fraction must be in [0, 1], got {write_fraction}")
    if base_think < 0 or think_jitter < 0:
        raise WorkloadError("think time parameters must be non-negative")


def _draw_operation(
    rng: random.Random,
    sampler: ZipfSampler,
    write_fraction: float,
    base_think: int,
    think_jitter: int,
    key_base: int,
    block_bytes: int,
) -> MemoryOperation:
    """One reference of a node's stream, drawn from ``rng``.

    The draws -- key rank, read or write, think jitter, in that order --
    define the stream; the compiled issue step makes the same draws from
    the same RNG in the same order.
    """
    rank = sampler.sample(rng)
    is_write = rng.random() < write_fraction
    think = base_think
    if think_jitter:
        think += rng.randrange(think_jitter + 1)
    return MemoryOperation(
        address=(key_base + rank) * block_bytes,
        is_write=is_write,
        think_cycles=think,
        instructions=0,
        label="svc-write" if is_write else "svc-read",
    )


def traffic_operation_stream(
    node: int,
    *,
    seed: int,
    num_processors: int,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    num_keys: int = 512,
    zipf_exponent: float = 0.9,
    write_fraction: float = 0.10,
    base_think: int = 60,
    think_jitter: int = 16,
    tenant_groups: int = 1,
    operations: Optional[int] = None,
    sampler: Optional[ZipfSampler] = None,
) -> Iterator[MemoryOperation]:
    """One node's deterministic base reference stream.

    Infinite when ``operations`` is None (the streaming soak path); the
    stream depends only on the parameters, ``seed`` and ``node`` — never on
    simulated time or on other nodes — so any prefix can be re-generated,
    materialised, or replayed window by window.
    """
    if num_processors < 1:
        raise WorkloadError(f"num_processors must be positive, got {num_processors}")
    _validate_stream(write_fraction, base_think, think_jitter)
    if sampler is None:
        sampler = ZipfSampler(num_keys, zipf_exponent)
    elif sampler.num_keys != num_keys or sampler.exponent != zipf_exponent:
        raise WorkloadError("sampler does not match the requested Zipf law")
    rng = random.Random((seed << 16) ^ node)
    key_base = tenant_of(node, num_processors, tenant_groups) * num_keys
    counter = range(operations) if operations is not None else itertools.count()
    for _ in counter:
        yield _draw_operation(
            rng,
            sampler,
            write_fraction,
            base_think,
            think_jitter,
            key_base,
            block_bytes,
        )


def build_traffic_trace(
    num_processors: int,
    operations_per_processor: int,
    *,
    seed: int,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    num_keys: int = 512,
    zipf_exponent: float = 0.9,
    write_fraction: float = 0.10,
    base_think: int = 60,
    think_jitter: int = 16,
    tenant_groups: int = 1,
) -> Dict[int, List[MemoryOperation]]:
    """Materialise the traffic streams into per-node operation lists.

    The materialised trace equals the streamed one operation for operation
    (same generator), which is what the streaming-equivalence tests pin.
    """
    sampler = ZipfSampler(num_keys, zipf_exponent)
    return {
        node: list(
            traffic_operation_stream(
                node,
                seed=seed,
                num_processors=num_processors,
                block_bytes=block_bytes,
                num_keys=num_keys,
                zipf_exponent=zipf_exponent,
                write_fraction=write_fraction,
                base_think=base_think,
                think_jitter=think_jitter,
                tenant_groups=tenant_groups,
                operations=operations_per_processor,
                sampler=sampler,
            )
        )
        for node in range(num_processors)
    }


@stock
class TrafficWorkload(Workload):
    """Closed-loop internet-service traffic with time-varying offered load.

    Key choice, read/write mix and base think time come from the node's
    deterministic stream; the *instantaneous* think time is the base divided
    by :meth:`load_factor` evaluated at issue time, so a diurnal peak or a
    burst window genuinely raises the offered load while it lasts.
    """

    def __init__(
        self,
        operations_per_processor: int,
        *,
        seed: int = 0,
        num_keys: int = 512,
        zipf_exponent: float = 0.9,
        write_fraction: float = 0.10,
        base_think: int = 60,
        think_jitter: int = 16,
        diurnal_period: int = 0,
        diurnal_amplitude: float = 0.0,
        burst_on: int = 0,
        burst_off: int = 0,
        burst_factor: float = 1.0,
        tenant_groups: int = 1,
    ) -> None:
        if operations_per_processor < 1:
            raise WorkloadError(
                "operations_per_processor must be positive, got "
                f"{operations_per_processor}"
            )
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise WorkloadError(
                f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}"
            )
        if diurnal_period < 0 or burst_on < 0 or burst_off < 0:
            raise WorkloadError("period parameters must be non-negative")
        if burst_on and burst_factor < 1.0:
            raise WorkloadError(
                f"burst_factor must be >= 1 during bursts, got {burst_factor}"
            )
        _validate_stream(write_fraction, base_think, think_jitter)
        if tenant_groups < 1:
            raise WorkloadError(f"tenant_groups must be positive, got {tenant_groups}")
        self.operations_per_processor = operations_per_processor
        self.seed = seed
        self.num_keys = num_keys
        self.zipf_exponent = zipf_exponent
        self.write_fraction = write_fraction
        self.base_think = base_think
        self.think_jitter = think_jitter
        self.diurnal_period = diurnal_period
        self.diurnal_amplitude = diurnal_amplitude
        self.burst_on = burst_on
        self.burst_off = burst_off
        self.burst_factor = burst_factor
        self.tenant_groups = tenant_groups
        self._sampler = ZipfSampler(num_keys, zipf_exponent)
        self._rngs: Dict[int, random.Random] = {}
        self._key_bases: Dict[int, int] = {}
        self._issued: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        # Fresh per-node RNGs on every bind: re-binding (system reset, sweep
        # reuse) replays the identical traffic from the start.
        self._rngs = {
            node: random.Random((self.seed << 16) ^ node)
            for node in range(num_processors)
        }
        self._key_bases = {
            node: tenant_of(node, num_processors, self.tenant_groups) * self.num_keys
            for node in range(num_processors)
        }
        self._issued = {node: 0 for node in range(num_processors)}
        self._completed = {node: 0 for node in range(num_processors)}

    # ------------------------------------------------------- load modulation

    def load_factor(self, now: int) -> float:
        """Offered-load multiplier at cycle ``now`` (1.0 = nominal)."""
        factor = 1.0
        if self.diurnal_period:
            phase = 2.0 * math.pi * (now % self.diurnal_period) / self.diurnal_period
            factor *= 1.0 + self.diurnal_amplitude * math.sin(phase)
        if self.burst_on:
            cycle = self.burst_on + self.burst_off
            if (now % cycle) < self.burst_on:
                factor *= self.burst_factor
        return factor

    # ------------------------------------------------------ workload contract

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        try:
            issued = self._issued[node_id]
        except KeyError:
            self.require_bound()
            raise
        if issued >= self.operations_per_processor:
            return None
        operation = _draw_operation(
            self._rngs[node_id],
            self._sampler,
            self.write_fraction,
            self.base_think,
            self.think_jitter,
            self._key_bases[node_id],
            self.block_bytes,
        )
        self._issued[node_id] = issued + 1
        factor = self.load_factor(now)
        if factor != 1.0:
            operation.think_cycles = int(round(operation.think_cycles / factor))
        return operation

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] = self._completed.get(node_id, 0) + 1

    def finished(self, node_id: int) -> bool:
        return self._completed.get(node_id, 0) >= self.operations_per_processor

    def describe(self) -> str:
        shape = [f"zipf={self.zipf_exponent}", f"keys={self.num_keys}"]
        if self.diurnal_period:
            shape.append(f"diurnal={self.diurnal_period}cy")
        if self.burst_on:
            shape.append(f"burst={self.burst_on}/{self.burst_off}cy")
        if self.tenant_groups > 1:
            shape.append(f"tenants={self.tenant_groups}")
        return f"Traffic({', '.join(shape)})"


#: The C copy of each sampler's cumulative table, shared by every node's
#: step: sampler -> (the list it copies, the extension's ZipfTable).
_zipf_tables: "weakref.WeakKeyDictionary[ZipfSampler, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _zipf_table(sampler: ZipfSampler):
    """The extension's copy of ``sampler._cumulative``, built once, or None.

    None when the table holds anything but floats (the C bisect compares
    doubles).
    """
    cumulative = sampler._cumulative
    cached = _zipf_tables.get(sampler)
    if cached is not None and cached[0] is cumulative:
        return cached[1]
    try:
        table = _core.extension_loaded().ZipfTable(cumulative)
    except TypeError:
        return None
    _zipf_tables[sampler] = (cumulative, table)
    return table


def compile_issue_source(workload: TrafficWorkload, sequencer):
    """``(1, kwargs)`` for the C step's traffic source, or None.

    Source mode 1 mirrors :meth:`TrafficWorkload.next_operation` and
    :meth:`~TrafficWorkload.on_complete` on a stationary workload: the
    ``_issued`` quota test, ``_draw_operation``'s draws from the node's own
    RNG (its C ``random`` for the key and the read/write mix, its C
    ``getrandbits`` as ``randrange`` calls it for the jitter), the
    ``MemoryOperation`` it builds and the ``_completed`` count -- on the
    workload's own RNG and dicts, so pure and C draws interleave freely.
    It needs a stock workload, sampler, ``MemoryOperation`` and RNG
    (:func:`~repro.workloads.base.stock_rng`), no diurnal or burst
    modulation, exact-int parameters whose arithmetic stays inside 64 bits
    and a cumulative table of floats; any other shape returns None and the
    step calls the bound Python methods.  Runs per node at the start of
    every compiled run, after ``bind``.
    """
    node = sequencer.node_id
    sampler = workload._sampler
    rng = workload._rngs.get(node)
    key_base = workload._key_bases.get(node)
    block_bytes = workload.block_bytes
    if not (
        is_stock(workload, sampler, MemoryOperation)
        and stock_rng(rng)
        and c_ints(
            workload.operations_per_processor,
            workload.base_think,
            workload.think_jitter,
            workload.diurnal_period,
            workload.burst_on,
            sampler.num_keys,
            key_base,
            block_bytes,
        )
        and workload.diurnal_period == 0
        and workload.burst_on == 0
        and (key_base + sampler.num_keys) * block_bytes < C_INT_LIMIT
        and type(workload.write_fraction) in (int, float)
        and type(sampler._total) is float
        and type(workload._issued) is dict
        and type(workload._completed) is dict
    ):
        return None
    table = _zipf_table(sampler)
    if table is None:
        return None
    return 1, {
        "op_cls": MemoryOperation,
        "rng": rng,
        "issued": workload._issued,
        "completed": workload._completed,
        "quota": workload.operations_per_processor,
        "think": workload.base_think,
        "jitter": workload.think_jitter,
        "keys": sampler.num_keys,
        "key_base": key_base,
        "op_block_bytes": block_bytes,
        "zipf": table,
        "zipf_total": sampler._total,
        "write_fraction": float(workload.write_fraction),
    }


class OpenLoopHomeWorkload(Workload):
    """Cold private reads all homed at one node, with exponential think time.

    Every node except ``home`` cycles through: think (exponential, mean
    ``mean_think``), then read a never-before-seen block whose home is the
    ``home`` node.  With one outstanding request per sequencer this is
    exactly the closed machine-repairman network of
    :func:`repro.queueing.mva.mva_single_station`: the think station is the
    processors, and the single FIFO service station is the home's outbound
    data link.  The home node issues nothing (it is the server).
    """

    def __init__(
        self,
        operations_per_processor: int,
        mean_think: float,
        home: int = 0,
        seed: int = 0,
        issuers: Optional[int] = None,
    ) -> None:
        if operations_per_processor < 1:
            raise WorkloadError(
                "operations_per_processor must be positive, got "
                f"{operations_per_processor}"
            )
        if mean_think < 0:
            raise WorkloadError(f"mean_think must be non-negative, got {mean_think}")
        if issuers is not None and issuers < 1:
            raise WorkloadError(f"issuers must be positive, got {issuers}")
        self.operations_per_processor = operations_per_processor
        self.mean_think = mean_think
        self.home = home
        self.seed = seed
        self.issuers = issuers
        self._rngs: Dict[int, random.Random] = {}
        self._issued: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}

    def bind(self, num_processors: int, block_bytes: int, rng) -> None:
        super().bind(num_processors, block_bytes, rng)
        if not 0 <= self.home < num_processors:
            raise WorkloadError(
                f"home node {self.home} outside 0..{num_processors - 1}"
            )
        self._rngs = {
            node: random.Random((self.seed << 16) ^ node)
            for node in range(num_processors)
        }
        self._issued = {node: 0 for node in range(num_processors)}
        self._completed = {node: 0 for node in range(num_processors)}

    def _quota(self, node_id: int) -> int:
        """Each issuing node's operation budget (0 for the home/spare nodes).

        ``issuers`` caps the number of customers in the closed network while
        the machine size stays fixed, which is how the MVA validation sweeps
        population without changing the service station.
        """
        if node_id == self.home:
            return 0
        rank = node_id if node_id < self.home else node_id - 1
        if self.issuers is not None and rank >= self.issuers:
            return 0
        return self.operations_per_processor

    def next_operation(self, node_id: int, now: int) -> Optional[MemoryOperation]:
        issued = self._issued.get(node_id, 0)
        if issued >= self._quota(node_id):
            return None
        self._issued[node_id] = issued + 1
        # Block index ≡ home (mod num_processors) lands at the home node and
        # is unique per (node, issue), so every read is a cold miss served
        # from the home's memory — no sharing, no evictions at sane capacity.
        block = self.home + self.num_processors * (
            1 + node_id * self.operations_per_processor + issued
        )
        think = 0
        if self.mean_think > 0:
            think = int(round(self._rngs[node_id].expovariate(1.0 / self.mean_think)))
        return MemoryOperation(
            address=block * self.block_bytes,
            is_write=False,
            think_cycles=think,
            instructions=0,
            label="openloop-read",
        )

    def on_complete(self, node_id, operation, latency, was_miss, now) -> None:
        self._completed[node_id] = self._completed.get(node_id, 0) + 1

    def finished(self, node_id: int) -> bool:
        return self._completed.get(node_id, 0) >= self._quota(node_id)

    def describe(self) -> str:
        return (
            f"OpenLoopHome(home={self.home}, Z={self.mean_think}, "
            f"ops/proc={self.operations_per_processor})"
        )


# --------------------------------------------------------- picklable specs


@dataclass(frozen=True)
class ZipfianTrafficSpec:
    """Stationary Zipf-skewed service traffic over one shared key space."""

    operations_per_processor: int = 80
    num_keys: int = 512
    zipf_exponent: float = 0.9
    write_fraction: float = 0.10
    base_think: int = 60
    think_jitter: int = 16
    tenant_groups: int = 1

    def __call__(self, seed: int) -> Workload:
        return TrafficWorkload(
            self.operations_per_processor,
            seed=seed,
            num_keys=self.num_keys,
            zipf_exponent=self.zipf_exponent,
            write_fraction=self.write_fraction,
            base_think=self.base_think,
            think_jitter=self.think_jitter,
            tenant_groups=self.tenant_groups,
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class DiurnalTrafficSpec:
    """Zipfian traffic whose offered load follows a sinusoidal daily curve."""

    operations_per_processor: int = 80
    num_keys: int = 512
    zipf_exponent: float = 0.9
    write_fraction: float = 0.10
    base_think: int = 60
    think_jitter: int = 16
    diurnal_period: int = 20_000
    diurnal_amplitude: float = 0.6

    def __call__(self, seed: int) -> Workload:
        return TrafficWorkload(
            self.operations_per_processor,
            seed=seed,
            num_keys=self.num_keys,
            zipf_exponent=self.zipf_exponent,
            write_fraction=self.write_fraction,
            base_think=self.base_think,
            think_jitter=self.think_jitter,
            diurnal_period=self.diurnal_period,
            diurnal_amplitude=self.diurnal_amplitude,
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class BurstyTrafficSpec:
    """Zipfian traffic with an on/off burst process multiplying arrival rate."""

    operations_per_processor: int = 80
    num_keys: int = 512
    zipf_exponent: float = 0.9
    write_fraction: float = 0.10
    base_think: int = 60
    think_jitter: int = 16
    burst_on: int = 4_000
    burst_off: int = 12_000
    burst_factor: float = 4.0

    def __call__(self, seed: int) -> Workload:
        return TrafficWorkload(
            self.operations_per_processor,
            seed=seed,
            num_keys=self.num_keys,
            zipf_exponent=self.zipf_exponent,
            write_fraction=self.write_fraction,
            base_think=self.base_think,
            think_jitter=self.think_jitter,
            burst_on=self.burst_on,
            burst_off=self.burst_off,
            burst_factor=self.burst_factor,
        )

    def cache_token(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class MultiTenantTrafficSpec:
    """Zipfian traffic sharded across disjoint per-tenant address spaces."""

    operations_per_processor: int = 80
    num_keys: int = 256
    zipf_exponent: float = 0.9
    write_fraction: float = 0.10
    base_think: int = 60
    think_jitter: int = 16
    tenant_groups: int = 4

    def __call__(self, seed: int) -> Workload:
        return TrafficWorkload(
            self.operations_per_processor,
            seed=seed,
            num_keys=self.num_keys,
            zipf_exponent=self.zipf_exponent,
            write_fraction=self.write_fraction,
            base_think=self.base_think,
            think_jitter=self.think_jitter,
            tenant_groups=self.tenant_groups,
        )

    def cache_token(self) -> str:
        return repr(self)
