"""Synthetic stand-ins for the paper's five full-system workloads (Table 2).

The paper evaluates BASH with Simics full-system simulations of four
commercial workloads and one scientific application.  Running DB2, Apache,
SPECjbb, Slashcode and Barnes-Hut under a functional SPARC simulator is out of
scope for a pure-Python reproduction, but the property that matters to a
coherence protocol is the *coherence request stream* each workload produces:
how often the processors miss in their L2 caches, what fraction of those
misses are sharing misses (cache-to-cache transfers), how read- or
write-heavy the misses are, and how much run-to-run timing variation the
workload exhibits.  The paper itself explains the differences between its
workloads in exactly those terms (Section 5.4).

Each preset below parameterises :class:`repro.workloads.synthetic.
SyntheticCommercialWorkload` to mimic the qualitative character the paper
describes:

* **OLTP** — operating-system intensive, high miss rate, large fraction of
  sharing misses, noticeable run-to-run variability.
* **Apache** (static web serving with SURGE) — high miss rate, many sharing
  misses from kernel/network data structures, high variability.
* **SPECjbb** — substantial miss rate but a *smaller fraction of sharing
  misses* (the paper calls this out), low variability.
* **Slashcode** — *lower cache miss rate* (called out by the paper), moderate
  sharing, high variability.
* **Barnes-Hut** — scientific code with a *low miss rate*, moderate sharing
  fraction during tree building, low variability.

The numbers are synthetic calibration constants, not measurements of the
original applications; README.md ("Running scenarios from the command line")
discusses how this substitution affects the comparison with the paper's
absolute results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class WorkloadPreset:
    """Calibration constants for one synthetic workload."""

    name: str
    description: str
    misses_per_1000_instructions: float
    sharing_fraction: float
    write_fraction: float
    shared_blocks: int
    private_blocks: int
    perturbation_cycles: int
    operations_per_processor: int = 150

    @property
    def instructions_per_miss(self) -> float:
        """Average number of instructions between L2 misses."""
        return 1000.0 / self.misses_per_1000_instructions


#: The five workloads of Table 2, as synthetic presets.
WORKLOAD_PRESETS: Dict[str, WorkloadPreset] = {
    "oltp": WorkloadPreset(
        name="OLTP",
        description=(
            "DB2 running a TPC-C-like transaction mix: OS intensive, high miss "
            "rate, sharing-miss heavy, noticeable run-to-run variation"
        ),
        misses_per_1000_instructions=8.0,
        sharing_fraction=0.65,
        write_fraction=0.45,
        shared_blocks=2048,
        private_blocks=8192,
        perturbation_cycles=40,
    ),
    "apache": WorkloadPreset(
        name="Apache",
        description=(
            "Apache serving static content under SURGE: kernel/network data "
            "sharing, high miss rate, high variability"
        ),
        misses_per_1000_instructions=7.0,
        sharing_fraction=0.60,
        write_fraction=0.40,
        shared_blocks=2048,
        private_blocks=8192,
        perturbation_cycles=40,
    ),
    "specjbb": WorkloadPreset(
        name="SPECjbb",
        description=(
            "Server-side Java middleware: significant miss rate but a smaller "
            "fraction of sharing misses, low variability"
        ),
        misses_per_1000_instructions=6.0,
        sharing_fraction=0.30,
        write_fraction=0.50,
        shared_blocks=1024,
        private_blocks=16384,
        perturbation_cycles=10,
    ),
    "slashcode": WorkloadPreset(
        name="Slashcode",
        description=(
            "Dynamic web serving (Apache + mod_perl + MySQL): lower cache miss "
            "rate, moderate sharing, high variability"
        ),
        misses_per_1000_instructions=3.0,
        sharing_fraction=0.55,
        write_fraction=0.40,
        shared_blocks=1024,
        private_blocks=8192,
        perturbation_cycles=40,
    ),
    "barnes": WorkloadPreset(
        name="Barnes-Hut",
        description=(
            "SPLASH-2 Barnes-Hut with 64K bodies: scientific code, low miss "
            "rate, moderate sharing during tree construction, low variability"
        ),
        misses_per_1000_instructions=2.5,
        sharing_fraction=0.45,
        write_fraction=0.35,
        shared_blocks=1024,
        private_blocks=8192,
        perturbation_cycles=10,
    ),
}

#: Order used by the Figure 10-12 reproductions.
WORKLOAD_ORDER = ("apache", "barnes", "oltp", "slashcode", "specjbb")


def preset(name: str) -> WorkloadPreset:
    """Look up a preset by its (case-insensitive) short name."""
    key = name.lower()
    if key not in WORKLOAD_PRESETS:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOAD_PRESETS)}"
        )
    return WORKLOAD_PRESETS[key]
