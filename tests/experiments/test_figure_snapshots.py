"""Figure-equivalence: every paper scenario matches its frozen snapshot.

``tests/data/figure_snapshots_quick.json`` holds, at QUICK scale, the output
of every paper figure and Table 1, each keyed by its scenario's name, an
underscore and a description.  Each registered paper scenario must
keep producing *field-identical* output through :func:`run_scenario` — same
protocols, same x grids, same per-seed RunResults, same floats bit for bit
(the simulator is deterministic and floats round-trip exactly through JSON).
Regenerate the snapshot deliberately (and say so in the change log) only
when the event schedule or a scenario's published shape is *meant* to
change.

The whole module shares one on-disk sweep cache: figures 1, 5 and 6 run the
same grid, and figure 12 is a slice of figure 11, so points computed once are
reused — which also exercises the cache threading of ``run_scenario``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import QUICK
from repro.experiments.scenario import run_scenario
from repro.experiments.study import to_jsonable

SNAPSHOT_PATH = Path(__file__).parent.parent / "data" / "figure_snapshots_quick.json"

#: The paper's artefacts, in the order they share the sweep cache.
PAPER_SCENARIOS = tuple(f"figure{i}" for i in range(1, 13)) + ("table1",)


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(SNAPSHOT_PATH.read_text())


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("figure-snapshot-cache")


def snapshot_key(snapshots, name):
    (key,) = [key for key in snapshots if key.startswith(f"{name}_")]
    return key


def test_every_snapshot_belongs_to_one_scenario(snapshots):
    keys = [snapshot_key(snapshots, name) for name in PAPER_SCENARIOS]
    assert sorted(keys) == sorted(snapshots)


@pytest.mark.parametrize("name", PAPER_SCENARIOS)
def test_scenario_matches_snapshot(snapshots, sweep_cache, name):
    data = run_scenario(name, scale=QUICK, cache_dir=sweep_cache).data
    encoded = json.loads(json.dumps(to_jsonable(data)))
    assert encoded == snapshots[snapshot_key(snapshots, name)], (
        f"{name} no longer matches its frozen snapshot"
    )
