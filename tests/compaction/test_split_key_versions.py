"""Snapshots keep several versions of a key, and compactions cut them
across the files of a run.  Whatever a policy picks next, every GET —
latest and at each held snapshot — and every scan must still read the
model's value.

Two ways this went wrong:

* a leveled compaction pushed down the file holding a key's newest
  versions and left the next file, holding its older ones, a level
  above them: GET (which takes the first level holding the key) read a
  stale value, and the next compaction of that file dropped the newer
  versions below as shadowed;
* a merge of stacked runs (tiered, lazy-leveled) handed its inputs to
  the compaction oldest run first, while the splice reads input order
  as age: a block of the older run was passed through as the newer one
  and its key's newer versions in the other run were dropped.
"""

import random

import pytest

from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options

POLICIES = ["leveled", "tiered:runs=2", "lazy-leveled:runs=2"]


def _options(policy):
    return Options(
        memtable_bytes=1024,
        sstable_bytes=256,
        block_bytes=64,
        level1_bytes=1024,
        level_multiplier=2,
        l0_compaction_trigger=2,
        compaction_policy=policy,
    )


def _mismatches(db, model, held):
    """Keys whose GET or scan disagrees with the model, live and at the
    last three held snapshots."""
    bad = [(None, k) for k, v in model.items() if db.get(k) != v]
    if dict(db.scan()) != model:
        bad.append((None, "scan"))
    for snap, snap_model in held[-3:]:
        bad += [(snap.sequence, k) for k, v in snap_model.items() if db.get(k, snapshot=snap) != v]
        if dict(db.scan(snapshot=snap)) != snap_model:
            bad.append((snap.sequence, "scan"))
    return bad


@pytest.mark.parametrize("policy", POLICIES)
def test_reads_match_the_model_while_compactions_cut_held_versions(policy):
    rng = random.Random(1)
    hot = [b"k%d" % i for i in range(3)]
    model, held = {}, []
    with DB(MemStorage(), _options(policy)) as db:
        for op in range(600):
            key = rng.choice(hot) if rng.random() < 0.5 else b"f%03d" % rng.randrange(200)
            model[key] = b"v%d" % op * rng.randrange(1, 6)
            db.put(key, model[key])
            if rng.random() < 0.3:
                held.append((db.snapshot(), dict(model)))
            if rng.random() < 0.02 and held:
                held.pop(rng.randrange(len(held)))[0].release()
            if op % 7 == 0:
                assert _mismatches(db, model, held) == [], (op, db.describe())
        assert db.obs.metrics.counter("db.compactions").value > 20
