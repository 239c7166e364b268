"""Pipelined Compaction for the LSM-tree — a full reproduction.

Reimplementation of Zhang et al., "Pipelined Compaction for the
LSM-tree" (IPDPS 2014): an LSM key-value storage engine whose
background compactions can run as the paper's Sequential (SCP),
Pipelined (PCP), Storage-Parallel (S-PPCP), or Computation-Parallel
(C-PPCP) procedures, plus the analytical bandwidth model (Eqs 1-7),
calibrated HDD/SSD device models, a pipeline schedule loop for
deterministic quantitative experiments, and the benchmark harness that
regenerates every figure of the paper's evaluation.

Package map
===========

``repro.db``        the key-value store facade (DB, snapshots, recovery)
``repro.core``      the paper's contribution: procedures, sub-tasks,
                    cost model, Eqs 1-7, the schedule loop (ties in
                    scheduling order, hand-offs as zero-delay events)
``repro.lsm``       engine substrate: memtable, WAL, SSTables, levels
``repro.codec``     varints, CRCs, block compression
``repro.devices``   HDD/SSD service-time models + virtual filesystem
``repro.workload``  key distributions, insert streams, YCSB mixes
``repro.bench``     profilers, virtual-clock runner, figure drivers

Quick start
===========

>>> from repro import DB, MemStorage, Options, ProcedureSpec
>>> db = DB(MemStorage(), Options(),
...         compaction_spec=ProcedureSpec.pcp())
>>> db.put(b"hello", b"world")
>>> db.get(b"hello")
b'world'
>>> db.close()
"""

from .core import ProcedureSpec
from .db import DB, Snapshot
from .devices import MemStorage, OSStorage
from .lsm import Options, WriteBatch

__version__ = "1.0.0"

__all__ = [
    "DB",
    "MemStorage",
    "OSStorage",
    "Options",
    "ProcedureSpec",
    "Snapshot",
    "WriteBatch",
    "__version__",
]
