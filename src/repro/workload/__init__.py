"""Workload generation: key distributions, insert streams, YCSB mixes."""

from .generators import DEFAULT_VALUE_BYTES, InsertWorkload, ValueGenerator, make_workload
from .keys import (
    KEY_WIDTH,
    ZipfGenerator,
    format_key,
    sequential_keys,
    uniform_keys,
    zipfian_keys,
)
from .ycsb import YCSB_MIXES, Op, YCSBWorkload

__all__ = [
    "DEFAULT_VALUE_BYTES",
    "InsertWorkload",
    "KEY_WIDTH",
    "Op",
    "ValueGenerator",
    "YCSBWorkload",
    "YCSB_MIXES",
    "ZipfGenerator",
    "format_key",
    "make_workload",
    "sequential_keys",
    "uniform_keys",
    "zipfian_keys",
]
