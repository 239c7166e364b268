"""LSM-tree engine substrate: formats, memtable, WAL, tables, levels."""

from .blockfmt import Block, BlockBuilder, BlockCorruption, bytewise_compare
from .bloom import BloomFilter, BloomFilterBuilder, bloom_hash, bloom_hashes
from .cache import LRUCache
from .ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    InternalKey,
    decode_internal_key,
    encode_internal_key,
    internal_compare,
    lookup_key,
)
from .iterators import (
    drop_tombstones,
    merge_iterators,
    merge_iterators_reverse,
    visible_entries,
)
from .memtable import GetResult, MemTable
from .options import Options
from .table_builder import TableBuilder
from .table_format import (
    BLOCK_TRAILER_SIZE,
    FOOTER_SIZE,
    BlockHandle,
    Footer,
    TableCorruption,
    decode_block_contents,
    encode_block_contents,
)
from .table_reader import Table
from .version import FileMetaData, Version, sstable_name
from .wal import LogCorruption, LogReader, LogWriter, WriteBatch

__all__ = [
    "BLOCK_TRAILER_SIZE",
    "Block",
    "BlockBuilder",
    "BlockCorruption",
    "BlockHandle",
    "BloomFilter",
    "BloomFilterBuilder",
    "FOOTER_SIZE",
    "FileMetaData",
    "Footer",
    "GetResult",
    "InternalKey",
    "KIND_DELETE",
    "KIND_VALUE",
    "LRUCache",
    "LogCorruption",
    "LogReader",
    "LogWriter",
    "MAX_SEQUENCE",
    "MemTable",
    "Options",
    "Table",
    "TableBuilder",
    "TableCorruption",
    "Version",
    "WriteBatch",
    "bloom_hash",
    "bloom_hashes",
    "bytewise_compare",
    "decode_block_contents",
    "decode_internal_key",
    "drop_tombstones",
    "encode_block_contents",
    "encode_internal_key",
    "internal_compare",
    "lookup_key",
    "merge_iterators",
    "merge_iterators_reverse",
    "sstable_name",
    "visible_entries",
]
