"""The one partition function: ``crc32(rid) % n``.

Every layer that routes a resource to an owner — the sharded core's
shard router, the routed pass's worker router and its merge
bookkeeping — must agree on this mapping, or a resolution staged
against one partition would be applied to another.  Before this module
the expression was repeated at each site; now they all call
:func:`partition_of`, so policy-aware routing has a single seam.

CRC-32 is used for its stability: the mapping is a pure function of
the resource id and the partition count, identical across processes,
machines and Python versions (``zlib.crc32`` is specified by RFC
1950), which is what lets the routed pass's coordinator reason about
worker ownership without asking the workers.
"""

from __future__ import annotations

import zlib

__all__ = ["partition_of"]


def partition_of(rid: str, partitions: int) -> int:
    """Stable owner of ``rid`` among ``partitions`` partitions.

    ``partitions <= 1`` short-circuits to 0 without hashing — the
    single-shard fast path every monolithic component takes.
    """
    if partitions <= 1:
        return 0
    return zlib.crc32(rid.encode("utf-8")) % partitions
