"""LRU caching of graphics commands (paper §V-A).

Consecutive frames issue near-identical command sequences; GBooster caches
"the latest and frequent commands on the user device and the service
device" so repeats travel as short references instead of full payloads.

The sender and receiver caches must stay in lockstep or a reference would
dangle.  :class:`CachePair` couples two :class:`LRUCommandCache` instances
and runs the identical update rule on both sides, asserting agreement — the
invariant the property tests hammer on.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.gles.commands import GLCommand

# Wire size of a cache reference: 2-byte marker + 8-byte key digest.
REFERENCE_BYTES = 10
REFERENCE_MARKER = b"\xCA\xFE"


def _key_digest(key: Tuple) -> bytes:
    """Stable 8-byte digest of a cache key for the wire reference.

    ``hash()`` is randomized per process (PYTHONHASHSEED), which made the
    reference bytes — and every downstream compressed size — differ
    between runs of the same seed.
    """
    return hashlib.blake2b(repr(key).encode(), digest_size=8).digest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: re-inserts of an already-cached key (recency/bytes refresh, not a
    #: miss) — policies reading hits/misses alone would misread churn
    refreshes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCommandCache:
    """One side's cache: command key -> cached wire bytes."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, bytes]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def lookup(self, key: Tuple) -> Optional[bytes]:
        """Returns cached bytes and refreshes recency, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def insert(self, key: Tuple, wire: bytes) -> Optional[Tuple]:
        """Cache ``wire`` under ``key``; returns the key evicted, if any."""
        if key in self._entries:
            # Refresh both recency AND the stored bytes: a re-inserted key
            # may carry different wire bytes (e.g. after the sender evicted
            # and re-encoded), and serving stale bytes on a later hit would
            # desync the receiver's replay.
            self._entries[key] = wire
            self._entries.move_to_end(key)
            self.stats.refreshes += 1
            return None
        self._entries[key] = wire
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            return evicted
        return None

    def keys_in_order(self) -> Tuple[Tuple, ...]:
        """Oldest-to-newest key order (exposed for consistency checks)."""
        return tuple(self._entries.keys())

    def byte_size(self) -> int:
        """Total bytes of cached wire payloads (admission accounting)."""
        return sum(len(wire) for wire in self._entries.values())


class CachePair:
    """Sender + receiver caches updated by one deterministic rule.

    ``encode`` decides, for one command with known wire bytes, whether to
    send a reference (cache hit on the sender) or the full payload (miss;
    both sides then insert).  ``decode`` replays the same rule on the
    receiver and returns the command's wire bytes.

    ``references`` maps cached keys to their wire references
    (:data:`REFERENCE_MARKER` + :func:`_key_digest`).  A reference is
    computed on its key's first hit, not on insert, since most misses
    never hit again and a set-up upload's key holds the whole texture; it
    is dropped when the key is evicted, so the store never outgrows the
    cache.  Later hits whose key only compares equal (``-0.0`` for
    ``0.0``) are sent that same reference.
    """

    def __init__(self, capacity: int = 4096):
        self.sender = LRUCommandCache(capacity)
        self.receiver = LRUCommandCache(capacity)
        self.references: Dict[Tuple, bytes] = {}

    def encode(self, cmd: GLCommand, wire: bytes) -> Tuple[int, bool]:
        """Returns ``(bytes_on_wire, was_hit)`` for this command."""
        key = cmd.key()
        if self.sender.lookup(key) is not None:
            # Receiver must refresh recency identically.
            hit = self.receiver.lookup(key)
            if hit is None:
                raise RuntimeError(
                    "cache desync: sender hit but receiver miss for "
                    f"{cmd.name}"
                )
            if key not in self.references:
                self.references[key] = REFERENCE_MARKER + _key_digest(key)
            return REFERENCE_BYTES, True
        evicted = self.sender.insert(key, wire)
        self.receiver.insert(key, wire)
        if evicted is not None:
            self.references.pop(evicted, None)
        return len(wire), False

    def verify_consistent(self) -> bool:
        return self.sender.keys_in_order() == self.receiver.keys_in_order()

    @property
    def hit_rate(self) -> float:
        return self.sender.stats.hit_rate
