"""A real LZ77 byte compressor in the LZ4 style.

The paper uses LZ4 [23] because it is light on CPU while reaching ~70%
reduction on graphics command streams.  This is a from-scratch
implementation of the same family: greedy hash-chain match finding, a
token-based block format (literal-run length + match length nibbles, LZ4's
15/255 extension bytes, little-endian 16-bit offsets), and a linear-time
decompressor.  ``decompress(compress(x)) == x`` for all byte strings, which
the property tests exercise.

Match finding.  Every position ``p <= n - 4`` has a 16-bit hash of its
4-byte window.  The greedy parser's candidates at cursor ``p`` are the last
``max_chain`` earlier positions with the same hash, most recent first;
``max_chain=0`` means the whole chain.  That candidate set is a pure
function of the input, because a byte-at-a-time hash-chain parser indexes
every position exactly once, in increasing order, before its cursor passes
it: visited positions when visited, positions inside a match when the match
is emitted.  So the chains are precomputed with numpy:

* every window's key (its 4 bytes as a uint32) and hash, in one pass;
* a same-hash predecessor array, from a stable sort of the hashes;
* a vectorised walk of up to ``max_chain`` chain steps that marks each
  position where some candidate within ``MAX_OFFSET`` has an equal key.
  Those are exactly the positions where the greedy parser finds a match of
  at least ``MIN_MATCH``.  The walk runs a block at a time from the cursor
  on, so a block that lies inside one long match is never walked.

The Python loop jumps from mark to mark with ``bytearray.find``.  Only at a
mark does it walk the chain, extending matches with slice compares and
keeping the first candidate whose length is strictly greater.  The output
is byte-identical to the per-byte parser; ``tests/codec`` keeps a frozen
copy of that parser as a differential oracle.  The arrays are int32/uint32
and no Python object is made per position, so memory stays a few bytes
per input byte.

Block format (per sequence):
    token byte: (literal_len_nibble << 4) | match_len_nibble
    [literal length extension bytes]  while nibble/extension == 15/255
    literal bytes
    2-byte LE match offset (1..65535)          -- absent in the final run
    [match length extension bytes]             -- match len = nibble + 4
"""

from __future__ import annotations

import itertools

import numpy as np

MIN_MATCH = 4
MAX_OFFSET = 0xFFFF
_HASH_LEN = 4
#: positions marked per block of the chain walk: bounds the walk's
#: temporaries, and is the unit skipped when a match covers it
_WALK_BLOCK = 1 << 14


def _write_extension(value: int, out: bytearray) -> None:
    """Append the extension bytes of a length whose nibble is saturated."""
    remainder = value - 15
    while remainder >= 255:
        out.append(255)
        remainder -= 255
    out.append(remainder)


def _window_chains(data: bytes):
    """Every 4-byte window's key, and its same-hash predecessor.

    ``keys[p]`` is the window at ``p`` as a little-endian uint32, and
    ``prev[p]`` is the latest ``q < p`` whose window hashes like ``p``'s,
    or -1.  Both cover the ``len(data) - 3`` windows.
    """
    m = len(data) - _HASH_LEN + 1
    b = np.frombuffer(data, dtype=np.uint8)
    keys = np.ndarray((m,), dtype="<u4", buffer=data, strides=(1,))
    # The 16-bit mix (b0*2654435761) ^ (b1*40503) ^ (b2*31) ^ b3; uint16
    # wrap-around keeps exactly the low 16 bits of each product.
    hashes = np.multiply(b[:m], 2654435761 & 0xFFFF, dtype=np.uint16)
    hashes ^= np.multiply(b[1:m + 1], 40503, dtype=np.uint16)
    hashes ^= np.multiply(b[2:m + 2], 31, dtype=np.uint16)
    hashes ^= b[3:]
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    prev = np.empty(m, dtype=np.int32)
    prev[order[0]] = -1
    prev[order[1:]] = np.where(
        sorted_hashes[1:] == sorted_hashes[:-1],
        order[:-1].astype(np.int32),
        -1,
    )
    return keys, prev


def _mark_block(
    keys, prev, marked, start: int, stop: int, max_chain: int
) -> None:
    """Set ``marked[p]`` for each ``p`` in ``[start, stop)`` with a match.

    A position has a match of at least ``MIN_MATCH`` iff one of its first
    ``max_chain`` chain candidates (all of them for 0) lies within
    ``MAX_OFFSET`` and has an equal key.  All positions of the block walk
    their chains together, one candidate per step.
    """
    pos = np.arange(start, stop, dtype=np.int32)
    cand = prev[start:stop]
    for _ in range(max_chain) if max_chain else itertools.count():
        # Offsets only grow along a chain, so a candidate past the window
        # ends that position's walk.
        live = (cand >= 0) & (pos - cand <= MAX_OFFSET)
        pos = pos[live]
        if not pos.size:
            return
        cand = cand[live]
        hit = keys[cand] == keys[pos]
        marked[pos[hit]] = 1
        miss = ~hit
        pos = pos[miss]
        cand = prev[cand[miss]]


def _common_length(
    data: bytes, a: int, b: int, length: int, limit: int
) -> int:
    """Length of the common prefix of ``data[a:]`` and ``data[b:]``.

    The first ``length`` bytes are known to match; the result is capped at
    ``limit``.  Compares galloping slices instead of single bytes.
    """
    step = 8
    while length < limit:
        if step > limit - length:
            step = limit - length
        end = length + step
        if data[a + length:a + end] == data[b + length:b + end]:
            length += step
            step <<= 1
        elif step == 1:
            break
        else:
            step >>= 1
    return length


def compress(data: bytes, max_chain: int = 16) -> bytes:
    """Compress ``data``; always decompressible by :func:`decompress`.

    ``max_chain`` bounds the match-finder effort (LZ4's speed/ratio knob):
    at each position at most the ``max_chain`` most recent same-hash
    candidates are tried.  ``0`` means no bound (every candidate within
    ``MAX_OFFSET``); a negative value raises :class:`ValueError`.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    if max_chain < 0:
        raise ValueError(f"max_chain must be >= 0, got {max_chain}")
    data = bytes(data)
    n = len(data)
    out = bytearray()
    literal_start = 0
    windows = n - _HASH_LEN + 1
    if windows > 0:
        keys, prev = _window_chains(data)
        prev_at = memoryview(prev)
        marks = bytearray(n)
        marked = np.frombuffer(marks, dtype=np.uint8)
        chain_cap = max_chain or n
        scan = ready = 0
        while scan < windows:
            if scan >= ready:
                # Marks are computed a block at a time from the cursor on,
                # so blocks that lie inside one long match are never walked.
                ready = min(scan + _WALK_BLOCK, windows)
                _mark_block(keys, prev, marked, scan, ready, max_chain)
            pos = marks.find(1, scan, ready)
            if pos < 0:
                scan = ready
                continue
            # A marked position has a match of at least MIN_MATCH, so only
            # a candidate longer than MIN_MATCH - 1 can become the best.
            limit = n - pos
            best_len = MIN_MATCH - 1
            best_off = 0
            candidate = prev_at[pos]
            for _ in range(chain_cap):
                if candidate < 0 or pos - candidate > MAX_OFFSET:
                    break
                if (
                    data[candidate + best_len] == data[pos + best_len]
                    and data[candidate:candidate + best_len]
                    == data[pos:pos + best_len]
                ):
                    best_len = _common_length(
                        data, candidate, pos, best_len + 1, limit
                    )
                    best_off = pos - candidate
                    if best_len == limit:
                        break  # runs to the end: nothing can be longer
                candidate = prev_at[candidate]
            literal_len = pos - literal_start
            match_code = best_len - MIN_MATCH
            out.append((min(literal_len, 15) << 4) | min(match_code, 15))
            if literal_len >= 15:
                _write_extension(literal_len, out)
            out += data[literal_start:pos]
            out.append(best_off & 0xFF)
            out.append(best_off >> 8)
            if match_code >= 15:
                _write_extension(match_code, out)
            literal_start = scan = pos + best_len
    if literal_start < n or n == 0:
        literal_len = n - literal_start
        out.append(min(literal_len, 15) << 4)
        if literal_len >= 15:
            _write_extension(literal_len, out)
        out += data[literal_start:]
    return bytes(out)


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`."""
    data = bytes(blob)
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        token = data[pos]
        pos += 1
        lit_len = token >> 4
        match_nibble = token & 0x0F
        if lit_len == 15:
            while True:
                ext = data[pos]
                pos += 1
                lit_len += ext
                if ext != 255:
                    break
        out.extend(data[pos:pos + lit_len])
        pos += lit_len
        if pos >= n:
            break  # final literal-only sequence
        offset = data[pos] | (data[pos + 1] << 8)
        pos += 2
        if offset == 0:
            raise ValueError("corrupt stream: zero match offset")
        match_len = match_nibble
        if match_len == 15:
            while True:
                ext = data[pos]
                pos += 1
                match_len += ext
                if ext != 255:
                    break
        match_len += MIN_MATCH
        start = len(out) - offset
        if start < 0:
            raise ValueError("corrupt stream: offset before start")
        if offset >= match_len:
            out += out[start:start + match_len]
        else:
            # An overlapping copy repeats the last ``offset`` bytes.
            period = out[start:]
            repeats, rest = divmod(match_len, offset)
            out += period * repeats + period[:rest]
    return bytes(out)


def compression_ratio(data: bytes, max_chain: int = 16) -> float:
    """Compressed size as a fraction of the original (lower is better)."""
    if not data:
        return 1.0
    return len(compress(data, max_chain=max_chain)) / len(data)
