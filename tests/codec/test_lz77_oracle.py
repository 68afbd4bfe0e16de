"""Differential tests: ``compress`` against the frozen per-byte parser.

``lz77_oracle.oracle_compress`` is the dict-of-lists hash-chain parser the
array-based match finder replaced.  Every output byte must agree, for every
``max_chain`` including 0 ("unbounded").  The pinned corpus digest catches
the case where the oracle and the production code drift together.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.lz77 import (
    MAX_OFFSET,
    _window_chains,
    compress,
    decompress,
)
from repro.codec.pipeline import PipelineConfig

from .lz77_oracle import _hash4, oracle_compress

CHAINS = (0, 1, 2, 8, 16)

#: 4-byte words that share GLES's 16-bit window hash, so an input built
#: from them puts many distinct keys on one chain
COLLIDING_WORDS = (b"GLES", b' "*3', b" /T^", b" QL8", b" Y:r", b"!+h?")

#: sha256 over the seeded corpus below, compressed at every chain in
#: ``CHAINS``; recorded from the per-byte parser
CORPUS_SHA256 = (
    "45288fe76db9f15b46575e9fb82e0f283272d6a012fe303e0216bda1e2ba2d98"
)


def assert_same(data: bytes, chains=CHAINS) -> None:
    for chain in chains:
        blob = compress(data, chain)
        assert blob == oracle_compress(data, chain), (len(data), chain)
        assert decompress(blob) == data


def seeded_corpus():
    rng = random.Random(20261017)
    inputs = []
    for i in range(48):
        n = rng.choice((0, 1, 3, 4, 5, 17, 255, 1000, 2500))
        kind = i % 4
        if kind == 0:
            data = bytes(rng.randrange(256) for _ in range(n))
        elif kind == 1:
            data = bytes(rng.randrange(3) for _ in range(n))
        elif kind == 2:
            motif = bytes(rng.randrange(256) for _ in range(rng.randint(1, 9)))
            data = (motif * (n // len(motif) + 1))[:n]
        else:
            grown = bytearray()
            while len(grown) < n:
                if grown and rng.random() < 0.6:
                    start = rng.randrange(len(grown))
                    grown += grown[start:start + rng.randint(1, 60)]
                else:
                    grown += bytes(rng.randrange(256) for _ in range(4))
            data = bytes(grown[:n])
        inputs.append(data)
    return inputs


def colliding_input(words: int, seed: int) -> bytes:
    rng = random.Random(seed)
    out = bytearray()
    for _ in range(words):
        if rng.random() < 0.05:
            out += bytes(rng.randrange(256) for _ in range(rng.randint(1, 3)))
        out += rng.choice(COLLIDING_WORDS)
    return bytes(out)


def real_batches():
    """A G2 session's serialized set-up batch and 40 frames' batch."""
    from repro.apps.base import CommandBatchBuilder, SceneState
    from repro.apps.games import GAMES
    from repro.gles.serialization import CommandSerializer
    from repro.sim.random import RandomStream

    builder = CommandBatchBuilder(GAMES["G2"], RandomStream(7, "lz77.oracle"))
    scene = SceneState()
    serializer = CommandSerializer()

    def serialize(commands):
        return b"".join(w for cmd in commands for w in serializer.feed(cmd))

    setup = serialize(builder.setup_commands())
    frames = bytearray()
    for i in range(40):
        if i % 7 == 3:
            scene.on_touch(0.8)
        scene.advance(1 / 60)
        frames += serialize(builder.frame_commands(scene))
    return setup, bytes(frames)


class TestDeterministicCases:
    def test_tiny_inputs(self):
        for data in (b"", b"a", b"ab", b"abc", b"abcd", b"\x00" * 4, b"aaaaa"):
            assert_same(data)

    def test_single_byte_100k(self):
        assert_same(b"\x07" * 100_000)

    def test_repeats_beyond_max_offset(self):
        rng = random.Random(3)
        block = bytes(rng.randrange(256) for _ in range(MAX_OFFSET + 5000))
        # The second copy of the head lies too far back to be referenced;
        # the tail copy sits just inside the window.
        data = block + block[:3000] + block[-MAX_OFFSET + 100:][:2000]
        assert len(data) > 64 * 1024
        assert_same(data, chains=(1, 8, 16))

    def test_distance_exactly_max_offset(self):
        rng = random.Random(4)
        head = bytes(rng.randrange(256) for _ in range(16))
        gap = bytes(rng.randrange(256) for _ in range(MAX_OFFSET - 16))
        for extra in (0, 1):
            data = head + gap + bytes(extra) + head
            assert_same(data, chains=(1, 16))

    def test_colliding_windows(self):
        words = COLLIDING_WORDS
        assert len({_hash4(w, 0) for w in words}) == 1
        assert len(set(words)) == len(words)
        assert_same(colliding_input(3000, seed=5))

    def test_low_alphabet(self):
        rng = random.Random(6)
        for alphabet in (2, 3, 4):
            data = bytes(rng.randrange(alphabet) for _ in range(6000))
            assert_same(data)

    def test_real_command_batches(self):
        setup, frames = real_batches()
        assert len(frames) > 10_000
        assert_same(frames)
        # The texture-heavy set-up batch is the codec's largest real
        # input; compare it at the pipeline's default chain.
        assert_same(setup, chains=(PipelineConfig().compression_max_chain,))

    def test_seeded_corpus_digest_is_pinned(self):
        digest = hashlib.sha256()
        for data in seeded_corpus():
            for chain in CHAINS:
                blob = compress(data, chain)
                digest.update(len(blob).to_bytes(4, "little") + blob)
        assert digest.hexdigest() == CORPUS_SHA256


class TestWindowChains:
    def test_prev_links_same_hash_predecessor(self):
        rng = random.Random(8)
        data = bytes(rng.randrange(6) for _ in range(3000)) + colliding_input(
            200, seed=9
        )
        keys, prev = _window_chains(data)
        latest = {}
        for p in range(len(data) - 3):
            h = _hash4(data, p)
            assert prev[p] == latest.get(h, -1)
            assert keys[p] == int.from_bytes(data[p:p + 4], "little")
            latest[h] = p
        assert prev.dtype == np.int32


class TestMaxChainContract:
    def test_zero_means_unbounded(self):
        data = colliding_input(400, seed=10) + b"hello world " * 50
        assert compress(data, 0) == oracle_compress(data, 0)
        assert compress(data, 0) == compress(data, len(data))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compress(b"abcdabcdabcd", max_chain=-1)

    def test_pipeline_config_rejects_negative(self):
        with pytest.raises(ValueError):
            PipelineConfig(compression_max_chain=-2)
        unbounded = PipelineConfig(compression_max_chain=0)
        assert unbounded.compression_max_chain == 0


@st.composite
def payloads(draw):
    kind = draw(st.sampled_from(("binary", "low", "repeat")))
    if kind == "binary":
        return draw(st.binary(max_size=1500))
    if kind == "low":
        return bytes(draw(st.lists(st.integers(0, 2), max_size=1500)))
    chunk = draw(st.binary(min_size=1, max_size=12))
    tail = draw(st.binary(max_size=40))
    return chunk * draw(st.integers(1, 120)) + tail


@settings(max_examples=150, deadline=None)
@given(data=payloads(), chain=st.sampled_from(CHAINS))
def test_property_matches_oracle(data, chain):
    assert compress(data, chain) == oracle_compress(data, chain)
