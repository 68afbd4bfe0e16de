"""LRU command cache and sender/receiver lockstep."""

import hashlib
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.command_cache import (
    CachePair,
    LRUCommandCache,
    REFERENCE_BYTES,
)
from repro.codec.pipeline import CommandPipeline, PipelineConfig
from repro.gles.commands import make_command
from repro.gles.serialization import serialize_command


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCommandCache(capacity=4)
        key = ("glFlush", ())
        assert cache.lookup(key) is None
        cache.insert(key, b"wire")
        assert cache.lookup(key) == b"wire"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"1")
        cache.insert(("b",), b"2")
        cache.lookup(("a",))          # refresh a
        cache.insert(("c",), b"3")     # evicts b
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == b"1"
        assert cache.stats.evictions == 1

    def test_reinsert_refreshes_without_duplicate(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"1")
        cache.insert(("a",), b"1")
        assert len(cache) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCommandCache(capacity=0)

    def test_hit_rate(self):
        cache = LRUCommandCache(capacity=8)
        key = ("k",)
        cache.lookup(key)
        cache.insert(key, b"x")
        cache.lookup(key)
        cache.lookup(key)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestCachePair:
    def test_first_send_full_then_reference(self):
        pair = CachePair(capacity=16)
        cmd = make_command("glUseProgram", 3)
        wire = b"x" * 50
        size1, hit1 = pair.encode(cmd, wire)
        size2, hit2 = pair.encode(cmd, wire)
        assert (size1, hit1) == (50, False)
        assert (size2, hit2) == (REFERENCE_BYTES, True)

    def test_pair_stays_consistent(self):
        pair = CachePair(capacity=4)
        cmds = [make_command("glUseProgram", i % 6) for i in range(100)]
        for cmd in cmds:
            pair.encode(cmd, b"w" * 20)
            assert pair.verify_consistent()

    def test_different_args_are_different_entries(self):
        pair = CachePair(capacity=16)
        _, hit_a = pair.encode(make_command("glUniform1f", 0, 1.0), b"a")
        _, hit_b = pair.encode(make_command("glUniform1f", 0, 2.0), b"b")
        assert not hit_a and not hit_b

    def test_traffic_saving_on_repetitive_stream(self):
        pair = CachePair(capacity=64)
        total_wire = 0
        total_raw = 0
        for frame in range(50):
            for slot in range(8):
                cmd = make_command("glBindTexture", 0x0DE1, slot)
                wire = b"y" * 24
                size, _hit = pair.encode(cmd, wire)
                total_wire += size
                total_raw += len(wire)
        assert total_wire < total_raw * 0.5

    def test_hit_rate_property(self):
        pair = CachePair(capacity=8)
        cmd = make_command("glFlush")
        for _ in range(10):
            pair.encode(cmd, b"z" * 12)
        assert pair.hit_rate == pytest.approx(0.9)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                  max_size=300),
    capacity=st.integers(min_value=1, max_value=16),
)
def test_property_pair_never_desyncs(keys, capacity):
    """Whatever the access pattern, sender and receiver stay identical."""
    pair = CachePair(capacity=capacity)
    for k in keys:
        cmd = make_command("glUseProgram", k)
        pair.encode(cmd, bytes(16))
    assert pair.verify_consistent()


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                  max_size=200),
)
def test_property_cache_never_exceeds_capacity(keys):
    cache = LRUCommandCache(capacity=10)
    for k in keys:
        cache.insert((k,), b"v")
    assert len(cache) <= 10


class TestReinsertRefresh:
    """Regression tests: ``insert`` on an existing key must refresh the
    stored bytes, not just recency — serving stale bytes on a later hit
    desyncs the receiver's replay."""

    def test_reinsert_updates_stored_bytes(self):
        cache = LRUCommandCache(capacity=4)
        cache.insert(("k",), b"old")
        cache.insert(("k",), b"new")
        assert cache.lookup(("k",)) == b"new"

    def test_reinsert_refreshes_recency(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"1")
        cache.insert(("b",), b"2")
        cache.insert(("a",), b"1*")    # re-insert: a becomes newest
        cache.insert(("c",), b"3")     # should evict b, not a
        assert ("a",) in cache
        assert ("b",) not in cache

    def test_pair_replays_latest_bytes_after_reencode(self):
        """Evict a key, re-encode it with different wire bytes, and check
        a later hit references the new bytes on both sides."""
        pair = CachePair(capacity=1)
        cmd_a = make_command("glUseProgram", 1)
        cmd_b = make_command("glUseProgram", 2)
        pair.encode(cmd_a, b"v1" * 8)
        pair.encode(cmd_b, b"xx" * 8)        # evicts cmd_a on both sides
        pair.encode(cmd_a, b"v2" * 8)        # re-learned with new bytes
        assert pair.sender.lookup(cmd_a.key()) == b"v2" * 8
        assert pair.receiver.lookup(cmd_a.key()) == b"v2" * 8


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),     # key
            st.integers(min_value=0, max_value=3),     # payload version
        ),
        min_size=1,
        max_size=200,
    ),
)
def test_property_lookup_returns_last_inserted_bytes(ops):
    """Whatever the insert pattern, a hit always serves the newest bytes."""
    cache = LRUCommandCache(capacity=4)
    latest = {}
    for key_id, version in ops:
        key = ("glUseProgram", key_id)
        wire = bytes([key_id, version]) * 8
        cache.insert(key, wire)
        latest[key] = wire
    for key, wire in latest.items():
        if key in cache:
            assert cache.lookup(key) == wire


class TestStatsAndFootprint:
    def test_refreshes_counter(self):
        cache = LRUCommandCache(capacity=4)
        cache.insert(("k",), b"old")
        assert cache.stats.refreshes == 0
        cache.insert(("k",), b"new")
        cache.insert(("k",), b"newer")
        assert cache.stats.refreshes == 2
        cache.insert(("other",), b"x")     # fresh key: not a refresh
        assert cache.stats.refreshes == 2

    def test_byte_size_tracks_stored_wire_bytes(self):
        cache = LRUCommandCache(capacity=4)
        assert cache.byte_size() == 0
        cache.insert(("a",), b"12345")
        cache.insert(("b",), b"678")
        assert cache.byte_size() == 8

    def test_byte_size_after_refresh_and_eviction(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"aaaa")
        cache.insert(("a",), b"aa")        # refresh shrinks the entry
        assert cache.byte_size() == 2
        cache.insert(("b",), b"bb")
        cache.insert(("c",), b"cccc")      # evicts a
        assert cache.byte_size() == len(b"bb") + len(b"cccc")


def expected_reference(key):
    return b"\xCA\xFE" + hashlib.blake2b(
        repr(key).encode(), digest_size=8
    ).digest()


class TestHeldReferences:
    """``CachePair.references``: computed on first hit, dropped on evict."""

    def test_insert_returns_the_evicted_key(self):
        cache = LRUCommandCache(capacity=2)
        assert cache.insert(("a",), b"1") is None
        assert cache.insert(("b",), b"2") is None
        assert cache.insert(("a",), b"1*") is None     # refresh, no evict
        assert cache.insert(("c",), b"3") == ("b",)

    def test_hits_read_the_entry_reference_across_evictions(self):
        pair = CachePair(capacity=4)
        rng = random.Random(7)
        hits = 0
        for _ in range(600):
            cmd = make_command(
                "glUniform2f", rng.randrange(7), rng.choice((0.5, 1.0)), 2.0
            )
            _, hit = pair.encode(cmd, b"w" * 24)
            if hit:
                hits += 1
                assert len(pair.references[cmd.key()]) == REFERENCE_BYTES
                assert pair.references[cmd.key()] == expected_reference(
                    cmd.key()
                )
            assert len(pair.references) <= len(pair.sender) <= 4
            assert set(pair.references) <= set(pair.sender.keys_in_order())
        assert hits > 50 and pair.sender.stats.evictions > 50

    def test_misses_compute_no_reference(self):
        pair = CachePair(capacity=4)
        for slot in range(3):
            pair.encode(make_command("glUseProgram", slot), b"w")
        assert pair.references == {}
        pair.encode(make_command("glUseProgram", 1), b"w")
        assert list(pair.references) == [("glUseProgram", (1,))]

    def test_equal_key_hits_share_the_first_hit_reference(self):
        pair = CachePair(capacity=4)
        pair.encode(make_command("glUniform1f", 0, 0.0), b"w")
        first_hit = make_command("glUniform1f", 0, 0.0)
        pair.encode(first_hit, b"w")
        again = make_command("glUniform1f", 0, -0.0)
        assert pair.encode(again, b"w") == (REFERENCE_BYTES, True)
        assert pair.references[again.key()] == expected_reference(
            first_hit.key()
        )

    def test_pipeline_batch_matches_an_lru_model(self):
        """Payload = full wire on a miss, the key's reference on a hit."""
        pipeline = CommandPipeline(
            PipelineConfig(cache_capacity=4, compression_enabled=False)
        )
        model = OrderedDict()
        for frame in range(30):
            batch = [
                make_command("glBindTexture", 0x0DE1, (frame * 3 + i) % 9)
                for i in range(6)
            ]
            expected = bytearray()
            for cmd in batch:
                key = ("glBindTexture", tuple(cmd.args))
                if key in model:
                    model.move_to_end(key)
                    expected += expected_reference(key)
                else:
                    model[key] = True
                    if len(model) > 4:
                        model.popitem(last=False)
                    expected += serialize_command(cmd)
            assert pipeline.process_frame(batch).payload == bytes(expected)
