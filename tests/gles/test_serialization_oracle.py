"""Differential tests: the compiled serializer and memoized key vs oracles.

``serialization_oracle`` holds frozen copies of the per-parameter
``serialize_command`` and the always-freezing ``GLCommand.key``.  For every
registered entry point, well-typed arguments must give the same wire bytes
and the same key (equal, same ``repr``), and ill-typed ones the same
exception type and message.  The pinned digest over real G1-G5 command
batches catches the oracle and the production code drifting together.
"""

import hashlib
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.base import CommandBatchBuilder, SceneState
from repro.apps.games import GAMES
from repro.gles.commands import COMMANDS, GLCommand, ParamType
from repro.gles.serialization import (
    DeferredPointerBuffer,
    SerializationError,
    serialize_command,
    serialize_stream,
)
from repro.sim.random import RandomStream

from .serialization_oracle import oracle_key, oracle_serialize_command

#: sha256 of ``serialize_stream`` over ``corpus()``; recorded from the
#: per-parameter serializer
CORPUS_SHA256 = (
    "f1394e73f5eaeacaa2a78048ee116bc75c78f87e58e6d75b1068173b5794be9b"
)

INT32 = st.integers(-(2 ** 31), 2 ** 31 - 1)
FLOAT32 = st.floats(width=32)

#: values that fit each kind; ENUM includes negatives (masked to uint32)
#: and FLOAT includes ints, both of which the compiled packer hands back
#: to the per-parameter loop
TYPED = {
    ParamType.INT: INT32 | st.booleans(),
    ParamType.ENUM: st.integers(-(2 ** 31), 2 ** 32 - 1),
    ParamType.BOOL: st.booleans() | st.integers(0, 2),
    ParamType.FLOAT: FLOAT32 | st.integers(-(10 ** 6), 10 ** 6)
    | st.sampled_from([0.0, -0.0, float("inf"), float("nan")]),
    ParamType.STRING: st.text(max_size=24),
    ParamType.BLOB: st.binary(max_size=48) | st.none()
    | st.binary(max_size=8).map(bytearray),
    ParamType.DEFERRED_POINTER: st.binary(max_size=48)
    | st.binary(max_size=8).map(bytearray),
    ParamType.INT_ARRAY: st.lists(INT32, max_size=6)
    | st.lists(INT32, max_size=6).map(tuple),
    ParamType.FLOAT_ARRAY: st.lists(FLOAT32, max_size=16).map(tuple)
    | st.lists(FLOAT32, max_size=4),
}

#: values of the wrong type or out of range for most kinds
ILL_TYPED = st.one_of(
    st.integers(2 ** 31, 2 ** 40),
    st.integers(-(2 ** 40), -(2 ** 31) - 1),
    st.sampled_from(["abc", "12", "1.5", "", None, 2.5, -3.0, 1e300]),
    st.just(object()),
    st.lists(st.integers(0, 3), max_size=3),
)

SPEC_NAMES = sorted(COMMANDS)


def outcome(fn, cmd):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(cmd))
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        return ("raised", type(exc), str(exc))


def assert_matches_oracle(cmd):
    assert outcome(serialize_command, cmd) == outcome(
        oracle_serialize_command, cmd
    )
    expected = oracle_key(cmd)
    for _ in range(2):          # the second call is served by the memo
        key = cmd.key()
        assert key == expected
        assert repr(key) == repr(expected)
        assert hash(key) == hash(expected)


@st.composite
def typed_commands(draw):
    spec = COMMANDS[draw(st.sampled_from(SPEC_NAMES))]
    args = tuple(draw(TYPED[p.kind]) for p in spec.params)
    return GLCommand(spec.name, args)


@st.composite
def ill_typed_commands(draw):
    spec = COMMANDS[draw(st.sampled_from(SPEC_NAMES))]
    args = [draw(TYPED[p.kind]) for p in spec.params]
    shape = draw(st.sampled_from(["value", "arity"]))
    if shape == "arity" or not args:
        extra = draw(st.integers(0, 2))
        args = args[:-1] if extra == 0 and args else args + [0] * extra
    else:
        args[draw(st.integers(0, len(args) - 1))] = draw(ILL_TYPED)
    return GLCommand(spec.name, tuple(args))


@settings(max_examples=400, deadline=None)
@given(typed_commands())
def test_typed_args_match_oracle(cmd):
    assert_matches_oracle(cmd)


@settings(max_examples=400, deadline=None)
@given(ill_typed_commands())
def test_ill_typed_args_raise_like_oracle(cmd):
    assert_matches_oracle(cmd)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_every_spec_packs_like_oracle(name):
    spec = COMMANDS[name]
    samples = {
        ParamType.INT: -7, ParamType.ENUM: 0x8B31, ParamType.BOOL: True,
        ParamType.FLOAT: 0.25, ParamType.STRING: "u_mvp",
        ParamType.BLOB: b"\x01\x02\x03", ParamType.DEFERRED_POINTER: b"xyz",
        ParamType.INT_ARRAY: (1, 2), ParamType.FLOAT_ARRAY: (0.5,) * 4,
    }
    assert_matches_oracle(
        GLCommand(name, tuple(samples[p.kind] for p in spec.params))
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("glViewport", (0, 0, 2 ** 31, 10)),           # INT out of range
        ("glViewport", (0, 0, 12.9, 10)),              # float in INT: ok
        ("glViewport", (0, "3", 1, 1)),                # numeric string: ok
        ("glEnable", (-1,)),                           # ENUM masks: ok
        ("glEnable", (2 ** 33,)),                      # ENUM masks: ok
        ("glUniform1f", (0, "not a number")),          # FLOAT non-numeric
        ("glUniform1f", (0, "1.5")),                   # numeric string: ok
        ("glUniform1f", (0, 1e300)),                   # float32 overflow
        ("glUniform1f", (0, None)),
        ("glBufferData", (1, 2, 3.5, 4)),              # BLOB of a float
        ("glVertexAttribPointer", (0, 3, 5126, False, 20, 0)),  # unresolved
        ("glUniform4fv", (0, 1, ["a", 1])),
        ("glDeleteBuffers", (1, (2 ** 31,))),
        ("glClear", ()),                               # arity
        ("glClear", (1, 2)),                           # arity
        ("glFlush", (1,)),
        ("glNotAThing", ()),                           # unknown entry point
    ],
)
def test_edge_cases_match_oracle(name, args):
    assert_matches_oracle(GLCommand(name, args))


def corpus():
    """Set-up and 40 frames of G1-G5 under scripted touches, resolved."""
    commands = []
    for short in ("G1", "G2", "G3", "G4", "G5"):
        builder = CommandBatchBuilder(
            GAMES[short], RandomStream(1729, f"oracle.{short}")
        )
        scene = SceneState()
        batches = [builder.setup_commands()]
        for frame in range(40):
            if frame % 7 == 3:
                scene.on_touch(1.0)
            scene.advance(1 / 30)
            batches.append(builder.frame_commands(scene))
        deferred = DeferredPointerBuffer()
        for batch in batches:
            for cmd in batch:
                if cmd.name == "glVertexAttribPointer" and not isinstance(
                    cmd.args[5], bytes
                ):
                    deferred.hold(cmd)
                    continue
                if cmd.name == "glDrawArrays":
                    commands.extend(
                        deferred.flush_for_draw(cmd.args[1] + cmd.args[2])
                    )
                commands.append(cmd)
    return commands


def test_corpus_digest_pinned():
    commands = corpus()
    stream = serialize_stream(commands)
    assert stream == b"".join(oracle_serialize_command(c) for c in commands)
    assert hashlib.sha256(stream).hexdigest() == CORPUS_SHA256
    for cmd in commands:
        assert cmd.key() == oracle_key(cmd)
        assert repr(cmd.key()) == repr(oracle_key(cmd))


class TestKeyMemo:
    def test_reassigned_args_yield_the_new_key(self):
        cmd = GLCommand("glUniform1i", (0, 1))
        assert cmd.key() == ("glUniform1i", (0, 1))
        cmd.args = (0, 2)
        assert cmd.key() == ("glUniform1i", (0, 2))
        cmd.name = "glUniform2i"
        cmd.args = (0, 2, 3)
        assert cmd.key() == ("glUniform2i", (0, 2, 3))

    def test_flat_atoms_key_is_memoized(self):
        cmd = GLCommand("glViewport", (0, 0, 640, 480))
        assert cmd.key() is cmd.key()

    @pytest.mark.parametrize(
        "args",
        [
            (0, 1, [0.5, 0.25]),
            (0, 1, bytearray(b"\x01\x02")),
            [0, 1, (0.5,)],
        ],
    )
    def test_mutable_args_are_frozen_and_mutation_is_seen(self, args):
        cmd = GLCommand("glUniform1fv", args)
        first = cmd.key()
        assert first == oracle_key(cmd)
        hash(first)
        mutable = cmd.args[2] if not isinstance(cmd.args, list) else cmd.args
        if isinstance(mutable, bytearray):
            mutable[0] = 9
        else:
            mutable.append(7)
        assert cmd.key() != first
        assert cmd.key() == oracle_key(cmd)

    def test_named_tuple_args_are_not_taken_as_flat(self):
        from collections import namedtuple

        Pair = namedtuple("Pair", "a b")
        cmd = GLCommand("glUniform1i", Pair(0, 1))
        assert repr(cmd.key()) == repr(oracle_key(cmd))

    def test_eq_repr_and_pickle_ignore_the_memo(self):
        fresh = GLCommand("glBindBuffer", (34962, 4), {"note": 1})
        keyed = GLCommand("glBindBuffer", (34962, 4), {"note": 1})
        keyed.key()
        assert fresh == keyed
        assert repr(fresh) == repr(keyed)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(keyed, protocol) == pickle.dumps(
                fresh, protocol
            )
        restored = pickle.loads(pickle.dumps(keyed))
        assert restored == keyed
        assert restored.key() == keyed.key()

    def test_struct_error_is_chained(self):
        with pytest.raises(SerializationError) as exc:
            serialize_command(GLCommand("glViewport", (0, 0, 2 ** 31, 1)))
        assert isinstance(exc.value.__cause__, struct.error)
