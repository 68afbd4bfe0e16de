"""Frozen reference copies of the per-parameter serializer and ``key()``.

These are ``serialize_command``/``_pack_value`` and ``GLCommand.key`` as
they were before the serializer gained compiled per-spec packers and the
key gained its memo.  The differential tests in
``test_serialization_oracle.py`` hold the production code to these exact
wire bytes, keys, exception types and messages.  It is test-only: nothing
under ``src/`` imports it, and it must not be edited to follow the
production code (the pinned corpus digest in the tests guards against
that).
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.gles.commands import GLCommand, ParamType, command_spec
from repro.gles.serialization import MAGIC, OPCODES, SerializationError

_HEADER = struct.Struct("<HHI")


def oracle_freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(oracle_freeze(v) for v in value)
    if isinstance(value, bytearray):
        return bytes(value)
    return value


def oracle_key(cmd: GLCommand) -> Tuple[str, Tuple[Any, ...]]:
    return (cmd.name, oracle_freeze(cmd.args))


def oracle_pack_value(kind: ParamType, value: Any, out: bytearray) -> None:
    if kind == ParamType.INT:
        out += struct.pack("<i", int(value))
    elif kind == ParamType.ENUM:
        out += struct.pack("<I", int(value) & 0xFFFFFFFF)
    elif kind == ParamType.BOOL:
        out += struct.pack("<B", 1 if value else 0)
    elif kind == ParamType.FLOAT:
        out += struct.pack("<f", float(value))
    elif kind == ParamType.STRING:
        encoded = str(value).encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
    elif kind == ParamType.BLOB:
        data = b"" if value is None else bytes(value)
        out += struct.pack("<I", len(data))
        out += data
    elif kind == ParamType.INT_ARRAY:
        items = tuple(int(v) for v in (value or ()))
        out += struct.pack("<I", len(items))
        out += struct.pack(f"<{len(items)}i", *items)
    elif kind == ParamType.FLOAT_ARRAY:
        items = tuple(float(v) for v in (value or ()))
        out += struct.pack("<I", len(items))
        out += struct.pack(f"<{len(items)}f", *items)
    elif kind == ParamType.DEFERRED_POINTER:
        if not isinstance(value, (bytes, bytearray)):
            raise SerializationError(
                "deferred pointer was not resolved before serialization; "
                "route the command through CommandSerializer"
            )
        out += struct.pack("<I", len(value))
        out += bytes(value)
    else:
        raise SerializationError(f"unhandled param kind {kind}")


def oracle_serialize_command(cmd: GLCommand) -> bytes:
    spec = command_spec(cmd.name)
    if len(cmd.args) != spec.arity:
        raise SerializationError(
            f"{cmd.name}: expected {spec.arity} args, got {len(cmd.args)}"
        )
    payload = bytearray()
    for param, value in zip(spec.params, cmd.args):
        try:
            oracle_pack_value(param.kind, value, payload)
        except (struct.error, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{cmd.name}.{param.name}: cannot serialize {value!r} "
                f"as {param.kind.value}"
            ) from exc
    header = _HEADER.pack(MAGIC, OPCODES[cmd.name], len(payload))
    return header + bytes(payload)
