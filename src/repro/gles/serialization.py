"""Wire serialization for forwarded GL commands.

Two concerns from paper §IV-B live here:

* **The wire format.**  Basic types (ints, floats, enums, strings, sized
  blobs) are length-prefixed and byte-exact round-trippable, so the traffic
  volumes measured by the network substrate are real byte counts.

* **Deferred pointers.**  ``glVertexAttribPointer`` takes a client-side
  pointer whose extent is unknown until a later draw call reveals how many
  vertices are read.  :class:`CommandSerializer` therefore *holds back* such
  commands and flushes them, with the now-known payload, immediately before
  the draw that consumes them — the reordering the paper argues is safe as
  long as the pointer command still precedes the draw.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.gles import enums as gl
from repro.gles.commands import (
    COMMANDS,
    CommandSpec,
    GLCommand,
    ParamType,
    command_spec,
)

MAGIC = 0x4742  # ASCII "GB"
_HEADER = struct.Struct("<HHI")    # magic, opcode, payload length

# Stable opcode assignment: alphabetical order of registered entry points.
OPCODES: Dict[str, int] = {
    name: idx for idx, name in enumerate(sorted(COMMANDS))
}
NAMES_BY_OPCODE: Dict[int, str] = {v: k for k, v in OPCODES.items()}


class SerializationError(ValueError):
    """Raised for malformed wire data or unserializable arguments."""


@dataclass
class ClientArray:
    """A client-side vertex array: the thing a deferred pointer points at.

    ``data`` is the full client buffer; how much of it must be shipped is
    only known at draw time.
    """

    data: bytes
    array_id: int = 0

    def __len__(self) -> int:
        return len(self.data)


def _var_string(value: Any) -> Tuple[int, bytes]:
    encoded = str(value).encode("utf-8")
    return len(encoded), encoded


def _var_blob(value: Any) -> Tuple[int, bytes]:
    data = b"" if value is None else bytes(value)
    return len(data), data


def _var_int_array(value: Any) -> Tuple[int, bytes]:
    items = tuple(int(v) for v in (value or ()))
    return len(items), struct.pack(f"<{len(items)}i", *items)


def _var_float_array(value: Any) -> Tuple[int, bytes]:
    items = tuple(float(v) for v in (value or ()))
    return len(items), struct.pack(f"<{len(items)}f", *items)


def _var_deferred(value: Any) -> Tuple[int, bytes]:
    if not isinstance(value, (bytes, bytearray)):
        # By the time a deferred command is serialized its pointer argument
        # must have been resolved to concrete bytes.
        raise SerializationError(
            "deferred pointer was not resolved before serialization; "
            "route the command through CommandSerializer"
        )
    return len(value), bytes(value)


#: variable-width kind -> ``value -> (count prefix, data)``
_VAR_ENCODERS = {
    ParamType.STRING: _var_string,
    ParamType.BLOB: _var_blob,
    ParamType.INT_ARRAY: _var_int_array,
    ParamType.FLOAT_ARRAY: _var_float_array,
    ParamType.DEFERRED_POINTER: _var_deferred,
}


def _pack_value(kind: ParamType, value: Any, out: bytearray) -> None:
    if kind == ParamType.INT:
        out += struct.pack("<i", int(value))
    elif kind == ParamType.ENUM:
        out += struct.pack("<I", int(value) & 0xFFFFFFFF)
    elif kind == ParamType.BOOL:
        out += struct.pack("<B", 1 if value else 0)
    elif kind == ParamType.FLOAT:
        out += struct.pack("<f", float(value))
    else:
        count, data = _VAR_ENCODERS[kind](value)
        out += struct.pack("<I", count)
        out += data


def _unpack_value(kind: ParamType, buf: bytes, off: int) -> Tuple[Any, int]:
    if kind == ParamType.INT:
        return struct.unpack_from("<i", buf, off)[0], off + 4
    if kind == ParamType.ENUM:
        return struct.unpack_from("<I", buf, off)[0], off + 4
    if kind == ParamType.BOOL:
        return bool(buf[off]), off + 1
    if kind == ParamType.FLOAT:
        return struct.unpack_from("<f", buf, off)[0], off + 4
    if kind == ParamType.STRING:
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        return buf[off:off + n].decode("utf-8"), off + n
    if kind in (ParamType.BLOB, ParamType.DEFERRED_POINTER):
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        return bytes(buf[off:off + n]), off + n
    if kind == ParamType.INT_ARRAY:
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        vals = struct.unpack_from(f"<{n}i", buf, off)
        return tuple(vals), off + 4 * n
    if kind == ParamType.FLOAT_ARRAY:
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        vals = struct.unpack_from(f"<{n}f", buf, off)
        return tuple(vals), off + 4 * n
    raise SerializationError(f"unhandled param kind {kind}")  # pragma: no cover


def serialize_command(cmd: GLCommand) -> bytes:
    """Serialize one command to its wire representation."""
    packer = _PACKERS.get(cmd.name)
    if packer is None:
        command_spec(cmd.name)  # raises the registry's KeyError
    arity, pack = packer
    if len(cmd.args) != arity:
        raise SerializationError(
            f"{cmd.name}: expected {arity} args, got {len(cmd.args)}"
        )
    try:
        return pack(cmd.args)
    except Exception:
        # Coercions the packer skips (a float in an INT slot, a negative
        # ENUM, a numeric string) and every error go through the
        # per-parameter loop, which produces the same bytes or raises the
        # same error as it always has.
        return _serialize_params(cmd)


def _serialize_params(cmd: GLCommand) -> bytes:
    """The per-parameter reference encoder behind :func:`serialize_command`."""
    spec = COMMANDS[cmd.name]
    payload = bytearray()
    for param, value in zip(spec.params, cmd.args):
        try:
            _pack_value(param.kind, value, payload)
        except (struct.error, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{cmd.name}.{param.name}: cannot serialize {value!r} "
                f"as {param.kind.value}"
            ) from exc
    header = _HEADER.pack(MAGIC, OPCODES[cmd.name], len(payload))
    return header + bytes(payload)


# -- compiled packers ----------------------------------------------------------
#
# One packer per entry point, built at import.  Fixed-width parameters share
# a ``struct.Struct`` with the header; the one variable-width parameter an
# entry point may have puts its 4-byte count at the end of that struct, its
# data after it, and the fixed-width parameters that follow it in a second
# struct.  A packer hands argument values to ``struct`` as they are, so it
# only succeeds where that equals the reference encoder's coercion: ints
# for INT, ints in [0, 2**32) for ENUM, any truth value for BOOL (``?``
# packs 1/0) and anything ``float()`` accepts numerically for FLOAT.
# Anything else raises, and :func:`serialize_command` falls back to the loop.

_FIXED_CODES = {
    ParamType.INT: "i",
    ParamType.ENUM: "I",
    ParamType.BOOL: "?",
    ParamType.FLOAT: "f",
}


def _compile_packer(spec: CommandSpec) -> Callable[[Tuple[Any, ...]], bytes]:
    opcode = OPCODES[spec.name]
    kinds = [param.kind for param in spec.params]
    variable = [i for i, kind in enumerate(kinds) if kind in _VAR_ENCODERS]
    if not variable:
        head = struct.Struct("<HHI" + "".join(_FIXED_CODES[k] for k in kinds))
        size = head.size - _HEADER.size

        def pack_fixed(args: Tuple[Any, ...]) -> bytes:
            return head.pack(MAGIC, opcode, size, *args)
        return pack_fixed

    (index,) = variable     # no entry point has two variable-width params
    encode = _VAR_ENCODERS[kinds[index]]
    head = struct.Struct(
        "<HHI" + "".join(_FIXED_CODES[k] for k in kinds[:index]) + "I"
    )
    tail = struct.Struct(
        "<" + "".join(_FIXED_CODES[k] for k in kinds[index + 1:])
    )
    fixed = head.size - _HEADER.size + tail.size

    def pack_variable(args: Tuple[Any, ...]) -> bytes:
        count, data = encode(args[index])
        return head.pack(
            MAGIC, opcode, fixed + len(data), *args[:index], count
        ) + data + tail.pack(*args[index + 1:])
    return pack_variable


#: entry-point name -> (arity, compiled packer)
_PACKERS: Dict[str, Tuple[int, Callable[[Tuple[Any, ...]], bytes]]] = {
    name: (spec.arity, _compile_packer(spec)) for name, spec in COMMANDS.items()
}


def deserialize_command(data: bytes, offset: int = 0) -> Tuple[GLCommand, int]:
    """Decode one command; returns ``(command, next_offset)``."""
    if len(data) - offset < _HEADER.size:
        raise SerializationError("truncated command header")
    magic, opcode, length = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise SerializationError(f"bad magic 0x{magic:04X}")
    name = NAMES_BY_OPCODE.get(opcode)
    if name is None:
        raise SerializationError(f"unknown opcode {opcode}")
    spec = COMMANDS[name]
    body_start = offset + _HEADER.size
    body_end = body_start + length
    if body_end > len(data):
        raise SerializationError(f"truncated payload for {name}")
    off = body_start
    args: List[Any] = []
    for param in spec.params:
        value, off = _unpack_value(param.kind, data, off)
        args.append(value)
    if off != body_end:
        raise SerializationError(
            f"{name}: payload length mismatch ({off - body_start} != {length})"
        )
    return GLCommand(name=name, args=tuple(args)), body_end


def serialize_stream(commands: List[GLCommand]) -> bytes:
    return b"".join(serialize_command(c) for c in commands)


def deserialize_stream(data: bytes) -> List[GLCommand]:
    out: List[GLCommand] = []
    off = 0
    while off < len(data):
        cmd, off = deserialize_command(data, off)
        out.append(cmd)
    return out


@dataclass
class DeferredPointerBuffer:
    """Holds back vertex-pointer commands until a draw reveals their extent."""

    pending: Dict[int, GLCommand] = field(default_factory=dict)

    def hold(self, cmd: GLCommand) -> None:
        if cmd.name != "glVertexAttribPointer":
            raise SerializationError(f"cannot defer {cmd.name}")
        index = cmd.args[0]
        self.pending[index] = cmd

    def flush_for_draw(self, vertex_count: int) -> List[GLCommand]:
        """Resolve every held pointer for a draw of ``vertex_count`` vertices.

        The resolved commands are returned in attrib-index order so replay is
        deterministic; the paper's observation is that any order is correct
        as long as they precede the draw.
        """
        resolved: List[GLCommand] = []
        for index in sorted(self.pending):
            cmd = self.pending[index]
            _, size, dtype, normalized, stride, pointer = cmd.args
            element = size * gl.TYPE_SIZES.get(dtype, 4)
            step = stride if stride > 0 else element
            needed = 0
            if vertex_count > 0:
                needed = step * (vertex_count - 1) + element
            if isinstance(pointer, ClientArray):
                data = pointer.data[:needed]
            elif isinstance(pointer, (bytes, bytearray)):
                data = bytes(pointer[:needed])
            elif isinstance(pointer, int):
                # A VBO offset: nothing to ship, the data lives server-side.
                data = struct.pack("<I", pointer)
            else:
                raise SerializationError(
                    f"unsupported pointer payload {type(pointer).__name__}"
                )
            resolved.append(
                GLCommand(
                    name=cmd.name,
                    args=(cmd.args[0], size, dtype, normalized, stride, data),
                    metadata=dict(cmd.metadata),
                )
            )
        self.pending.clear()
        return resolved


class CommandSerializer:
    """Stateful serializer implementing the §IV-B forwarding pipeline.

    ``feed`` consumes intercepted commands and returns zero or more
    wire-ready byte strings: deferred-pointer commands produce nothing until
    the next draw call flushes them.
    """

    def __init__(self) -> None:
        self._deferred = DeferredPointerBuffer()
        self.commands_serialized = 0
        self.bytes_serialized = 0
        self.deferrals = 0

    def feed(self, cmd: GLCommand) -> List[bytes]:
        spec = command_spec(cmd.name)
        out: List[bytes] = []
        if cmd.name == "glVertexAttribPointer" and not isinstance(
            cmd.args[5], (bytes, bytearray)
        ):
            self._deferred.hold(cmd)
            self.deferrals += 1
            return out
        if spec.is_draw:
            count = _draw_vertex_count(cmd)
            for resolved in self._deferred.flush_for_draw(count):
                out.append(self._emit(resolved))
        out.append(self._emit(cmd))
        return out

    def _emit(self, cmd: GLCommand) -> bytes:
        wire = serialize_command(cmd)
        self.commands_serialized += 1
        self.bytes_serialized += len(wire)
        return wire

    @property
    def pending_deferred(self) -> int:
        return len(self._deferred.pending)


def _draw_vertex_count(cmd: GLCommand) -> int:
    if cmd.name == "glDrawArrays":
        first, count = cmd.args[1], cmd.args[2]
        return first + count
    if cmd.name == "glDrawElements":
        # Without inspecting index values we conservatively assume the draw
        # touches `count` vertices; workloads annotate the true maximum.
        return cmd.metadata.get("max_index", cmd.args[1] - 1) + 1
    return 0
