"""Outside-in wall-time tracing of the simulator's layers.

The benchmark measures host time per layer without touching the program:
:class:`LayerTrace` wraps, from the outside, the public functions and the
public methods of public classes of every ``repro.<layer>`` module, and
every generator the kernel runs as a process.  Each wrapped call records
an in-memory span ``(key, start, end, parent)``; a key names the layer
and the function.  A span's *self time* is its duration minus the time
its child spans cover, so self times over all spans add up exactly to the
duration of the outermost spans.

A module-level function is often imported by name into other modules
(``from repro.codec.lz77 import compress`` in ``repro.codec.pipeline``);
the call site then looks the name up in *its* module, so every module
attribute bound to an original function is rebound to the wrapper too.
:meth:`LayerTrace.unresolved` lists any reference to an original that
the installation could not rebind.

Generator functions are not wrapped where they are defined: calling one
only builds a generator.  Their work runs when the kernel resumes the
process, so ``Simulator.spawn`` / ``spawn_at`` are wrapped to hand the
kernel a proxy generator that records one span per resumption, attributed
to the layer whose file defines the generator's code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept for the Chrome-trace export; self times stay exact beyond it
SPAN_CAPACITY = 50_000

#: the wrapped kernel entry points that start processes
SPAWN_KEYS = (
    ("sim", "kernel.Simulator.spawn"),
    ("sim", "kernel.Simulator.spawn_at"),
)

Key = Tuple[str, str]


def repro_modules() -> List[Any]:
    """Import and return every ``repro.<layer>...`` module."""
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


def layer_of(module_name: str) -> Optional[str]:
    """``"repro.codec.lz77"`` -> ``"codec"``; ``None`` outside a layer."""
    parts = module_name.split(".")
    return parts[1] if len(parts) >= 2 and parts[0] == "repro" else None


def module_tail(module_name: str) -> str:
    """``"repro.codec.lz77"`` -> ``"lz77"``; a layer package -> ``"__init__"``."""
    return ".".join(module_name.split(".")[2:]) or "__init__"


def _is_protocol(cls: type) -> bool:
    return bool(getattr(cls, "_is_protocol", False))


class LayerTrace:
    """Span recorder plus the wrappers that feed it.

    ``install()`` patches the program; ``uninstall()`` restores every
    patched attribute.  Between the two, ``reset()`` starts a fresh
    measurement without re-patching.
    """

    def __init__(self) -> None:
        self.keys: List[Key] = []
        self._key_ids: Dict[Key, int] = {}
        #: per-key hooks ``fn(args, kwargs, result) -> None`` run after a
        #: wrapped call returns (byte and item counts for the report)
        self._observers: Dict[Key, Callable[..., None]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._original_objs: List[Any] = []
        self._code_key: Dict[str, Tuple[str, str]] = {}   # file -> layer, tail
        self._gen_keys: Dict[Any, int] = {}
        self.installed = False
        self.reset()

    # -- measurement state ---------------------------------------------------

    def reset(self) -> None:
        n = len(self.keys)
        #: open frames: [start, child_seconds, span_index]
        self._stack: List[List[Any]] = []
        self.calls: List[int] = [0] * n
        self.self_s: List[float] = [0.0] * n
        self.incl_s: List[float] = [0.0] * n
        #: completed spans ``(key_id, start, end, parent_index)``; slots
        #: are reserved at entry so a child can name its parent's index
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.spans_dropped = 0
        self.top_level_s = 0.0

    def _key(self, layer: str, name: str) -> int:
        key = (layer, name)
        kid = self._key_ids.get(key)
        if kid is None:
            kid = len(self.keys)
            self._key_ids[key] = kid
            self.keys.append(key)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return kid

    def observe(self, layer: str, name: str, fn: Callable[..., None]) -> None:
        """Run ``fn(args, kwargs, result)`` after each call of a key."""
        if self.installed:
            raise RuntimeError("register observers before install()")
        self._observers[(layer, name)] = fn

    def _enter(self) -> List[Any]:
        stack = self._stack
        spans = self.spans
        if len(spans) < SPAN_CAPACITY:
            index = len(spans)
            spans.append(None)
        else:
            index = -1
            self.spans_dropped += 1
        frame = [time.perf_counter(), 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, kid: int, frame: List[Any]) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        self.calls[kid] += 1
        self.incl_s[kid] += dur
        self.self_s[kid] += dur - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += dur
            parent_index = parent[2]
        else:
            self.top_level_s += dur
            parent_index = -1
        if frame[2] >= 0:
            self.spans[frame[2]] = (kid, frame[0], end, parent_index)

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn: Callable, kid: int) -> Callable:
        enter = self._enter
        exit_ = self._exit
        observer = self._observers.get(self.keys[kid])
        if observer is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(kid, frame)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(kid, frame)
                observer(args, kwargs, result)
                return result
        return traced

    def _gen_key(self, gen: Any) -> int:
        code = gen.gi_code
        kid = self._gen_keys.get(code)
        if kid is None:
            layer, tail = self._code_key.get(
                code.co_filename, ("external", code.co_filename)
            )
            kid = self._key(layer, f"{tail}.<process> {code.co_qualname}")
            self._gen_keys[code] = kid
        return kid

    def _traced_gen(self, gen: Any) -> Any:
        """A proxy generator timing each resumption of ``gen``."""
        kid = self._gen_key(gen)
        enter = self._enter
        exit_ = self._exit

        def resume():
            value = None
            thrown = None
            while True:
                frame = enter()
                try:
                    if thrown is not None:
                        exc, thrown = thrown, None
                        target = gen.throw(exc)
                    else:
                        target = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_(kid, frame)
                try:
                    value = yield target
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # re-raised into ``gen``
                    thrown = exc

        proxy = resume()
        # Process names default to the generator's __name__.
        proxy.__name__ = gen.__name__
        proxy.__qualname__ = gen.__qualname__
        return proxy

    def _wrap_spawn(self, fn: Callable, kid: int) -> Callable:
        traced_call = self._wrap_call(fn, kid)
        traced_gen = self._traced_gen

        @functools.wraps(fn)
        def spawn(sim, *args, **kwargs):
            args = list(args)
            # spawn(gen, name) / spawn_at(when, gen, name)
            pos = 1 if fn.__name__ == "spawn_at" else 0
            if "gen" in kwargs:
                kwargs["gen"] = traced_gen(kwargs["gen"])
            else:
                args[pos] = traced_gen(args[pos])
            return traced_call(sim, *args, **kwargs)

        return spawn

    # -- installation --------------------------------------------------------

    def _targets(self, modules: List[Any]) -> List[Tuple[Any, str, Any, Key]]:
        """``(owner, attribute, original, key)`` for every wrap site."""
        targets = []
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            tail = module_tail(module.__name__)
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        targets.append(
                            (module, name, obj, (layer, f"{tail}.{name}"))
                        )
                elif inspect.isclass(obj) and not _is_protocol(obj):
                    for attr, member in sorted(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        func = member
                        if isinstance(member, (staticmethod, classmethod)):
                            func = member.__func__
                        if not inspect.isfunction(func):
                            continue
                        if inspect.isgeneratorfunction(func):
                            continue
                        targets.append((
                            obj, attr, member,
                            (layer, f"{tail}.{name}.{attr}"),
                        ))
        return targets

    def install(self, modules: List[Any]) -> None:
        if self.installed:
            raise RuntimeError("already installed")
        self._original_objs.clear()
        for module in modules:
            layer = layer_of(module.__name__)
            path = getattr(module, "__file__", None)
            if layer is not None and path:
                self._code_key[path] = (layer, module_tail(module.__name__))
        replacements: Dict[int, Any] = {}
        for owner, attr, member, key in self._targets(modules):
            kid = self._key(*key)
            func = member
            kind = None
            if isinstance(member, (staticmethod, classmethod)):
                kind = type(member)
                func = member.__func__
            if key in SPAWN_KEYS:
                wrapper = self._wrap_spawn(func, kid)
            else:
                wrapper = self._wrap_call(func, kid)
            new = kind(wrapper) if kind is not None else wrapper
            self._set(owner, attr, new)
            self._original_objs.append(func)
            replacements[id(func)] = wrapper
        # Call-site bindings: names imported from the defining module.
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._set(module, name, replacements[id(obj)])
        self.reset()
        self.installed = True

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.installed = False

    def unresolved(self, modules: List[Any]) -> List[str]:
        """References to an original function left after ``install()``.

        Scans module and class namespaces and the containers one level
        inside module namespaces (dispatch tables); each hit is a call
        path the trace would silently miss.
        """
        originals = {id(f) for f in self._original_objs}
        misses = []

        def check(where: str, value: Any) -> None:
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if id(value) in originals:
                misses.append(where)

        for module in modules:
            for name, obj in vars(module).items():
                check(f"{module.__name__}.{name}", obj)
                if isinstance(obj, dict):
                    for k, v in obj.items():
                        check(f"{module.__name__}.{name}[{k!r}]", v)
                elif isinstance(obj, (list, tuple)):
                    for i, v in enumerate(obj):
                        check(f"{module.__name__}.{name}[{i}]", v)
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        check(f"{module.__name__}.{name}.{attr}", member)
        return sorted(set(misses))

    # -- results -------------------------------------------------------------

    def key_id(self, layer: str, name: str) -> int:
        return self._key_ids[(layer, name)]

    def count(self, layer: str, name: str) -> int:
        return self.calls[self.key_id(layer, name)]

    def inclusive_s(self, layer: str, name: str) -> float:
        return self.incl_s[self.key_id(layer, name)]

    def process_resumes(self) -> int:
        """Kernel events dispatched: resumptions of traced processes."""
        return sum(
            self.calls[kid] for kid in self._gen_keys.values()
        )

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (layer, _name), seconds in zip(self.keys, self.self_s):
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def completed_spans(self) -> List[Tuple[int, float, float, int]]:
        return [s for s in self.spans if s is not None]


def write_layer_trace(
    path: str,
    trace: LayerTrace,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the recorded spans as a Chrome trace, one track per layer.

    Goes through the program's own exporter
    (:func:`repro.obs.export.write_chrome_trace`); span times are host
    milliseconds since the first recorded span.
    """
    from repro.obs.export import write_chrome_trace
    from repro.obs.spans import SpanRecorder

    spans = trace.completed_spans()
    recorder = SpanRecorder(capacity=max(1, len(spans)))
    t0 = min((s[1] for s in spans), default=0.0)
    names = [f"{layer}.{name}" for layer, name in trace.keys]
    for kid, start, end, parent in spans:
        layer, name = trace.keys[kid]
        parent_name = None
        if parent >= 0 and trace.spans[parent] is not None:
            parent_name = names[trace.spans[parent][0]]
        recorder.add(
            layer, name, (start - t0) * 1000.0, (end - t0) * 1000.0,
            track=layer, parent=parent_name,
        )
    meta = {"clock": "host wall time", "spans_dropped": trace.spans_dropped}
    meta.update(metadata or {})
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return write_chrome_trace(path, recorder, metadata=meta)
