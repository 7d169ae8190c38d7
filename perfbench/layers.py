"""Bench-side layer timing: wrappers installed on a pipeline's parts.

Nothing here changes the program.  :class:`LayerClock` replaces a
bound method on one *instance* (``parser.parse_record``,
``detectors[0].detect``, ...) with a timed pass-through, keeps a stack
of open layer spans so each layer's self time excludes its children,
and removes every wrapper again with :meth:`LayerClock.remove`.

:class:`Slowdown` uses the same seam to make a layer slower on
purpose (the sensitivity self-test): after each call it spins for as
long as the call took, so the layer costs twice as much.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Layer name -> the (component, function) pairs that enter it.  Paths
#: are attribute chains on a ``Pipeline`` instance, or ``module:NAME``
#: for a function the pipeline module calls by its global name.  A
#: layer already open on the stack makes nested entries (say
#: ``parse_batch`` calling ``parse_record``) pass straight through.
LAYER_ENTRIES: dict[str, list[tuple[str, str]]] = {
    "parse": [("parser", "parse_record"), ("parser", "parse_batch")],
    "parse.mask": [("parser.masker", "mask")],
    "detect": [("detectors.0", "detect")],
    "detect.fit": [("detectors.0", "fit")],
    # Streaming pipelines close sessions in the sessionizer; batch
    # pipelines group a whole stream with ``sessions_from_parsed``.
    "sessionize": [("sessionizer", "push"), ("sessionizer", "flush"),
                   ("module:repro.api.pipeline", "sessions_from_parsed")],
    "classify": [("classifier", "classify")],
    "classify.deliver": [("pools", "deliver")],
    "classify.feedback": [("pools", "move_alert"),
                          ("pools", "set_criticality")],
}


def resolve(pipeline, path: str):
    """Follow a dotted attribute path (digits index lists)."""
    if path.startswith("module:"):
        return sys.modules[path[len("module:"):]]
    target = pipeline
    for part in path.split("."):
        target = target[int(part)] if part.isdigit() else getattr(target, part)
    return target


_MISSING = object()


class _Patches:
    """Instance-attribute patches that can be undone exactly."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, obj, attr: str, replacement) -> None:
        previous = obj.__dict__.get(attr, _MISSING)
        setattr(obj, attr, replacement)
        self._undo.append((obj, attr, previous))

    def remove(self) -> None:
        while self._undo:
            obj, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)



class LayerClock(_Patches):
    """Inclusive and self time per layer, from wrappers around calls.

    ``after`` hooks run after a wrapped call returns, outside the
    timed interval (``sessionize`` uses one to sample open sessions).
    """

    def __init__(self) -> None:
        super().__init__()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.open_peak = 0
        self._stack: list[list] = []

    def install(self, pipeline) -> "LayerClock":
        """Wrap every layer entry the pipeline has."""
        for layer, entries in LAYER_ENTRIES.items():
            for path, method in entries:
                obj = resolve(pipeline, path)
                if obj is None:
                    continue  # no sessionizer on a batch pipeline
                after = self._sample_open if path == "sessionizer" else None
                self.wrap(obj, method, layer, after=after)
        return self

    def _sample_open(self, sessionizer) -> None:
        self.open_peak = max(self.open_peak, sessionizer.open_sessions)

    def wrap(self, obj, method: str, layer: str, *, after=None) -> None:
        original = getattr(obj, method)
        stack = self._stack
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls

        def timed(*args, **kwargs):
            if any(frame[0] == layer for frame in stack):
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                inclusive[layer] += elapsed
                self_time[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                if after is not None:
                    after(obj)

        self.patch(obj, method, timed)


class Slowdown(_Patches):
    """Make one layer twice as slow by spinning after each call."""

    def __init__(self, layer: str) -> None:
        super().__init__()
        if layer not in LAYER_ENTRIES:
            raise ValueError(f"unknown layer {layer!r}")
        self.layer = layer

    def install(self, pipeline) -> "Slowdown":
        depth = [0]
        for path, method in LAYER_ENTRIES[self.layer]:
            obj = resolve(pipeline, path)
            original = getattr(obj, method)

            def slowed(*args, _original=original, **kwargs):
                if depth[0]:
                    return _original(*args, **kwargs)
                depth[0] += 1
                start = perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    until = 2 * perf_counter() - start
                    while perf_counter() < until:
                        pass

            self.patch(obj, method, slowed)
        return self
