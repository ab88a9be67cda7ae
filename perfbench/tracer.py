"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces chosen functions of freepd with thin wrappers while it
is installed.  A module-level function is replaced in every loaded freepd
module that holds it under any name, so a call made through ``from .x
import f`` is seen as well as one made through ``x.f``; a class attribute is
replaced on its class.  Each wrapped call records a span (layer, start, end,
parent) in memory.  A layer's self time is its spans' duration minus the
part covered by their child spans, so the self times of nested layers add up
to the traced wall time without double counting.

Targets are resolved once, when the tracer is built.  A target that a later
version of the package no longer has is listed in ``absent`` and simply not
wrapped; nothing here raises because a name went away.
"""

import functools
import sys
import time


class Target:
    """One function to wrap.

    ``layer`` names the metric family, ``module`` and ``path`` locate the
    function (``"Class.attr"`` for class attributes).  ``span=False`` counts
    calls without recording a span, so the time stays with the caller.
    ``size`` maps a call's result to a work count summed into
    ``<layer>.entries``; ``key`` maps a call's arguments to a value whose
    distinct occurrences within one installed interval are counted.
    """

    def __init__(self, layer, module, path, span=True, size=None, key=None):
        self.layer = layer
        self.module = module
        self.path = path
        self.span = span
        self.size = size
        self.key = key


class Recorder:
    """Spans and counters of one traced interval."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent index or -1)
        self.calls = {}
        self.self_s = {}
        self.entries = {}
        self.distinct = {}
        self.round = 0
        self._stack = []  # [span index, child time]

    def count(self, layer):
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def run(self, target, fn, args, kwargs):
        layer = target.layer
        self.count(layer)
        if target.key is not None:
            key = (self.round, target.key(*args, **kwargs))
            self.distinct.setdefault(layer, set()).add(key)
        if not target.span:
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (layer, start, end, parent)
            self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
        if target.size is not None:
            self.entries[layer] = self.entries.get(layer, 0) + target.size(result)
        return result


def _make_wrapper(target, fn, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.recorder.run(target, fn, args, kwargs)

    return wrapper


class Tracer:
    """Installs wrappers around ``targets`` in the loaded freepd modules."""

    def __init__(self, targets, package="freepd"):
        self.recorder = Recorder()
        self.absent = []
        self._patches = []  # (owner, attribute, original, replacement)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for target in targets:
            found = self._resolve(target)
            if found is None:
                self.absent.append(target.layer + ":" + target.path)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                self._patch_class(owner, attr, raw, target)
            else:
                wrapper = _make_wrapper(target, raw, self)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._patches.append((module, name, raw, wrapper))

    @staticmethod
    def _resolve(target):
        module = sys.modules.get(target.module)
        if module is None:
            return None
        owner = module
        parts = target.path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attr = parts[-1]
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            return None
        return owner, attr, raw

    def _patch_class(self, cls, attr, raw, target):
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(_make_wrapper(target, raw.__func__, self))
        else:
            wrapper = _make_wrapper(target, raw, self)
        self._patches.append((cls, attr, raw, wrapper))

    def __enter__(self):
        self.recorder.round += 1
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        return False

    def write_spans(self, path):
        """One line per span: layer, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent in self.recorder.spans:
                fh.write(f"{layer}\t{start:.9f}\t{end:.9f}\t{parent}\n")
