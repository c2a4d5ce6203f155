"""Outside-in span tracer for the segadapt benchmark.

The tracer replaces functions and methods of the segadapt modules with
wrappers, from the benchmark's side: nothing under ``src/`` knows about it.
Each wrapped call records one span (name, start, end, parent span, run id)
in memory; ``write`` saves them when the benchmark ends and ``restore`` puts
the originals back.  A function is wrapped in the namespace where its caller
looks it up (``segadapt.train.pixel_features``, not ``segadapt.data``), since
``from x import f`` binds the caller to the original object.

Hooks that measure something (graph size, mask size) run inside a span of
their own, ``trace.hook``, so their cost is not charged to any layer.
"""

from __future__ import annotations

import time

import numpy as np

HOOK = "trace.hook"


class TraceError(RuntimeError):
    """A traced quantity could not be measured; reporting 0 would be wrong."""


class Tracer:
    """Records nested spans around wrapped callables and counts named events."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run = 0          # id shared by the spans of one operation
        self.names: list[str] = []
        self.spans: list = []  # index = span id; (name_id, start, end, parent, run)
        self.counts: dict[str, int] = {}
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attr, original)

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, name_id: int, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            spans[sid] = (name_id, start, end, parent, self.run)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(self._name_id(name), fn, args, kwargs)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``before(*args)`` runs ahead of the call and ``after(result, *args)``
        behind it, each inside a ``trace.hook`` span.  A missing attribute
        raises, so a renamed layer is noticed instead of reading as idle.
        """
        original = getattr(owner, attr)
        name_id, hook_id = self._name_id(name), self._name_id(HOOK)
        call = self._call

        def traced(*args, **kwargs):
            if before is not None:
                call(hook_id, before, args, {})
            result = call(name_id, original, args, kwargs)
            if after is not None:
                call(hook_id, after, (result,) + args, {})
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def _columns(self):
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise TraceError("spans are still open; summarise after the run ends")
        if not done:
            return tuple(np.zeros(0, dtype=t) for t in (int, float, float, int, int))
        return tuple(np.array(col) for col in zip(*done))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        name_id, start, end, parent, _ = self._columns()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        own = duration - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Save every span as columns of an ``.npz`` file."""
        name_id, start, end, parent, run = self._columns()
        np.savez(path, names=np.array(self.names, dtype=str), name_id=name_id,
                 start=start, end=end, parent=parent, run=run)


def graph_nodes(root) -> int:
    """Tensors a backward pass from ``root`` reaches: the root plus tracked ancestors.

    Raises ``TraceError`` when the root carries no graph, so a change to the
    engine's graph representation cannot make the count silently read 0.
    """
    parents = getattr(root, "_parents", None)
    if not parents:
        raise TraceError(
            "autodiff.backward.nodes: the root tensor has no graph to walk "
            f"(_parents={parents!r}); update the benchmark's graph walk")
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
