"""Outside-in span tracer: wrappers installed around each layer's entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` patches
public methods and module-level functions of the simulator while installed
and restores the originals when uninstalled, so untraced runs execute the
program exactly as shipped.

Each wrapped call opens a span whose parent is the innermost wrapped call
still open.  Spans fold into per-``(name, parent)`` totals as they close —
calls, inclusive seconds, and seconds covered by child spans — so memory
stays bounded however many calls a run makes.  A span's self time is its
inclusive time minus its children's.  Generator entry points (workload
streams, the parallelism candidate enumerator) are traced per item: every
``next`` is a span and every produced item a call.

Counters ride on the same boundaries: an ``on_result`` hook sees each
wrapped call's arguments and return value and bumps :attr:`Tracer.counters`.
"""

import heapq
import sys
import time
from collections import defaultdict

_ROOT = "<op>"


class Tracer:
    """Span totals and counters for the wrapped entry points."""

    def __init__(self):
        #: (name, parent name) -> [calls, inclusive seconds, child seconds]
        self.totals = {}
        self.counters = defaultdict(float)
        self._stack = [[_ROOT, 0.0]]
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _fold(self, name, parent, elapsed, child, counted):
        entry = self.totals.get((name, parent))
        if entry is None:
            entry = self.totals[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += counted
        entry[1] += elapsed
        entry[2] += child

    def wrap(self, name, fn, on_result=None):
        """A traced stand-in for ``fn`` (a plain function or method)."""
        stack = self._stack
        fold = self._fold
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                fold(name, parent[0], elapsed, frame[1], 1)
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_iterable(self, name, factory):
        """A stand-in for an iterator factory whose ``next`` calls are spans."""
        tracer = self

        def traced(*args, **kwargs):
            return _TracedIterator(tracer, name, iter(factory(*args, **kwargs)))

        traced.__wrapped__ = factory
        traced.__name__ = getattr(factory, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def patch_method(self, cls, attribute, name, on_result=None):
        """Trace ``cls.attribute`` (defined on ``cls`` itself)."""
        self._set(cls, attribute, self.wrap(name, cls.__dict__[attribute], on_result))

    def patch_subclasses(self, base, attribute, name, on_result=None):
        """Trace ``attribute`` on ``base`` and every subclass that defines it."""
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attribute in cls.__dict__:
                self.patch_method(cls, attribute, name, on_result)

    def patch_function(self, function, name, on_result=None, iterable=False):
        """Trace ``function`` under every name the simulator's modules bind it to.

        ``from x import f`` copies the binding into the importing module, so
        each ``repro.*`` module holding the original object is patched.
        """
        if iterable:
            traced = self.wrap_iterable(name, function)
        else:
            traced = self.wrap(name, function, on_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attribute, traced)

    def patch_attribute(self, owner, attribute, value):
        """Replace ``owner.attribute`` (e.g. a module) until uninstalled."""
        self._set(owner, attribute, value)

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def by_name(self):
        """name -> (calls, inclusive seconds, self seconds), over all parents."""
        merged = {}
        for (name, _), (calls, total, child) in self.totals.items():
            current = merged.get(name, (0, 0.0, 0.0))
            merged[name] = (current[0] + calls, current[1] + total, current[2] + total - child)
        return merged

    def table(self):
        """Every (name, parent) row, heaviest self time first."""
        rows = [
            {
                "name": name,
                "parent": parent,
                "calls": calls,
                "total_s": total,
                "self_s": total - child,
            }
            for (name, parent), (calls, total, child) in self.totals.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows


class _TracedIterator:
    """Iterator proxy: each ``next`` is a span; each produced item a call."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer, name, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1]
        frame = [self._name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        produced = 0
        try:
            item = next(self._inner)
            produced = 1
            return item
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            parent[1] += elapsed
            tracer._fold(self._name, parent[0], elapsed, frame[1], produced)


class CountingHeapq:
    """Drop-in for the ``heapq`` module that counts events popped."""

    def __init__(self, counters, key):
        self._counters = counters
        self._key = key

    def heappop(self, heap):
        self._counters[self._key] += 1
        return heapq.heappop(heap)

    def __getattr__(self, attribute):
        return getattr(heapq, attribute)
