"""Spans around every public qwres function, recorded from outside.

The package modules import each other's functions by name (``from .x
import y``), so a function is replaced by its wrapper in every module
namespace that holds it, e.g. both ``qwres.transfer.transfer_product`` and
``qwres.resonances.transfer_product``.  A span records its name, thread,
start, end, the enclosing span on the same thread, the window size n0 of
the call (taken from a CoinSequence argument or inherited from the
enclosing span), a size attribute and the exception class it raised.

Self time is a span's duration minus the spans it directly encloses on
the same thread.  Spans started in pool threads have no same-thread
parent: their time is busy time of their own layer, never self time of
the ``cli.main`` call waiting for the pool.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "coins",
    "states",
    "walk",
    "transfer",
    "scattering",
    "resonances",
    "expansion",
    "resolvent",
    "genericity",
    "cli",
)

# name, thread id, parent index, start, end, n0, size, exception class
NAME, TID, PARENT, START, END, N0, SIZE, EXC = range(8)


def _size(name, args, kwargs, result):
    """The work count a span carries: xi points, T steps or output sites."""
    if name == "transfer.transfer_product":
        xi = args[1] if len(args) > 1 else kwargs.get("xi")
        return int(getattr(xi, "size", 1))
    if name == "walk.evolve":
        return int(args[2] if len(args) > 2 else kwargs["T"])
    if name == "walk.step" and result is not None:
        return len(result.amplitudes)
    return None


class Tracer:
    """Install wrappers once; record spans only while ``active`` is set."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            n0 = next((a.n0 for a in args if type(a).__name__ == "CoinSequence"), None)
            if n0 is None and parent is not None:
                n0 = spans[parent][N0]
            span = [name, threading.get_ident(), parent, time.perf_counter(), 0.0, n0, None, None]
            with lock:
                spans.append(span)
                stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[EXC] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                span[SIZE] = _size(name, args, kwargs, result)

        return traced

    def install(self, package):
        """Wrap the public functions of every layer, at every import site."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        cli = sys.modules[f"{package.__name__}.cli"]
        if hasattr(cli, "_parallel_map"):
            wrappers[cli._parallel_map] = self._wrap("cli._parallel_map", cli._parallel_map)
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == package.__name__]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        states = sys.modules[f"{package.__name__}.states"]
        init = states.WaveState.__init__
        self._originals.append((states.WaveState, "__init__", init))
        states.WaveState.__init__ = self._wrap("states.WaveState", init)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def self_times(self):
        """Self seconds of each span: duration minus same-thread children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out


def layer_stats(spans, self_s):
    """Aggregate spans by name into calls, self time, sizes and failures."""
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "size": 0, "exc": defaultdict(int)})
    by_n0 = defaultdict(list)  # (name, n0) -> [self_s, ...]
    by_size = defaultdict(list)  # (name, size) -> [inclusive seconds, ...]
    fails_by_n0 = defaultdict(int)
    for span, own in zip(spans, self_s):
        st = stats[span[NAME]]
        st["calls"] += 1
        st["self_s"] += own
        st["size"] += span[SIZE] or 0
        if span[EXC] is not None:
            st["exc"][span[EXC]] += 1
            fails_by_n0[(span[NAME], span[N0])] += 1
        by_n0[(span[NAME], span[N0])].append(own)
        if span[SIZE] is not None:
            by_size[(span[NAME], span[SIZE])].append(span[END] - span[START])
    return stats, by_n0, by_size, fails_by_n0


def pool_parallelism(spans, point_names=("scattering.scattering_matrix", "resolvent.identity_residual")):
    """Busy seconds of per-point spans over the wall seconds of their maps.

    A map is a ``cli._parallel_map`` span, or the ``cli.main`` span itself
    when the package has no pool.  Per-point spans inside a map's interval
    count from any thread; a value near 1 means the threads ran serially.
    """
    maps = [s for s in spans if s[NAME] == "cli._parallel_map"]
    if not maps:
        maps = [s for s in spans if s[NAME] == "cli.main"]
    points = sorted((s[START], s[END]) for s in spans if s[NAME] in point_names)
    starts = [b for b, _ in points]
    busy = wall = 0.0
    for m in maps:
        lo = bisect.bisect_left(starts, m[START])
        hi = bisect.bisect_right(starts, m[END])
        inside = [e - b for b, e in points[lo:hi] if e <= m[END]]
        if inside:
            busy += sum(inside)
            wall += m[END] - m[START]
    return busy / wall if wall > 0 else 0.0
