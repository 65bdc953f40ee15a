"""Span tracing from outside the package.

The tracer wraps module attributes that the solvers look up at call time
(``fraxolve.pde.assemble``, ``fraxolve.scalar.l1_weights``, ...) and the
callables inside the inputs the benchmark builds.  Each call becomes a span
``[name, start_ns, end_ns, parent_index]`` kept in memory; ``restore`` puts
every original attribute back.  Nothing under ``src/`` is modified.

Parents are tracked per thread: a span opened on a worker thread (for
example a ``table_run`` solve with FRAXOLVE_THREADS > 1) is a root.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import types
from collections import defaultdict

import fraxolve.harness
import fraxolve.pde
import fraxolve.scalar
import fraxolve.spatial
import fraxolve.stability

# (owner, attribute, span name): every lookup the solvers make through a
# module global or a class attribute that the split needs.
PATCH_POINTS = (
    (fraxolve.pde, "assemble", "spatial.assemble"),
    (fraxolve.pde, "check_max_principle", "spatial.check_max_principle"),
    (fraxolve.pde, "check_step_restriction", "mesh.check_step_restriction"),
    (fraxolve.pde, "l1_weights", "caputo.l1_weights"),
    (fraxolve.spatial.DiscreteOperator, "scatter", "spatial.scatter"),
    (fraxolve.spatial.DiscreteOperator, "data_vector", "spatial.data_vector"),
    (fraxolve.scalar, "l1_weights", "caputo.l1_weights"),
    (fraxolve.scalar, "history_load", "caputo.history_load"),
    (fraxolve.scalar, "check_step_restriction", "mesh.check_step_restriction"),
    (fraxolve.stability, "l1_weights", "caputo.l1_weights"),
    (fraxolve.stability, "solve_resolvent", "stability.solve_resolvent"),
    (fraxolve.stability, "mittag_leffler", "special.mittag_leffler"),
    (fraxolve.harness, "two_mesh_error", "harness.two_mesh_error"),
)

# scipy.sparse.linalg as reached through ``fraxolve.pde.spla``
SPLA_SPANS = {"splu": "pde.splu", "cg": "pde.krylov", "bicgstab": "pde.krylov"}


@contextlib.contextmanager
def patch_attr(owner, attr, value):
    """Set ``owner.attr = value`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def plain(name, fn):
    """The identity wrap: inputs built with it carry no instrumentation."""
    return fn


class Tracer:
    """Records spans of wrapped calls while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # a span's index is read and appended as one step
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        if fn is None:
            return None
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            with lock:
                stack.append(len(spans))
                spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def reset(self):
        self.spans.clear()

    def install(self):
        """Wrap every patch point; ``restore`` undoes it."""
        if self._saved:
            raise RuntimeError("tracer patches are already installed")
        for owner, attr, name in PATCH_POINTS:
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))
        spla = fraxolve.pde.spla
        proxy = types.ModuleType(spla.__name__)
        proxy.__dict__.update(vars(spla))
        for attr, name in SPLA_SPANS.items():
            setattr(proxy, attr, self.wrap(name, getattr(spla, attr)))
        self._set(fraxolve.pde, "spla", proxy)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self):
        """Install the patches and record spans for the duration of the block."""
        self.install()
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.restore()


def span_table(spans: list[list]) -> dict:
    """Per span name: inclusive seconds, calls and self seconds.

    Self time is a span's duration minus the durations of its children; the
    children of one span run one after another, so their sum is the time
    they cover.  Also returns, per (parent name, child name), the seconds and
    calls of direct children, and ``below_roots_s``: the time covered by the
    direct children of root spans.
    """
    child_s = [0.0] * len(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    by_parent = defaultdict(lambda: [0.0, 0])
    below_roots = 0.0
    for name, start, end, parent in spans:
        dur = (end - start) * 1e-9
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child_s[parent] += dur
            pname = spans[parent][0]
            by_parent[(pname, name)][0] += dur
            by_parent[(pname, name)][1] += 1
            if spans[parent][3] < 0:
                below_roots += dur
    self_s = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) * 1e-9 - child_s[i]
    return {
        "total_s": dict(total),
        "calls": dict(calls),
        "self_s": dict(self_s),
        "by_parent": {k: tuple(v) for k, v in by_parent.items()},
        "below_roots_s": below_roots,
    }
