"""Span recorder for the traced run, and the per-layer numbers derived from it.

The recorder wraps library functions at the name their caller looks them
up under (``isoedf.mc.hermitian_eigenvalues``, ``isoedf.rmt.poly_roots``,
...), so every span is measured from outside the program without editing
it.  Each thread keeps its own span stack; a span opened on a thread whose
stack is empty (a Monte Carlo worker) takes the innermost open span of the
installing thread (``run_mc``) as its parent.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    parent: int  # 0 for a root span
    thread: int
    t0: int  # perf_counter_ns
    t1: int
    counts: dict

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


def _gemm_counts(args, kwargs, result) -> dict:
    """Computed work of the colouring and Gram GEMMs in one ``scm_eigenvalues`` call.

    numpy casts the real N x N colouring matrix to complex and runs zgemm, so
    both products cost 8 N^2 L real flops.  Bytes are the sizes of the
    operands and results as held in memory (colour: real A, complex G and X;
    Gram: X, the conjugate-transpose copy and the N x N product); cache misses
    are ignored.
    """
    n, l = args[0].shape[0], args[1]
    return {"gemm_flop": 16 * n * n * l, "gemm_byte": 24 * n * n + 80 * n * l}


def _density_counts(args, kwargs, result) -> dict:
    points = len(args[1])
    return {"grid_points": points, "atom_points": points * len(args[0].measure.atoms)}


def _compare_counts(args, kwargs, result) -> dict:
    return {"pooled": len(args[1].pooled), "l1": result.l1}


def _atom_counts(args, kwargs, result) -> dict:
    return {"atoms": len(result.atoms)}


# (module the caller looks the name up in, attribute, counter)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("isoedf", "predict_edf", None),
    ("isoedf", "run_mc", None),
    ("isoedf", "compare", _compare_counts),
    ("isoedf.rmt", "ensemble_spectrum", None),
    ("isoedf.rmt", "classify", None),
    ("isoedf.rmt", "reduce", _atom_counts),
    ("isoedf.rmt", "full_measure", _atom_counts),
    ("isoedf.rmt", "density_curve", _density_counts),
    ("isoedf.rmt", "poly_roots", None),
    ("isoedf.ecm", "build_ecm", None),
    ("isoedf.ecm", "sym_eigenvalues", None),
    ("isoedf.ecm", "bessel_j0", None),
    ("isoedf.mc", "build_ecm", None),
    ("isoedf.mc", "sqrt_psd", None),
    ("isoedf.mc", "make_stream", None),
    ("isoedf.mc", "scm_eigenvalues", _gemm_counts),
    ("isoedf.mc", "gaussian_snapshots", None),
    ("isoedf.mc", "hermitian_eigenvalues", None),
)


def span_name(fn) -> str:
    """Layer-qualified name: ``isoedf.linalg.poly_roots`` -> ``linalg.poly_roots``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, count: Callable | None = None):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                counts = count(args, kwargs, result) if ok and count else {}
                self.spans.append(
                    Span(sid, name, parent, threading.get_ident(), t0, t1, counts)
                )

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target with a traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it covered by its children on any thread."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {s.sid: s.ns - covered_ns(children[s.sid], s.t0, s.t1) for s in spans}


@dataclass
class LayerStats:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    own = self_ns(spans)
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.ns += s.ns
        st.self_ns += own[s.sid]
        for k, v in s.counts.items():
            st.counts[k] += v
    return stats


def run_mc_orchestration(spans: list[Span]) -> tuple[float, int]:
    """Busy time summed over ``run_mc``'s child spans on every thread, and the
    largest number of threads other than the caller's that ran them."""
    run_ids = {s.sid: s.thread for s in spans if s.name == "mc.run_mc"}
    busy = 0
    threads = {sid: set() for sid in run_ids}
    for s in spans:
        if s.parent in run_ids:
            busy += s.ns
            if s.thread != run_ids[s.parent]:
                threads[s.parent].add(s.thread)
    workers = max((len(t) or 1 for t in threads.values()), default=0)
    return busy / 1e6, workers


def write_spans(spans: list[Span], path) -> None:
    """Write spans as JSON lines: one header, then one list per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": Span._fields}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
