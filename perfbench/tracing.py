"""In-memory span recording around the library's layer boundaries.

A :class:`Tracer` replaces a module or class attribute with a wrapper
that records one span per call: ``(name, start_ns, end_ns, parent,
request)``.  Spans live in a list until the run ends, when
:func:`self_times` derives each span's self time (its duration minus the
part of it covered by its child spans).  Wrapping happens at the name the
*caller* looks up -- e.g. ``repro.core.session.kcore_survivors``, the
global the session's ``_prepare`` resolves at call time -- so nothing in
``src/`` changes and :meth:`Tracer.restore` puts every original back.

Count-only wrappers (:meth:`Tracer.count`) bump a counter and record no
span; they are for the per-node bitset kernels, which run millions of
times per query.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(name, start_ns, end_ns, parent_index, request_id)``; ``parent`` is
#: -1 for a root span.
Span = Tuple[str, int, int, int, int]

_clock = time.perf_counter_ns


class Tracer:
    """Records spans and counts for wrapped callables.

    Single-threaded: the benchmark drives the library from one thread on
    the serial plan, so the open-span stack is a plain list.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._open: List[int] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.request)

        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` bumping ``counts[name]`` per call (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return tallied

    def root(self, name: str, request: int) -> "_RootSpan":
        """Context manager for a request's root span."""
        return _RootSpan(self, name, request)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _replace(self, owner: Any, attr: str, wrapper: Callable[[Callable], Any]) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = wrapper(original)
            self._saved.append((owner, attr, original, True))
            return
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(wrapper(raw.__func__))
        else:
            new = wrapper(raw)
        setattr(owner, attr, new)
        self._saved.append((owner, attr, raw, False))

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self._replace(owner, attr, lambda fn: self.wrap(fn, name))

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``."""
        self._replace(owner, attr, lambda fn: self.counted(fn, name))

    def patch_factory(self, owner: Any, attr: str, method: str, name: str) -> None:
        """Trace ``method`` on every object ``owner.attr(...)`` returns.

        The engines build their branch-order object per component and
        call its ``choose`` per node; wrapping the factory is how the
        order layer's calls are seen from outside.
        """

        def wrapper(factory: Callable) -> Callable:
            @functools.wraps(factory)
            def build(*args, **kwargs):
                obj = factory(*args, **kwargs)
                setattr(obj, method, self.wrap(getattr(obj, method), name))
                return obj

            return build

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._saved:
            owner, attr, original, is_item = self._saved.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def finished_spans(self) -> List[Span]:
        """Every span; call once no wrapped call is in flight."""
        if self._open:
            raise RuntimeError("spans are still open")
        return list(self.spans)


class _RootSpan:
    __slots__ = ("tracer", "name", "request", "idx", "start")

    def __init__(self, tracer: Tracer, name: str, request: int):
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self) -> None:
        t = self.tracer
        t.request = self.request
        self.idx = len(t.spans)
        t.spans.append(None)
        t._open.append(self.idx)
        self.start = _clock()

    def __exit__(self, *exc) -> None:
        end = _clock()
        t = self.tracer
        t._open.pop()
        t.spans[self.idx] = (self.name, self.start, end, -1, self.request)
        t.request = -1


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[int]:
    """Per-span self time in nanoseconds.

    A span's self time is its duration minus the length of the union of
    its children's intervals, each clipped to the parent's interval --
    exact integer arithmetic, so nested synthetic spans check exactly.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent, _req in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent, _req) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "self_s", "total_s"}}`` over all spans."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _p, _r), own in zip(spans, selfs):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own / 1e9
        row["total_s"] += (end - start) / 1e9
    return out


def self_by_request(
    spans: Sequence[Span], requests: Iterable[int]
) -> Dict[str, float]:
    """Self seconds per span name, summed over the given request ids."""
    wanted = set(requests)
    out: Dict[str, float] = {}
    for (name, _s, _e, _p, req), own in zip(spans, self_times(spans)):
        if req in wanted:
            out[name] = out.get(name, 0.0) + own / 1e9
    return out


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------

#: ``(module, attribute, span name)`` -- wrapped where callers look them
#: up.  ``attribute`` may be ``Class.method``.  Span names are the
#: per-layer metric prefixes of BENCHMARK.json.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    # engines: one-shot and session queries resolve these per component
    ("repro.core.session", "find_maximum_in_component", "engine"),
    # pruning, termination, maximal check and packing, per engine module
    ("repro.core.enumerate", "apply_pruning_bits", "pruning"),
    ("repro.core.enumerate", "apply_pruning", "pruning"),
    ("repro.core.enumerate", "similarity_free_bits", "pruning"),
    ("repro.core.enumerate", "similarity_free_set", "pruning"),
    ("repro.core.enumerate", "move_similarity_free_into_m_bits", "pruning"),
    ("repro.core.enumerate", "move_similarity_free_into_m", "pruning"),
    ("repro.core.maximum", "apply_pruning_bits", "pruning"),
    ("repro.core.maximum", "apply_pruning", "pruning"),
    ("repro.core.maximum", "similarity_free_bits", "pruning"),
    ("repro.core.maximum", "similarity_free_set", "pruning"),
    ("repro.core.maximum", "move_similarity_free_into_m_bits", "pruning"),
    ("repro.core.maximum", "move_similarity_free_into_m", "pruning"),
    ("repro.core.enumerate", "should_terminate_early_bits", "termination"),
    ("repro.core.enumerate", "should_terminate_early", "termination"),
    ("repro.core.maximum", "should_terminate_early_bits", "termination"),
    ("repro.core.maximum", "should_terminate_early", "termination"),
    ("repro.core.enumerate", "is_maximal_bits", "maximal_check"),
    ("repro.core.enumerate", "is_maximal", "maximal_check"),
    ("repro.core.maximal_check", "choose_check_vertex_bits", "orders"),
    ("repro.core.maximal_check", "choose_check_vertex", "orders"),
    ("repro.core.enumerate", "bitset_context", "context.pack"),
    ("repro.core.maximum", "bitset_context", "context.pack"),
    # bounds and the greedy warm start (maximum only)
    ("repro.core.maximum", "compute_bound_bits", "bounds"),
    ("repro.core.maximum", "compute_bound", "bounds"),
    ("repro.core.maximum", "greedy_core_in_component", "heuristics"),
    ("repro.core.session", "greedy_core_in_component", "heuristics"),
    # the session's query entry points (one-shot calls go through them)
    ("repro.core.session", "KRCoreSession.enumerate", "session.query"),
    ("repro.core.session", "KRCoreSession.maximum", "session.query"),
    ("repro.core.session", "KRCoreSession.statistics", "session.query"),
    # preprocessing, as KRCoreSession._prepare calls it
    ("repro.core.session", "KRCoreSession._prepare", "session.prepare"),
    ("repro.similarity.cache", "EdgeSimilarityCache.__init__", "similarity.edge_values"),
    ("repro.similarity.cache", "EdgeSimilarityCache.from_payload", "similarity.edge_values"),
    ("repro.similarity.cache", "EdgeSimilarityCache.filtered_at", "similarity.filter"),
    ("repro.core.session", "component_index", "similarity.index"),
    ("repro.similarity.cache", "PairwiseSimilarityCache.__init__", "similarity.index"),
    ("repro.similarity.cache", "PairwiseSimilarityCache.index_at", "similarity.index"),
    ("repro.core.session", "kcore_survivors", "graph.kcore"),
    ("repro.core.session", "component_sets", "graph.components"),
    ("repro.core.session", "freeze_graph", "solver.prepare"),
    ("repro.core.session", "component_adjacency", "solver.prepare"),
    ("repro.core.session", "component_edges_key", "solver.prepare"),
    ("repro.core.session", "component_edges_key_csr", "solver.prepare"),
    # the service path
    ("repro.serve.service", "KRCoreService.handle", "serve"),
    ("repro.serve.service", "graph_fingerprint", "graph.fingerprint"),
    ("repro.store.store", "graph_fingerprint", "graph.fingerprint"),
    ("repro.core.session", "maintain_session", "maintenance"),
    ("repro.store.store", "GraphStore.record_edit", "store.record_edit"),
    ("repro.core.session", "KRCoreSession.save", "store.flush"),
)

#: The enumeration engine is looked up by name in this dict per query.
ENGINE_TABLE = ("repro.core.solver", "ENUM_ENGINES", "engine", "engine")

#: Branch-order factories whose objects' ``choose`` is traced.
ORDER_FACTORIES = (
    ("repro.core.enumerate", "make_order_bits"),
    ("repro.core.enumerate", "make_order"),
    ("repro.core.maximum", "make_order_bits"),
    ("repro.core.maximum", "make_order"),
)

#: Count-only wrappers on the bitset kernels (callers use ``bitops.X``).
COUNTS = ("kcore_mask", "reach_mask", "row_popcounts")


def _owner(module: str, attr: str) -> Tuple[Any, str]:
    obj: Any = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary of :data:`SPANS` and friends."""
    module, table, key, name = ENGINE_TABLE
    tracer.patch(getattr(importlib.import_module(module), table), key, name)
    for module, attr, name in SPANS:
        tracer.patch(*_owner(module, attr), name)
    for module, attr in ORDER_FACTORIES:
        tracer.patch_factory(*_owner(module, attr), "choose", "orders")
    bitops = importlib.import_module("repro.core.bitops")
    for attr in COUNTS:
        tracer.count(bitops, attr, f"bitops.{attr}.calls")
