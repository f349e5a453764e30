"""Incremental (k,r)-core maintenance for evolving graphs.

Social networks change: friendships form and dissolve, users move and
update their profiles.  Re-mining from scratch after every edit wastes
the key structural fact of the model: a (k,r)-core lives entirely inside
one connected component of the preprocessed graph (dissimilar edges
dropped, k-core peeled), so an edit can only invalidate the components
it touches.

:class:`DynamicKRCoreMiner` is thin orchestration over
:class:`~repro.core.session.KRCoreSession`: the session keeps an
editable copy of the graph plus a per-component result cache keyed by a
component *signature* (vertex set, similar-edge set, attribute
revisions).  Each single edit is absorbed by the session's bounded-scope
maintenance layer (:mod:`repro.core.maintenance`): edge metric values
are re-scored only where the edit touched, cached k-core survivor sets
are updated by a seeded two-phase peel, and only the prepared components
containing a touched vertex are rebuilt — so the next query re-solves
**only** the components whose signature changed, without even re-running
the linear preprocessing over the untouched rest.  For local edits on a
large graph that is typically one small component.

This layer is exact, not approximate: the test suite and the
edit-stream dimension of the differential fuzz harness check
equivalence with from-scratch mining after randomized edit sequences on
both backends, down to the search counters.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

from repro.core.config import ExecutionPlan, SearchConfig, adv_enum_config
from repro.core.results import KRCore, largest_core
from repro.core.session import KRCoreSession
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate


class DynamicKRCoreMiner:
    """Maintains the maximal (k,r)-cores of an evolving attributed graph.

    Parameters
    ----------
    graph:
        Initial graph; a private copy is kept, so later mutations of the
        original do not affect the miner (use the miner's mutators).
    k / predicate:
        The usual (k,r)-core parameters, fixed for the miner's lifetime.
    config:
        Solver configuration for the per-component searches (defaults to
        AdvEnum; its ``backend`` selects the preprocessing kernels).
    plan:
        Execution plan (an :class:`~repro.core.config.ExecutionPlan` or
        its field dict) replacing the config's own; ``"process"``
        re-solves the dirty components of each refresh over a worker
        pool — results are identical to serial.

    Usage
    -----
    >>> miner = DynamicKRCoreMiner(g, k=3, predicate=pred)
    >>> miner.cores()                  # full mine, fills the cache
    >>> miner.add_edge(3, 17)
    >>> miner.cores()                  # re-solves only dirty components
    """

    def __init__(
        self,
        graph: AttributedGraph,
        k: int,
        predicate: SimilarityPredicate,
        config: Optional[SearchConfig] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
    ):
        if k < 1:
            raise InvalidParameterError(f"k must be positive, got {k}")
        cfg = (config or adv_enum_config()).evolve(plan=plan)
        self._session = KRCoreSession(
            graph, config=cfg, copy=True,
        )
        self._k = k
        self._predicate = predicate
        self._dirty = True
        self._results: List[KRCore] = []
        #: components re-solved by the last refresh (observability/tests)
        self.last_solved_components = 0
        #: components served from cache by the last refresh
        self.last_cached_components = 0

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------
    @property
    def graph(self) -> AttributedGraph:
        """The miner's current graph (treat as read-only)."""
        return self._session.graph

    @property
    def session(self) -> KRCoreSession:
        """The underlying prepared session (shared caches, counters)."""
        return self._session

    def add_edge(self, u: int, v: int) -> bool:
        """Insert an edge; returns whether the graph changed."""
        changed = self._session.add_edge(u, v)
        self._dirty = self._dirty or changed
        return changed

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete an edge; returns whether the graph changed."""
        changed = self._session.remove_edge(u, v)
        self._dirty = self._dirty or changed
        return changed

    def set_attribute(self, u: int, value: Any) -> bool:
        """Update a vertex attribute; returns whether the graph changed.

        Re-assigning the current value is a no-op (no cache or result
        invalidation), mirroring :meth:`KRCoreSession.set_attribute`.
        """
        changed = self._session.set_attribute(u, value)
        self._dirty = self._dirty or changed
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cores(self) -> List[KRCore]:
        """All maximal (k,r)-cores of the current graph."""
        if self._dirty:
            self._refresh()
        return list(self._results)

    def maximum(self) -> Optional[KRCore]:
        """The maximum (k,r)-core of the current graph."""
        return largest_core(self.cores())

    def invalidate(self) -> None:
        """Drop every cached component result (next query re-solves all)."""
        self._session.invalidate()
        self._dirty = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        results, stats = self._session.enumerate(
            self._k, predicate=self._predicate, with_stats=True,
        )
        self._results = results
        self._dirty = False
        self.last_solved_components = stats.cache_misses
        self.last_cached_components = stats.cache_hits
