"""Answer checks, all run outside the timed region.

:func:`core_problems` is the definition of a (k,r)-core, checked from
the graph itself: at least ``k + 1`` vertices, every internal degree at
least ``k``, connected, and every pair similar under the predicate.
:func:`digest` names a set of cores independently of order, so answers
can be compared with each other and with the pinned expectations in
``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def core_problems(graph, core: Iterable[int], k: int, predicate) -> List[str]:
    """Why ``core`` is not a (k,r)-core of ``graph`` (empty when it is)."""
    members = set(core)
    problems = []
    if len(members) < k + 1:
        problems.append(f"{len(members)} vertices, fewer than k+1={k + 1}")
    missing = [u for u in members if u not in graph]
    if missing:
        return problems + [f"vertices {sorted(missing)[:5]} not in the graph"]
    low = [
        u for u in members if len(graph.neighbors(u) & members) < k
    ]
    if low:
        problems.append(f"vertices {sorted(low)[:5]} have internal degree < k")
    if members:
        start = next(iter(members))
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in graph.neighbors(u) & members:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) != len(members):
            problems.append("not connected")
    order = sorted(members)
    bare = [u for u in order if not graph.has_attribute(u)]
    if bare:
        return problems + [f"vertices {bare[:5]} have no attribute"]
    attrs = [graph.attribute(u) for u in order]
    for i, j in combinations(range(len(order)), 2):
        if not predicate.similar(attrs[i], attrs[j]):
            return problems + [f"pair {(order[i], order[j])} is not similar"]
    return problems


def digest(cores: Iterable[Iterable[int]]) -> str:
    """Order-independent SHA-256 of a set of cores."""
    canon = sorted(sorted(int(u) for u in core) for core in cores)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def load_expected() -> Dict:
    with EXPECTED_PATH.open() as fh:
        return json.load(fh)


class CoreValidator:
    """Validates each distinct core once per graph state.

    A validated core stays valid across edits that touch none of its
    vertices: adding an edge never breaks a core, and removing an edge or
    changing an attribute only affects cores holding its endpoints.
    :meth:`touched` forgets exactly those.
    """

    def __init__(self, graph, k: int, predicate):
        self.graph, self.k, self.predicate = graph, k, predicate
        self._verdicts: Dict[frozenset, List[str]] = {}

    def problems(self, core: Sequence[int]) -> List[str]:
        key = frozenset(core)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = core_problems(self.graph, key, self.k, self.predicate)
            self._verdicts[key] = verdict
        return verdict

    def touched(self, vertices: Iterable[int]) -> None:
        hit = set(vertices)
        for key in [key for key in self._verdicts if key & hit]:
            del self._verdicts[key]
