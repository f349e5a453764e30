"""The maximum (k,r)-core engine (Algorithm 5, Section 6).

Branch-and-bound with a size upper bound: a subtree whose bound does not
exceed the best core seen so far is cut.  Three differences from the
enumeration engine (Section 6.1): the bound prune, no maximal checking,
and an *adaptive branch order* — the preferred branch of the chosen
vertex (per the λΔ1−Δ2 score) is explored first so a large core is found
early and the bound starts cutting.

Like the enumeration engine, two interchangeable implementations exist,
selected by ``SearchConfig.backend``: the set-based reference
(``"python"``) and the packed-bitmask engine (``"csr"``), which mirrors
it decision-for-decision — the bounds are order-independent peels and
the orders break ties canonically, so both return the same core.

The engine processes components largest-max-degree first (the paper
starts "from the subgraph which holds the vertex with the highest
degree") and skips any component no larger than the best core found.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core import bitops
from repro.core.bounds import compute_bound, compute_bound_bits
from repro.core.context import (
    ComponentContext,
    bitset_context,
    use_bitset_engine,
)
from repro.core.heuristics import greedy_core_in_component
from repro.core.orders import EXPAND, make_order, make_order_bits
from repro.core.pruning import (
    apply_pruning,
    apply_pruning_bits,
    move_similarity_free_into_m,
    move_similarity_free_into_m_bits,
    similarity_free_bits,
    similarity_free_set,
)
from repro.core.termination import (
    should_terminate_early,
    should_terminate_early_bits,
)
from repro.graph.components import connected_components

Frame = Tuple[Set[int], Set[int], Set[int], Optional[int]]

#: Backend-neutral subtree root: ``(M, C, E, expanded)`` with the sets
#: as ascending tuples of *original* vertex ids — what
#: :func:`split_frontier` emits and :func:`solve_subtree` consumes, and
#: the picklable payload of a branch-split task.
SubtreeFrame = Tuple[
    Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Optional[int]
]


def find_maximum_in_component(
    ctx: ComponentContext,
    best_so_far: Optional[FrozenSet[int]] = None,
) -> Optional[FrozenSet[int]]:
    """Largest (k,r)-core in one component, seeded with a global best.

    Dispatches on ``ctx.config.backend`` (``"csr"`` → bitset engine,
    ``"python"`` → set-based reference); components beyond
    :data:`~repro.core.context.BITSET_VERTEX_LIMIT` stay on the set
    engine, whose memory is O(m) rather than O(n²/8).  Returns the best
    core found (which may be the seed itself) or ``None`` when the
    component holds no (k,r)-core and no seed was given.
    """
    if use_bitset_engine(ctx):
        return _find_maximum_bits(ctx, best_so_far)
    return _find_maximum_sets(ctx, best_so_far)


def _warm_seed(
    ctx: ComponentContext,
    best_so_far: Optional[FrozenSet[int]],
) -> Tuple[Optional[FrozenSet[int]], int]:
    """The engines' shared incumbent initialisation (+ warm start)."""
    best: Optional[FrozenSet[int]] = best_so_far
    best_size = len(best) if best else 0
    cfg = ctx.config
    if cfg.warm_start and best_size < len(ctx.vertices):
        # Greedy dissimilarity peeling yields a valid core cheaply; the
        # bound pruning starts strong instead of from zero.
        seed_core = greedy_core_in_component(ctx)
        if seed_core is not None and len(seed_core) > best_size:
            best = seed_core
            best_size = len(seed_core)
    return best, best_size


def _find_maximum_sets(
    ctx: ComponentContext,
    best_so_far: Optional[FrozenSet[int]] = None,
) -> Optional[FrozenSet[int]]:
    """The set-based reference engine."""
    cfg = ctx.config
    order = make_order(cfg.order, cfg.lam, ctx.rng)
    best, best_size = _warm_seed(ctx, best_so_far)
    stack: List[Tuple[Frame, int]] = [
        ((set(), set(ctx.vertices), set(), None), 0)
    ]
    best, _ = _search_sets(ctx, order, stack, best, best_size)
    return best


def _search_sets(
    ctx: ComponentContext,
    order,
    stack: List[Tuple[Frame, int]],
    best: Optional[FrozenSet[int]],
    best_size: int,
    collect_depth: Optional[int] = None,
    frontier: Optional[List[Frame]] = None,
) -> Tuple[Optional[FrozenSet[int]], int]:
    """The set engine's branch-and-bound loop over depth-tagged frames.

    With ``collect_depth`` set, any frame reaching that depth is parked
    on ``frontier`` *before* being entered (no stats tick, no budget
    tick, no pruning) — the branch-split coordinator's expansion pass.
    Whoever later searches the parked frame accounts its node, so the
    split schedule's merged stats are executor-independent.
    """
    cfg = ctx.config
    track_e = cfg.needs_excluded_set
    branch_mode = cfg.branch

    while stack:
        (M, C, E, expanded), depth = stack.pop()
        if collect_depth is not None and depth >= collect_depth:
            frontier.append((M, C, E, expanded))
            continue
        ctx.enter_node()

        # Cheap bound check before any work: the frame may have been
        # pushed before a better core was found.
        if len(M) + len(C) <= best_size:
            ctx.stats.bound_pruned += 1
            continue

        if not apply_pruning(ctx, M, C, E, expanded, track_e):
            continue
        if cfg.early_termination and should_terminate_early(ctx, M, C, E):
            continue

        if len(M) + len(C) <= best_size:
            ctx.stats.bound_pruned += 1
            continue
        if cfg.bound != "naive":
            if compute_bound(ctx, M, C) <= best_size:
                ctx.stats.bound_pruned += 1
                continue

        sf = similarity_free_set(ctx, C)
        if cfg.move_similarity_free and sf:
            move_similarity_free_into_m(ctx, M, C, E, sf, track_e)
        if sf:
            ctx.stats.retained += len(sf)
        if C == sf:
            # Leaf: M ∪ C is a (k,r)-core (per component when M = ∅).
            for piece in connected_components(ctx.adj, M | C):
                ctx.stats.cores_emitted += 1
                if len(piece) > best_size:
                    best = frozenset(piece)
                    best_size = len(piece)
            continue

        u, preferred = order.choose(ctx, M, C, C - sf)
        if branch_mode == "expand":
            preferred = EXPAND
        elif branch_mode == "shrink":
            preferred = "shrink"

        expand_frame: Frame = (M | {u}, C - {u}, set(E), u)
        shrink_frame: Frame = (
            set(M), C - {u}, (E | {u}) if track_e else E, None,
        )
        # LIFO: push the non-preferred branch first.
        if preferred == EXPAND:
            stack.append((shrink_frame, depth + 1))
            stack.append((expand_frame, depth + 1))
        else:
            stack.append((expand_frame, depth + 1))
            stack.append((shrink_frame, depth + 1))
    return best, best_size


# ----------------------------------------------------------------------
# Bitset engine
# ----------------------------------------------------------------------

BitFrame = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[int]]


def _find_maximum_bits(
    ctx: ComponentContext,
    best_so_far: Optional[FrozenSet[int]] = None,
) -> Optional[FrozenSet[int]]:
    """The packed-bitmask engine (same traversal as the reference)."""
    b = bitset_context(ctx)
    cfg = ctx.config
    order = make_order_bits(cfg.order, cfg.lam, ctx.rng)
    best, best_size = _warm_seed(ctx, best_so_far)
    stack: List[Tuple[BitFrame, int]] = [
        ((b.zeros(), b.full.copy(), b.zeros(), None), 0)
    ]
    best, _ = _search_bits(ctx, b, order, stack, best, best_size)
    return best


def _search_bits(
    ctx: ComponentContext,
    b,
    order,
    stack: List[Tuple[BitFrame, int]],
    best: Optional[FrozenSet[int]],
    best_size: int,
    collect_depth: Optional[int] = None,
    frontier: Optional[List[BitFrame]] = None,
) -> Tuple[Optional[FrozenSet[int]], int]:
    """Bitmask twin of :func:`_search_sets` (same frame discipline)."""
    cfg = ctx.config
    track_e = cfg.needs_excluded_set
    branch_mode = cfg.branch

    while stack:
        (M, C, E, expanded), depth = stack.pop()
        if collect_depth is not None and depth >= collect_depth:
            frontier.append((M, C, E, expanded))
            continue
        ctx.enter_node()

        # mc lives in a pooled scratch row (recomputed after pruning
        # mutates C); frames own their masks, temporaries never do.
        mc = np.bitwise_or(M, C, out=b.scratch(3))
        if bitops.popcount(mc) <= best_size:
            ctx.stats.bound_pruned += 1
            continue

        if not apply_pruning_bits(b, ctx, M, C, E, expanded, track_e):
            continue
        if cfg.early_termination and should_terminate_early_bits(
            b, ctx, M, C, E
        ):
            continue

        mc = np.bitwise_or(M, C, out=b.scratch(3))
        if bitops.popcount(mc) <= best_size:
            ctx.stats.bound_pruned += 1
            continue
        if cfg.bound != "naive":
            if compute_bound_bits(b, ctx, M, C, best_size) <= best_size:
                ctx.stats.bound_pruned += 1
                continue

        sf = similarity_free_bits(b, C)
        if cfg.move_similarity_free and sf.any():
            move_similarity_free_into_m_bits(b, ctx, M, C, E, sf, track_e)
        n_sf = bitops.popcount(sf)  # after Remark-1 moves, like the spec
        if n_sf:
            ctx.stats.retained += n_sf
        if bitops.equal(C, sf):
            for piece in bitops.component_masks(b.nbr, M | C):
                ctx.stats.cores_emitted += 1
                size = bitops.popcount(piece)
                if size > best_size:
                    best = b.to_vertices(piece)
                    best_size = size
            continue

        u, preferred = order.choose(b, ctx, M, C, C & ~sf)
        if branch_mode == "expand":
            preferred = EXPAND
        elif branch_mode == "shrink":
            preferred = "shrink"

        ubit = b.scratch(0)
        ubit.fill(0)
        bitops.set_bit(ubit, u)
        expand_frame: BitFrame = (M | ubit, C & ~ubit, E.copy(), u)
        shrink_frame: BitFrame = (
            M.copy(), C & ~ubit, (E | ubit) if track_e else E, None,
        )
        # LIFO: push the non-preferred branch first.
        if preferred == EXPAND:
            stack.append((shrink_frame, depth + 1))
            stack.append((expand_frame, depth + 1))
        else:
            stack.append((expand_frame, depth + 1))
            stack.append((shrink_frame, depth + 1))
    return best, best_size


# ----------------------------------------------------------------------
# Branch-level work sharing (fixed-depth subtree splitting)
# ----------------------------------------------------------------------

def split_frontier(
    ctx: ComponentContext,
    best_so_far: Optional[FrozenSet[int]],
    depth: int,
) -> Tuple[Optional[FrozenSet[int]], List[SubtreeFrame]]:
    """Expand the top of one component's branch tree to a fixed depth.

    Runs the normal engine over the frames *above* ``depth`` (stats,
    budget and leaf handling included) and parks every frame that
    reaches ``depth`` as a backend-neutral :data:`SubtreeFrame` instead
    of entering it.  Returns the best core seen during expansion plus
    the parked frames, in the exact order the serial engine would have
    popped them — solving them in that order with the same seeding
    reproduces the serial split schedule node for node, on any executor.

    Both backends emit the *same* frame list (the engines mirror each
    other decision-for-decision, and the id tuples are sorted), so a
    python-backend coordinator can feed csr-backend workers and vice
    versa.
    """
    cfg = ctx.config
    frames: List[SubtreeFrame] = []
    if use_bitset_engine(ctx):
        b = bitset_context(ctx)
        order = make_order_bits(cfg.order, cfg.lam, ctx.rng)
        best, best_size = _warm_seed(ctx, best_so_far)
        raw_bits: List[BitFrame] = []
        stack_b: List[Tuple[BitFrame, int]] = [
            ((b.zeros(), b.full.copy(), b.zeros(), None), 0)
        ]
        best, _ = _search_bits(
            ctx, b, order, stack_b, best, best_size,
            collect_depth=depth, frontier=raw_bits,
        )
        for M, C, E, expanded in raw_bits:
            frames.append((
                tuple(b.original_ids(M)),
                tuple(b.original_ids(C)),
                tuple(b.original_ids(E)),
                None if expanded is None else int(b.verts[expanded]),
            ))
    else:
        order = make_order(cfg.order, cfg.lam, ctx.rng)
        best, best_size = _warm_seed(ctx, best_so_far)
        raw_sets: List[Frame] = []
        stack_s: List[Tuple[Frame, int]] = [
            ((set(), set(ctx.vertices), set(), None), 0)
        ]
        best, _ = _search_sets(
            ctx, order, stack_s, best, best_size,
            collect_depth=depth, frontier=raw_sets,
        )
        for M, C, E, expanded in raw_sets:
            frames.append((
                tuple(sorted(M)), tuple(sorted(C)), tuple(sorted(E)),
                expanded,
            ))
    return best, frames


def solve_subtree(
    ctx: ComponentContext,
    frame: SubtreeFrame,
    best_so_far: Optional[FrozenSet[int]] = None,
) -> Optional[FrozenSet[int]]:
    """Search one parked subtree to completion (no warm start).

    The subtree's root node is entered exactly as the serial engine
    would have entered the parked frame — :func:`split_frontier`
    deliberately did not tick it — so coordinator + subtree stats sum
    to the full split-schedule traversal.
    """
    m_ids, c_ids, e_ids, expanded = frame
    if use_bitset_engine(ctx):
        b = bitset_context(ctx)
        order = make_order_bits(
            ctx.config.order, ctx.config.lam, ctx.rng
        )
        root_bits: BitFrame = (
            b.mask_of(m_ids), b.mask_of(c_ids), b.mask_of(e_ids),
            None if expanded is None else b.local[expanded],
        )
        best, _ = _search_bits(
            ctx, b, order, [(root_bits, 0)],
            best_so_far, len(best_so_far) if best_so_far else 0,
        )
        return best
    order = make_order(ctx.config.order, ctx.config.lam, ctx.rng)
    root: Frame = (set(m_ids), set(c_ids), set(e_ids), expanded)
    best, _ = _search_sets(
        ctx, order, [(root, 0)],
        best_so_far, len(best_so_far) if best_so_far else 0,
    )
    return best
