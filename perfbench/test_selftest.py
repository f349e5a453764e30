"""Self-tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench

They check the properties the benchmark's numbers rest on: the same seed
gives a byte-identical request stream, the answer checks reject corrupt
cores, and self times are exact on synthetic nested spans.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from repro import KRCore, SearchStats, SimilarityPredicate, from_edge_list  # noqa: E402

from checks import CoreValidator, core_problems, digest  # noqa: E402
from tracing import Tracer, layer_totals, self_times  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_REFERENCE_S, EnumGowalla, MaxDblp, Sample, ServeEdits, Speedometer, percentile,
)


def stream_bytes(wl, state, seed: int) -> bytes:
    return json.dumps(wl.stream(state, seed), sort_keys=True).encode()


# ----------------------------------------------------------------------
# Seeded generation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cls", [EnumGowalla, MaxDblp])
def test_grid_stream_is_a_pure_function_of_the_seed(cls):
    assert stream_bytes(cls(), None, 3) == stream_bytes(cls(), None, 3)
    assert stream_bytes(cls(), None, 3) != stream_bytes(cls(), None, 4)


def test_grid_stream_covers_the_whole_grid_every_pass():
    wl = EnumGowalla()
    for block in wl.stream(None, 5):
        assert sorted((p["k"], p["x"]) for _, p in block) == sorted(wl.grid)


def test_serve_stream_is_a_pure_function_of_the_seed():
    from repro.datasets.registry import default_predicate, load_dataset
    from repro.graph.io import graph_fingerprint

    wl = ServeEdits()
    graph = load_dataset(wl.dataset, scale=wl.scale, seed=7)
    pred = default_predicate(wl.dataset, graph, permille=3.0)
    state = {"graph": graph, "predicate": pred}
    before = graph_fingerprint(graph)
    first = stream_bytes(wl, state, 11)
    assert first == stream_bytes(wl, state, 11)
    assert first != stream_bytes(wl, state, 12)
    assert graph_fingerprint(graph) == before  # generation edits a copy


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------

def _clique_graph():
    """K5 on 0..4 with nearby points, vertex 5 adjacent to all but far."""
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    points = {u: (float(u), 0.0) for u in range(5)}
    points[5] = (500.0, 0.0)
    return from_edge_list(edges, attributes=points), SimilarityPredicate("euclidean", 10.0)


def test_validator_accepts_a_true_core():
    g, pred = _clique_graph()
    assert core_problems(g, range(5), 3, pred) == []


def test_validator_rejects_a_dissimilar_vertex():
    g, pred = _clique_graph()
    problems = core_problems(g, range(6), 3, pred)
    assert any("not similar" in p for p in problems)


def test_validator_rejects_a_vertex_dropped_below_k():
    g, pred = _clique_graph()
    problems = core_problems(g, range(4), 4, pred)  # K4 has degree 3 < 4
    assert any("internal degree" in p for p in problems)
    assert any("fewer than k+1" in p for p in problems)


def test_validator_rejects_a_disconnected_core():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = from_edge_list(edges, attributes={u: (0.0, 0.0) for u in range(6)})
    problems = core_problems(g, range(6), 2, SimilarityPredicate("euclidean", 1.0))
    assert problems == ["not connected"]


def test_cached_verdicts_are_forgotten_when_an_edit_touches_the_core():
    g, pred = _clique_graph()
    validator = CoreValidator(g, 3, pred)
    assert validator.problems([0, 1, 2, 3, 4]) == []
    g.set_attribute(2, (900.0, 0.0))
    validator.touched([2])
    assert validator.problems([0, 1, 2, 3, 4])


def _one_shot_state(cores):
    g, pred = _clique_graph()
    key = "3,10"
    expected = {key: {"count": len(cores), "digest": digest(cores)}}
    return {"graph": g, "predicates": {10.0: pred}, "expected": expected}


def _answer(cores):
    s = Sample("enumerate", {"k": 3, "x": 10.0}, 0)
    response = ([KRCore(frozenset(c), 3, 10.0) for c in cores], SearchStats())
    s.answer, s.stats = EnumGowalla().compact(response)
    return s


def test_enumerate_check_fails_on_an_injected_corrupt_core():
    wl = EnumGowalla()
    state = _one_shot_state([[0, 1, 2, 3, 4]])
    assert wl.check(state, [_answer([[0, 1, 2, 3, 4]])]) == []
    assert wl.check(state, [_answer([[0, 1, 2, 3, 4, 5]])])  # dissimilar added
    assert wl.check(state, [_answer([[0, 1, 2]])])           # dropped below k


def test_enumerate_check_fails_on_a_valid_but_different_answer():
    wl = EnumGowalla()
    state = _one_shot_state([[0, 1, 2, 3, 4]])
    state["expected"]["3,10"]["digest"] = digest([[9, 9]])
    assert wl.check(state, [_answer([[0, 1, 2, 3, 4]])])


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_self_time_arithmetic_is_exact_on_nested_spans():
    spans = [
        ("root", 0, 100, -1, 1),
        ("a", 10, 40, 0, 1),
        ("a.inner", 20, 30, 1, 1),
        ("b", 50, 60, 0, 1),
        ("c", 55, 70, 0, 1),      # overlaps b: the union is counted once
        ("d", 90, 120, 0, 1),     # runs past the parent: clipped at 100
    ]
    assert self_times(spans) == [100 - 30 - 20 - 10, 20, 10, 10, 15, 30]
    totals = layer_totals(spans)
    assert totals["root"]["calls"] == 1
    assert totals["root"]["self_s"] == pytest.approx(40e-9)


def test_tracer_records_nesting_and_restores_every_attribute():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    mod.kernel = lambda: None
    originals = (mod.inner, mod.outer, mod.kernel)
    tracer = Tracer()
    tracer.patch(mod, "inner", "in")
    tracer.patch(mod, "outer", "out")
    tracer.count(mod, "kernel", "kernel.calls")
    with tracer.root("request.x", 7):
        assert mod.outer(1) == 4
        mod.kernel()
    tracer.restore()
    assert (mod.inner, mod.outer, mod.kernel) == originals
    spans = tracer.finished_spans()
    names = [s[0] for s in spans]
    assert names == ["request.x", "out", "in"]
    assert [s[3] for s in spans] == [-1, 0, 1]
    assert {s[4] for s in spans} == {7}
    assert tracer.counts["kernel.calls"] == 1


def test_speed_scale_averages_the_probes_around_an_interval():
    speed = Speedometer()
    speed.marks = [(0.0, 0.01), (1.0, 0.02), (2.0, 0.02), (3.0, 0.04)]
    assert speed.scale(1.5, 0.2) == pytest.approx(PROBE_REFERENCE_S / 0.02)
    assert speed.scale(0.5, 2.0) == pytest.approx(PROBE_REFERENCE_S / 0.0225)
    assert speed.scale(3.5, 1.0) == pytest.approx(PROBE_REFERENCE_S / 0.04)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([3.0], 90) == 3.0
