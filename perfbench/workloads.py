"""The three workloads: inputs, seeded request streams and timed loops.

Every workload runs on the serial plan from one process with at most
one client.  The graphs are the registry analogs at fixed scales and
generator seeds, so they do not depend on ``--seed``; the seed drives
the request stream only (grid order, and the edit/read stream of
``serve-edits``).  The program receives only the generated requests.

* ``enum-gowalla`` -- one-shot ``enumerate_maximal_krcores`` on the
  Gowalla analog at x2 over the Figure 13a grid (k in {5,6,7} x km in
  {15,20}).  The search engine does about 80% of the work.
* ``max-dblp`` -- one-shot ``find_maximum_krcore`` on the DBLP analog at
  x12 over the Figure 14 grid (k in {5,6} at the top-3 permille
  threshold).  The (k,k') bound and weighted-Jaccard preprocessing do
  most of the work.
* ``serve-edits`` -- the DBLP analog at x8 in a ``GraphStore``, served
  by an in-process ``KRCoreService`` to one closed-loop client.  Each
  round is one seeded single edit, then enumerate, maximum, statistics
  at k+1 and a repeated enumerate; every ``CYCLE_ROUNDS`` rounds the
  client asks for a flush.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import ExecutionPlan, enumerate_maximal_krcores, find_maximum_krcore
from repro import krcore_statistics
from repro.datasets.registry import default_predicate, load_dataset
from repro.graph.io import graph_fingerprint
from repro.serve.service import KRCoreService
from repro.store import GraphStore, codec

from checks import CoreValidator, core_problems, digest

SERIAL = ExecutionPlan(executor="serial")
DATASET_SEED = 7         # the registry's default generator seed
SETUP_REPEATS = 3        # set-ups per measured run, at least; setup_s is their median
SETUP_SECONDS = 1.5      # ... and more, up to SETUP_MAX_REPEATS, until this is spent
SETUP_MAX_REPEATS = 25
GRID_PASSES = 64         # grid passes generated per stream (far more than run)
SERVE_CYCLES = 100       # serve cycles generated per stream
CYCLE_ROUNDS = 20        # serve rounds per cycle, then a flush
SERVE_K = 8              # below 8, p90 sits where cached reads end (perfbench/README.md)
SERVE_PERMILLE = 3.0
EDIT_KINDS = ("add", "remove", "attribute")
PROBE_EVERY_S = 0.5      # the speed probe runs between requests at most this often
PROBE_REFERENCE_S = 0.010  # the probe's seconds on the reference box


def _now() -> float:
    return time.perf_counter()


def speed_probe() -> float:
    """Seconds a fixed pure-Python mix of sorts, set and dict work takes now."""
    gc.disable()
    try:
        start = _now()
        data = sorted((i * 2654435761) % 100003 for i in range(20000))
        sets = [frozenset(range(i % 17, i % 17 + 12)) for i in range(2000)]
        sum(len(a & b) for a, b in zip(sets, sets[1:]))
        table: Dict[int, int] = {}
        for v in data:
            table[v & 1023] = table.get(v & 1023, 0) + v
        return _now() - start
    finally:
        gc.enable()


class Speedometer:
    """The box's speed through a run, from a probe run between requests.

    A shared box slows by up to half for seconds to minutes at a time,
    so a run can fall wholly into a slow stretch.  :meth:`scale` turns
    measured seconds into reference seconds: the same work then reads
    the same in either state, while a change to the program, which the
    probe does not run, still shows.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float]] = []  # (when, probe seconds)

    def tick(self, force: bool = False) -> None:
        """Run the probe unless one ran in the last ``PROBE_EVERY_S``."""
        if force or not self.marks or _now() - self.marks[-1][0] >= PROBE_EVERY_S:
            seconds = speed_probe()
            self.marks.append((_now(), seconds))

    def scale(self, start: float, seconds: float) -> float:
        """Reference over measured speed for ``seconds`` from ``start``.

        Uses the probes from the last one before the interval to the
        first one after it.
        """
        times = [t for t, _ in self.marks]
        lo = max(0, bisect.bisect_right(times, start) - 1)
        hi = bisect.bisect_left(times, start + seconds) + 1
        return PROBE_REFERENCE_S / statistics.fmean(p for _, p in self.marks[lo:hi])


#: Probes for the whole run; every timed interval is bracketed by ticks.
SPEED = Speedometer()


class Sample:
    """One timed request: what was sent, how long it took, what came back.

    ``answer`` is the response as JSON text and ``stats`` its counters
    (see :meth:`Workload.compact`).
    """

    __slots__ = ("op", "params", "start", "latency", "answer", "stats", "error", "request")

    def __init__(self, op: str, params: Dict[str, Any], request: int):
        self.op, self.params, self.request = op, params, request
        self.start = self.latency = 0.0
        self.answer: Optional[str] = None
        self.stats: Dict[str, Any] = {}
        self.error: Optional[str] = None


# ----------------------------------------------------------------------
# Seeded edits
# ----------------------------------------------------------------------

def draw_edit(graph, rng: random.Random) -> Tuple[str, int, int]:
    """One single edit valid on ``graph``: add, remove or attribute copy.

    The kind is drawn uniformly and the vertices uniformly over the
    graph.  Additions close a triangle (a co-author of a co-author),
    removals drop an existing edge and attribute copies give a vertex the
    profile of one of its neighbours.  Returns ``(kind, u, v)``; for
    ``"attribute"``, ``v`` is the vertex whose attribute ``u`` receives.
    """
    kind = rng.choice(EDIT_KINDS)
    while True:
        u = rng.randrange(graph.vertex_count)
        nbrs = sorted(graph.neighbors(u))
        if not nbrs:
            continue
        w = rng.choice(nbrs)
        if kind == "remove":
            return kind, u, w
        if kind == "attribute":
            if graph.has_attribute(w):
                return kind, u, w
            continue
        far = sorted(graph.neighbors(w) - graph.neighbors(u) - {u})
        if far:
            return kind, u, rng.choice(far)


def apply_edit(graph, edit: Tuple[str, int, int]) -> Any:
    """Apply ``edit`` to ``graph``; returns what undoing it needs."""
    kind, u, v = edit
    if kind == "add":
        return graph.add_edge(u, v)
    if kind == "remove":
        return graph.remove_edge(u, v)
    before = graph.attribute(u) if graph.has_attribute(u) else None
    graph.set_attribute(u, graph.attribute(v))
    return before


def undo_edit(graph, edit: Tuple[str, int, int], token: Any) -> None:
    kind, u, v = edit
    if kind == "add" and token:
        graph.remove_edge(u, v)
    elif kind == "remove" and token:
        graph.add_edge(u, v)
    elif kind == "attribute" and token is not None:
        graph.set_attribute(u, token)


def edit_params(graph, edit: Tuple[str, int, int]) -> Dict[str, Any]:
    """The service's JSON edit request for ``edit`` (before applying it)."""
    kind, u, v = edit
    if kind == "add":
        return {"add_edges": [[u, v]]}
    if kind == "remove":
        return {"remove_edges": [[u, v]]}
    value = json.loads(codec.encode_attribute(graph.attribute(v)))
    return {"attributes": {str(u): value}}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """A workload's set-up, request stream, executor and checks."""

    name = ""
    dataset = ""
    scale = 1.0
    #: Whether sending a request twice does the same work twice (so a
    #: traced run can pair each request with an untraced copy).
    repeatable = False

    def setup(self, scratch: Path) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass

    def stream(self, state: Any, seed: int) -> List[List[Tuple[str, Dict[str, Any]]]]:
        """Blocks of requests; the timed loop runs whole blocks."""
        raise NotImplementedError

    def execute(self, state: Any, op: str, params: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def compact(self, response: Any) -> Tuple[str, Dict[str, Any]]:
        """``response`` as JSON text plus its counters.

        Answers are kept until the checks run; as live objects they would
        grow the heap the garbage collector walks during later requests,
        and peak memory would grow with run length.
        """
        return json.dumps(response), {}

    def check(self, state: Any, samples: Sequence[Sample]) -> List[str]:
        """Problems with the answers (one entry per wrong request)."""
        raise NotImplementedError

    def final_check(self, state: Any) -> Tuple[int, List[str]]:
        """Extra untimed cross-checks: ``(requests made, problems)``."""
        return 0, []

    def edit_latencies(
        self, state: Any, samples: Sequence[Sample], seed: int,
    ) -> Tuple[List[Tuple[float, float]], int, List[str]]:
        """Edit ``(start, seconds)``, plus requests made and problems found."""
        raise NotImplementedError

    def fingerprints(self, state: Any) -> Dict[str, str]:
        """``graph_fingerprint`` of the generated graph, for the stamp."""
        return {f"{self.dataset} x{self.scale:g}": graph_fingerprint(state["graph"])}

    def counters_before(self, state: Any) -> Any:
        """Token for :meth:`counters` taken before a measured phase."""
        return None

    def counters(self, state: Any, before: Any, samples: Sequence[Sample]) -> Dict[str, float]:
        """The program's own counters over one phase, as a flat dict.

        Keys are ``SearchStats`` fields, ``maintenance.<field>`` of
        ``maintenance_stats`` and ``serve.errors``.  The one-shot
        workloads sum the ``SearchStats`` each call returns.
        """
        total: Dict[str, float] = {}
        for s in samples:
            _add_numbers(total, s.stats)
        return total


class _OneShot(Workload):
    """Shared shape of the one-shot grid workloads."""

    repeatable = True
    grid: Tuple[Tuple[int, float], ...] = ()
    op = ""
    api: Callable  # the one-shot entry point the requests call

    def _predicates(self, graph) -> Dict[float, Any]:
        raise NotImplementedError

    def setup(self, scratch: Path) -> Any:
        graph = load_dataset(self.dataset, scale=self.scale, seed=DATASET_SEED)
        return {"graph": graph, "predicates": self._predicates(graph)}

    def stream(self, state, seed):
        rng = random.Random(f"{self.name}/{seed}")
        blocks = []
        for _ in range(GRID_PASSES):
            grid = list(self.grid)
            rng.shuffle(grid)
            blocks.append([(self.op, {"k": k, "x": x}) for k, x in grid])
        return blocks

    def execute(self, state, op, params):
        return self.api(
            state["graph"], params["k"], predicate=state["predicates"][params["x"]],
            plan=SERIAL, with_stats=True,
        )

    def compact(self, response):
        answer, stats = response
        if isinstance(answer, list):
            cores = sorted(sorted(core.vertices) for core in answer)
        else:
            cores = None if answer is None else sorted(answer.vertices)
        return json.dumps(cores), stats.to_dict()

    def _key(self, params) -> str:
        return f"{params['k']},{params['x']:g}"

    def edit_latencies(self, state, samples, seed):
        """Edit-to-answer latency of seeded edits on the caller's graph.

        A one-shot caller edits its own ``AttributedGraph`` and sees the
        edit in an answer only after a full one-shot query: each sample
        applies one seeded edit and re-answers the workload's cheapest
        grid point (``edit_probe``).  The answer is checked against the
        edited graph and the edit is undone.
        """
        rng = random.Random(f"{self.name}/edits/{seed}")
        graph = state["graph"]
        k, x = self.edit_probe
        out, problems = [], []
        for _ in range(self.edit_samples):
            edit = draw_edit(graph, rng)
            SPEED.tick(force=True)
            start = _now()
            token = apply_edit(graph, edit)
            answer, _stats = self.execute(state, self.op, {"k": k, "x": x})
            out.append((start, _now() - start))
            SPEED.tick(force=True)
            cores = answer if isinstance(answer, list) else [answer]
            for core in cores:
                bad = (
                    ["no core returned"] if core is None
                    else core_problems(graph, core.vertices, k, state["predicates"][x])
                )
                if bad:
                    problems.append(f"after edit {edit}: {bad[0]}")
                    break
            undo_edit(graph, edit, token)
        return out, self.edit_samples, problems


class EnumGowalla(_OneShot):
    name = "enum-gowalla"
    dataset, scale, op = "gowalla", 2.0, "enumerate"
    api = staticmethod(enumerate_maximal_krcores)
    edit_probe, edit_samples = (7, 15.0), 15
    grid = tuple((k, km) for k in (5, 6, 7) for km in (15.0, 20.0))

    def _predicates(self, graph):
        return {
            km: default_predicate(self.dataset, graph, km=km)
            for _, km in self.grid
        }

    def check(self, state, samples):
        expected = state["expected"]
        problems = []
        verdicts: Dict[str, Optional[str]] = {}  # digest -> problem or None
        for s in samples:
            if s.answer is None:
                continue
            key = self._key(s.params)
            cores = json.loads(s.answer)
            d = digest(cores)
            if d not in verdicts:
                verdicts[d] = None
                pred = state["predicates"][s.params["x"]]
                for core in cores:
                    bad = core_problems(state["graph"], core, s.params["k"], pred)
                    if bad:
                        verdicts[d] = f"{key}: core {core[:5]}...: {bad[0]}"
                        break
                if verdicts[d] is None and d != expected[key]["digest"]:
                    verdicts[d] = (
                        f"{key}: {len(cores)} cores, digest differs from the "
                        f"pinned {expected[key]['count']}-core answer"
                    )
            if verdicts[d] is not None:
                problems.append(verdicts[d])
        return problems


class MaxDblp(_OneShot):
    name = "max-dblp"
    dataset, scale, op = "dblp", 12.0, "maximum"
    api = staticmethod(find_maximum_krcore)
    edit_probe, edit_samples = (6, 3.0), 5
    grid = ((5, 3.0), (6, 3.0))

    def _predicates(self, graph):
        return {
            permille: default_predicate(self.dataset, graph, permille=permille)
            for permille in sorted({x for _, x in self.grid})
        }

    def check(self, state, samples):
        expected = state["expected"]
        problems = []
        for s in samples:
            if s.answer is None:
                continue
            key = self._key(s.params)
            members = json.loads(s.answer)
            if members is None:
                problems.append(f"{key}: no core returned")
                continue
            pred = state["predicates"][s.params["x"]]
            bad = core_problems(state["graph"], members, s.params["k"], pred)
            if bad:
                problems.append(f"{key}: {bad[0]}")
            elif len(members) != expected[key]["size"]:
                problems.append(
                    f"{key}: size {len(members)}, pinned {expected[key]['size']}"
                )
        return problems


class ServeEdits(Workload):
    name = "serve-edits"
    dataset, scale = "dblp", 8.0

    def setup(self, scratch: Path) -> Any:
        graph = load_dataset(self.dataset, scale=self.scale, seed=DATASET_SEED)
        pred = default_predicate(self.dataset, graph, permille=SERVE_PERMILLE)
        scratch.mkdir(parents=True, exist_ok=True)
        store = GraphStore(str(scratch / "store.sqlite"))
        store.save_graph("g", graph)
        service = KRCoreService(
            store, metric="weighted_jaccard", plan={"executor": "serial"}
        )
        state = {
            "graph": graph, "predicate": pred, "store": store,
            "service": service, "scratch": scratch,
        }
        state["warm"] = {
            op: service.handle("g", op, params)
            for op, params in self._reads(pred.r)
            if op != "repeat"
        }
        return state

    def teardown(self, state):
        state["service"].close()
        shutil.rmtree(state["scratch"], ignore_errors=True)

    @staticmethod
    def _reads(r: float) -> List[Tuple[str, Dict[str, Any]]]:
        return [
            ("enumerate", {"k": SERVE_K, "r": r}),
            ("maximum", {"k": SERVE_K, "r": r}),
            ("statistics", {"k": SERVE_K + 1, "r": r}),
            ("enumerate", {"k": SERVE_K, "r": r}),
        ]

    def stream(self, state, seed):
        rng = random.Random(f"{self.name}/{seed}")
        mirror = state["graph"].copy()
        reads = self._reads(state["predicate"].r)
        blocks = []
        for _ in range(SERVE_CYCLES):
            block = []
            for _ in range(CYCLE_ROUNDS):
                edit = draw_edit(mirror, rng)
                block.append(("edit", edit_params(mirror, edit)))
                apply_edit(mirror, edit)
                block += [(op, dict(params)) for op, params in reads]
            block.append(("flush", {}))
            blocks.append(block)
        return blocks

    def execute(self, state, op, params):
        return state["service"].handle("g", op, params)

    def check(self, state, samples):
        """Replay the edits on a mirror and check every answer against it."""
        mirror = state["graph"].copy()
        pred = state["predicate"]
        validator = CoreValidator(mirror, SERVE_K, pred)
        problems = []
        round_enum: Optional[str] = None
        round_best = 0
        for s in samples:
            if s.answer is None:
                continue
            response = json.loads(s.answer)
            if s.op == "edit":
                touched = _apply_request_edit(mirror, s.params)
                validator.touched(touched)
                round_enum = None
                continue
            if s.op == "enumerate":
                cores = response["cores"]
                bad = next(
                    (p for c in cores for p in validator.problems(c)), None
                )
                d = digest(cores)
                if bad:
                    problems.append(f"enumerate: {bad}")
                elif round_enum is not None and d != round_enum:
                    problems.append("repeated enumerate differs in one round")
                round_enum = d
                round_best = max((len(c) for c in cores), default=0)
            elif s.op == "maximum":
                core = response["core"]
                if response["status"] != "ok" or core is None:
                    problems.append(f"maximum: status {response['status']}")
                elif validator.problems(core):
                    problems.append(f"maximum: {validator.problems(core)[0]}")
                elif len(core) != round_best:
                    problems.append(
                        f"maximum size {len(core)} != largest enumerated "
                        f"core {round_best}"
                    )
        state["mirror"] = mirror
        return problems

    def final_check(self, state):
        """Warm-up answers against the pinned ones, and the service's
        final answers against a fresh one-shot run on its final graph."""
        service, store, pred = state["service"], state["store"], state["predicate"]
        stored = store.load_graph("g")
        problems = warm_problems(state["warm"], state["expected"])
        fp = graph_fingerprint(stored)
        if fp != store.fingerprint("g"):
            problems.append("stored graph does not match its fingerprint")
        if "mirror" in state and graph_fingerprint(state["mirror"]) != fp:
            problems.append("stored graph differs from the replayed edits")
        got = {
            op: service.handle("g", op, params)
            for op, params in self._reads(pred.r)[:3]
        }
        cores = enumerate_maximal_krcores(stored, SERVE_K, predicate=pred, plan=SERIAL)
        if digest(got["enumerate"]["cores"]) != digest(c.vertices for c in cores):
            problems.append("final enumerate differs from a fresh one-shot run")
        best = find_maximum_krcore(stored, SERVE_K, predicate=pred, plan=SERIAL)
        if got["maximum"]["size"] != (best.size if best else 0):
            problems.append("final maximum differs from a fresh one-shot run")
        summary = krcore_statistics(stored, SERVE_K + 1, predicate=pred, plan=SERIAL)
        if any(got["statistics"].get(key) != value for key, value in summary.items()):
            problems.append("final statistics differ from a fresh one-shot run")
        return len(state["warm"]) + len(got), problems

    def edit_latencies(self, state, samples, seed):
        edits = [(s.start, s.latency) for s in samples if s.op == "edit" and s.error is None]
        return edits, 0, []

    def counters_before(self, state):
        return self._snapshot(state)

    def counters(self, state, before, samples):
        after = self._snapshot(state)
        return {key: after[key] - before.get(key, 0) for key in after}

    @staticmethod
    def _snapshot(state) -> Dict[str, float]:
        """Session, maintenance and service counters (an untimed request)."""
        stats = state["service"].handle("g", "stats", {})
        flat: Dict[str, float] = {}
        _add_numbers(flat, stats["total_stats"])
        _add_numbers(flat, stats["cache"]["maintenance"], prefix="maintenance.")
        flat["serve.errors"] = stats["counters"]["errors"]
        return flat


def warm_answers(warm: Dict[str, Any]) -> Dict[str, Any]:
    """The pinned form of the warm-up answers on the unedited graph."""
    stats = warm["statistics"]
    return {
        "enumerate": {
            "count": warm["enumerate"]["count"],
            "digest": digest(warm["enumerate"]["cores"]),
        },
        "maximum": {"size": warm["maximum"]["size"]},
        "statistics": {
            key: stats[key] for key in sorted(stats) if key not in ("k", "r")
        },
    }


def warm_problems(warm: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    got = warm_answers(warm)
    return [
        f"warm-up {op} differs from the pinned answer"
        for op in sorted(expected) if got[op] != expected[op]
    ]


def _add_numbers(into: Dict[str, float], values: Dict[str, Any], prefix: str = "") -> None:
    for key, value in values.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            into[prefix + key] = into.get(prefix + key, 0) + value


def _apply_request_edit(graph, params: Dict[str, Any]) -> List[int]:
    """Apply one service edit request to ``graph``; returns touched vertices."""
    touched = []
    for u, v in params.get("add_edges", []):
        graph.add_edge(u, v)
        touched += [u, v]
    for u, v in params.get("remove_edges", []):
        graph.remove_edge(u, v)
        touched += [u, v]
    for u, value in (params.get("attributes") or {}).items():
        graph.set_attribute(int(u), codec.decode_attribute(json.dumps(value)))
        touched.append(int(u))
    return touched


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w for w in (EnumGowalla, MaxDblp, ServeEdits)
}


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------

def run_blocks(
    workload: Workload,
    state: Any,
    blocks: Sequence[Sequence[Tuple[str, Dict[str, Any]]]],
    start_block: int,
    budget_s: float,
    next_request: int,
    tracer=None,
) -> Tuple[List[Sample], int, List[Tuple[int, float]]]:
    """Run whole blocks until the budget is (about to be) spent.

    Stops before a block that would end more than half a block past the
    budget, so a run lasts close to ``budget_s`` whatever the block
    length; at least one block always runs.  The speed probe runs between
    requests, outside their latencies.  Returns the samples, the next
    block index and, per block, ``(requests completed, start, seconds)``
    where seconds sum the block's request latencies.
    """
    samples: List[Sample] = []
    done: List[Tuple[int, float, float]] = []
    begin = _now()
    last_block = 0.0
    pos = start_block
    while pos < len(blocks):
        elapsed = _now() - begin
        if pos > start_block and elapsed + last_block / 2 >= budget_s:
            break
        block_start = _now()
        block: List[Tuple[Sample, Any]] = []
        for op, params in blocks[pos]:
            SPEED.tick()
            s = Sample(op, params, next_request)
            next_request += 1
            response = None
            s.start = _now()
            try:
                if tracer is None:
                    response = workload.execute(state, op, params)
                else:
                    with tracer.root(f"request.{op}", s.request):
                        response = workload.execute(state, op, params)
            except Exception as exc:  # a failed request is counted, not fatal
                s.error = f"{type(exc).__name__}: {exc}"
            s.latency = _now() - s.start
            block.append((s, response))
        SPEED.tick(force=True)
        last_block = sum(s.latency for s, _ in block)
        # Serialised after the block's requests, so ops_per_s and the
        # latencies measure the same work.
        for s, response in block:
            if s.error is None:
                s.answer, s.stats = workload.compact(response)
            samples.append(s)
        ok = sum(1 for s, _ in block if s.error is None)
        done.append((ok, block_start, last_block))
        pos += 1
    return samples, pos, done


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
