"""Shared-memory executor, branch-level work sharing, ExecutionPlan.

The PR-8 surface: ``executor="shm"`` must be invisible (results and
merged PARITY_COUNTERS byte-identical to serial across the backend x
engine x order matrix), branch splitting must be a pure function of
``split_depth`` (identical inline / process / shm), segments must never
outlive their run (worker death, KeyboardInterrupt, shutdown sweep),
and ``plan=`` must be the one spelling of an :class:`ExecutionPlan`
across the API, the session, the CLI and the service (the retired loose
``executor=``/``workers=``/``shm=``/``split_depth=`` spellings and the
``shm`` boolean are refused).
"""

from __future__ import annotations

import re

import pytest

from conftest import as_sorted_sets
from repro.core.config import (
    MAX_SPLIT_DEPTH,
    ExecutionPlan,
    PLAN_FIELDS,
    SearchConfig,
    adv_enum_config,
    adv_max_config,
    resolve_execution_plan,
)
from repro.core.context import Budget, bitset_context
from repro.core.executor import (
    INJECT_ENV,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    shutdown_pools,
    task_from_context,
)
from repro.core.session import KRCoreSession
from repro.core.shm import (
    SharedBound,
    active_segments,
    create_segment,
    pack_component,
    publish_bound,
    release_segment,
    sweep_segments,
    unpack_component,
)
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.exceptions import (
    ComponentExecutionError,
    InvalidParameterError,
    ServiceError,
)
from test_core_executor import (
    FAMILY_PARAMS,
    assert_stats_parity,
    enum_run,
    family_instance,
    max_run,
    multi_component_graph,
)

#: The shm pool plan the parity tests replay serial runs over.
SHM2 = {"executor": "shm", "workers": 2}


# ----------------------------------------------------------------------
# ExecutionPlan: construction, validation, resolution
# ----------------------------------------------------------------------

class TestExecutionPlan:
    def test_defaults(self):
        plan = ExecutionPlan()
        assert plan.executor == "serial"
        assert plan.workers is None
        assert plan.split_depth == 0

    def test_executor_and_shm_stay_in_sync(self):
        # ``executor="shm"`` is the one spelling of the shm transport:
        # there is no separate ``shm`` boolean left to drift out of sync.
        assert "shm" not in PLAN_FIELDS
        assert not hasattr(ExecutionPlan(executor="shm"), "shm")
        with pytest.raises(TypeError):
            ExecutionPlan(shm=True)
        with pytest.raises(TypeError):
            SearchConfig(shm=True)

    def test_resolve_executor_alone_rederives_shm(self):
        # A plan carries the executor alone; moving off shm leaves no
        # transport residue behind.
        out = resolve_execution_plan({"executor": "process", "workers": 2})
        assert out == ExecutionPlan(executor="process", workers=2)
        cfg = SearchConfig(executor="shm", workers=2).evolve(
            plan={"executor": "process", "workers": 2}
        )
        assert cfg.plan == out
        assert make_executor(cfg).flavour == "process"

    def test_resolve_shm_false_demotes_to_process(self):
        # The loose ``shm=`` scalar is gone, as a keyword and as a field.
        with pytest.raises(TypeError):
            resolve_execution_plan(
                plan=ExecutionPlan(executor="shm", workers=2), shm=False
            )
        with pytest.raises(InvalidParameterError, match="shm"):
            resolve_execution_plan({"shm": False, "workers": 2})

    def test_resolve_shm_true_promotes(self):
        # Promotion to shm is spelled through the executor field.
        assert resolve_execution_plan({"executor": "shm"}).executor == "shm"
        with pytest.raises(InvalidParameterError, match="shm"):
            resolve_execution_plan({"shm": True})

    def test_evolve_shm_false_keeps_pool(self):
        # Demoting shm to a plain pool keeps the pool size; the retired
        # ``shm=`` spelling is refused by evolve, loose or in a plan.
        cfg = SearchConfig(executor="shm", workers=2)
        out = cfg.evolve(executor="process")
        assert out.executor == "process" and out.workers == 2
        with pytest.raises(TypeError):
            cfg.evolve(shm=False)
        with pytest.raises(InvalidParameterError, match="shm"):
            SearchConfig().evolve(plan={"shm": True, "workers": 2})

    @pytest.mark.parametrize("bad", (
        dict(executor="thread"),
        dict(workers=0),
        dict(workers=-1),
        dict(split_depth=-1),
        dict(split_depth=MAX_SPLIT_DEPTH + 1),
        dict(split_depth=1.5),
        dict(split_depth=True),
    ))
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises(InvalidParameterError):
            ExecutionPlan(**bad)

    def test_resolve_nothing_requested(self):
        assert resolve_execution_plan(None) is None

    def test_resolve_plan_and_scalars_conflict(self):
        # The loose scalars are gone: a plan is the only argument.
        with pytest.raises(TypeError):
            resolve_execution_plan(plan=ExecutionPlan(), workers=2)
        with pytest.raises(TypeError):
            resolve_execution_plan(plan={"executor": "shm"}, split_depth=1)

    def test_resolve_accepts_field_dict(self):
        plan = resolve_execution_plan({"executor": "shm", "workers": 3})
        assert plan == ExecutionPlan(executor="shm", workers=3)

    def test_resolve_rejects_non_plan(self):
        with pytest.raises(InvalidParameterError):
            resolve_execution_plan("shm")
        with pytest.raises(InvalidParameterError, match="bogus"):
            resolve_execution_plan({"bogus": 1})

    def test_config_plan_property_roundtrip(self):
        cfg = SearchConfig(executor="shm", workers=2, split_depth=3)
        plan = cfg.plan
        assert plan == ExecutionPlan(executor="shm", workers=2, split_depth=3)
        assert SearchConfig().evolve(plan=plan).plan == plan

    def test_evolve_executor_alone_drops_shm(self):
        cfg = SearchConfig(executor="shm", workers=2)
        serial = cfg.evolve(executor="serial")
        assert serial.executor == "serial" and serial.workers == 2

    def test_make_executor_shm_flavour(self):
        ex = make_executor(SearchConfig(executor="shm", workers=3))
        assert isinstance(ex, ParallelExecutor)
        assert ex.flavour == "shm" and ex.workers == 3
        assert isinstance(
            make_executor(SearchConfig(executor="shm", workers=1)),
            SerialExecutor,
        )


# ----------------------------------------------------------------------
# Parity: backend x engine x order matrix, serial vs shm
# ----------------------------------------------------------------------

class TestShmParity:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("engine", ("engine", "clique"))
    def test_enumeration_matrix(self, family, backend, engine):
        inst = family_instance(family)
        algorithm = "advanced" if engine == "engine" else engine
        serial, st_s = enum_run(
            inst.graph, inst.k, inst.predicate(), None,
            algorithm=algorithm, backend=backend,
        )
        par, st_p = enum_run(
            inst.graph, inst.k, inst.predicate(), None,
            algorithm=algorithm, backend=backend, plan=SHM2,
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, f"shm {family}/{backend}/{engine}")
        assert active_segments() == []

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("order", ("degree", "weighted-delta", "random"))
    def test_maximum_matrix(self, family, backend, order):
        inst = family_instance(family, maximum=True)
        cfg = adv_max_config(backend=backend, order=order, seed=5)
        serial, st_s = max_run(inst.graph, inst.k, inst.predicate(), cfg)
        par, st_p = max_run(
            inst.graph, inst.k, inst.predicate(), cfg, plan=SHM2
        )
        assert (serial is None) == (par is None)
        if serial is not None:
            assert set(serial.vertices) == set(par.vertices)
        assert_stats_parity(st_s, st_p, f"shm {family}/{backend}/{order}")
        assert active_segments() == []

    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_multi_component_parity(self, backend):
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config(backend=backend)
        serial, st_s = enum_run(g, k, pred, cfg)
        par, st_p = enum_run(
            g, k, pred, cfg, plan={"executor": "shm", "workers": 3}
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, "shm multi-component")
        assert st_p.components > 1

    def test_workers_one_still_uses_segment_transport(self):
        # The degenerate shm pool packs and maps segments in-process, so
        # the transport path is exercised on single-core machines too.
        inst = family_instance("borderline")
        cfg = adv_enum_config()
        serial, st_s = enum_run(inst.graph, inst.k, inst.predicate(), cfg)
        degen, st_d = enum_run(
            inst.graph, inst.k, inst.predicate(), cfg,
            plan={"executor": "shm", "workers": 1},
        )
        assert as_sorted_sets(serial) == as_sorted_sets(degen)
        assert_stats_parity(st_s, st_d, "shm workers=1")
        assert active_segments() == []


# ----------------------------------------------------------------------
# Branch-level work sharing
# ----------------------------------------------------------------------

class TestBranchSplit:
    def test_frontier_is_backend_independent(self):
        inst = family_instance("onion", maximum=True)
        from repro.core.maximum import split_frontier

        frames_by_backend = {}
        for backend in ("python", "csr"):
            ctxs = prepare_components(
                inst.graph, inst.k, inst.predicate(),
                adv_max_config(backend=backend),
                SearchStats(), Budget(None, None),
            )
            assert len(ctxs) == 1
            _, frames = split_frontier(ctxs[0], None, 2)
            frames_by_backend[backend] = frames
        assert frames_by_backend["python"] == frames_by_backend["csr"]
        assert frames_by_backend["csr"]  # non-trivial fixture

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("depth", (1, 2))
    def test_split_parity_inline_process_shm(self, family, depth):
        # The split schedule is a pure function of split_depth: the
        # inline (executor=None), process-pool and shm-pool paths must
        # agree on the result AND every parity counter, including the
        # advisory shared_bound high-water mark.
        inst = family_instance(family, maximum=True)
        runs = {
            "inline": {"split_depth": depth},
            "process": {"executor": "process", "workers": 2,
                        "split_depth": depth},
            "shm": {**SHM2, "split_depth": depth},
        }
        results = {
            label: max_run(
                inst.graph, inst.k, inst.predicate(), adv_max_config(),
                plan=plan,
            )
            for label, plan in runs.items()
        }
        ref, st_ref = results["inline"]
        for label in ("process", "shm"):
            got, st = results[label]
            assert (ref is None) == (got is None)
            if ref is not None:
                assert set(got.vertices) == set(ref.vertices)
            assert_stats_parity(st_ref, st, f"split {family}/d{depth}/{label}")
            assert st.shared_bound == st_ref.shared_bound
        if ref is not None:
            # 0 when the tree never reached the split depth (no frames
            # parked, nothing shared); the exact best size otherwise.
            assert st_ref.shared_bound in (0, len(ref.vertices))
        assert active_segments() == []

    def test_split_finds_the_same_maximum_as_unsplit(self):
        # Splitting reshapes the node schedule (counts may differ) but
        # never the answer.
        inst = family_instance("onion", maximum=True)
        flat, _ = max_run(
            inst.graph, inst.k, inst.predicate(), adv_max_config()
        )
        split, _ = max_run(
            inst.graph, inst.k, inst.predicate(), adv_max_config(),
            plan={"split_depth": 3},
        )
        assert len(split.vertices) == len(flat.vertices)

    def test_split_depth_is_inert_for_enumeration(self):
        inst = family_instance("borderline")
        cfg = adv_enum_config()
        serial, st_s = enum_run(inst.graph, inst.k, inst.predicate(), cfg)
        deep, st_d = enum_run(
            inst.graph, inst.k, inst.predicate(), cfg,
            plan={"split_depth": 4},
        )
        assert as_sorted_sets(serial) == as_sorted_sets(deep)
        assert_stats_parity(st_s, st_d, "enumeration split_depth")


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------

class TestSegmentLifecycle:
    def test_pack_unpack_roundtrip(self):
        inst = family_instance("onion")
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(), adv_enum_config(),
            SearchStats(), Budget(None, None),
        )
        ctx = ctxs[0]
        payload = pack_component(ctx.vertices, ctx.adj, ctx.index)
        try:
            vertices, adj, index, bitset = unpack_component(payload)
            assert vertices == ctx.vertices
            assert adj == ctx.adj
            assert index.rows() == ctx.index.rows()
            assert bitset is None  # no packed matrices shipped
        finally:
            release_segment(payload.segment)
        assert active_segments() == []

    def test_pack_unpack_carries_bitset_matrices(self):
        inst = family_instance("onion")
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(), adv_enum_config(),
            SearchStats(), Budget(None, None),
        )
        ctx = ctxs[0]
        packed = bitset_context(ctx)
        payload = pack_component(
            ctx.vertices, ctx.adj, ctx.index, bitset=packed
        )
        try:
            _, _, _, bitset = unpack_component(payload)
            assert bitset is not None
            assert (bitset.verts == packed.verts).all()
            assert (bitset.nbr == packed.nbr).all()
            assert (bitset.dis == packed.dis).all()
        finally:
            release_segment(payload.segment)

    def test_release_is_idempotent_and_sweep_counts(self):
        seg = create_segment(128)
        name = seg.name
        assert name in active_segments()
        release_segment(name)
        release_segment(name)  # second call is a no-op
        release_segment(None)
        assert name not in active_segments()
        create_segment(64)
        create_segment(64)
        assert sweep_segments() == 2
        assert active_segments() == []

    def test_shutdown_pools_sweeps_leaked_segments(self):
        create_segment(256)
        shutdown_pools()
        assert active_segments() == []

    def test_worker_death_releases_segments_and_pool_recovers(self, monkeypatch):
        # inject="exit" makes the worker os._exit mid-task: the pool
        # breaks, the coordinator raises the typed error, every segment
        # is unlinked on the way out, and the next run (fresh pool)
        # succeeds.
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config()
        monkeypatch.setenv(INJECT_ENV, "exit")
        with pytest.raises(ComponentExecutionError) as err:
            enum_run(g, k, pred, cfg, plan=SHM2)
        assert err.value.error_type == "BrokenProcessPool"
        assert active_segments() == []
        monkeypatch.delenv(INJECT_ENV)
        serial, _ = enum_run(g, k, pred, cfg)
        par, _ = enum_run(g, k, pred, cfg, plan=SHM2)
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert active_segments() == []

    def test_keyboard_interrupt_releases_segments(self, monkeypatch):
        # A ^C lands in the coordinator's future.result(): the executor
        # must still unlink every task-private segment on the way out.
        import repro.core.executor as executor_mod

        inst = family_instance("borderline")
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(),
            adv_enum_config(executor="shm"),
            SearchStats(), Budget(None, None),
        )
        tasks = [
            task_from_context(i, ctx, "enumerate")
            for i, ctx in enumerate(ctxs)
        ]
        assert active_segments()  # payloads are live in /dev/shm

        class _Future:
            def result(self):
                raise KeyboardInterrupt()

        class _Pool:
            def submit(self, fn, task):
                return _Future()

        monkeypatch.setattr(
            executor_mod, "_get_pool", lambda w, f="process": _Pool()
        )
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(5, flavour="shm").run(tasks)
        assert active_segments() == []

    def test_shared_bound_is_monotone(self):
        bound = SharedBound.create(3)
        try:
            assert bound.peek() == 3
            assert bound.publish(7) == 7
            assert bound.publish(5) == 7  # never regresses
            peer = SharedBound.attach(bound.name)
            assert peer.peek() == 7
            peer.publish(9)
            peer.close()
            assert bound.peek() == 9
        finally:
            bound.release()
        assert active_segments() == []

    def test_publish_to_missing_segment_is_tolerated(self):
        bound = SharedBound.create(0)
        name = bound.name
        bound.release()
        publish_bound(name, 42)  # straggler after coordinator teardown
        publish_bound(None, 42)


# ----------------------------------------------------------------------
# Retired aliases: one plan, one spelling
# ----------------------------------------------------------------------

class TestDeprecatedAliases:
    def test_api_plan_object_equals_plan_dict(self):
        inst = family_instance("onion", maximum=True)
        kwargs = dict(predicate=inst.predicate(), with_stats=True)
        via_plan, st_plan = find_maximum_krcore(
            inst.graph, inst.k,
            plan=ExecutionPlan(executor="shm", workers=2, split_depth=1),
            **kwargs,
        )
        via_dict, st_dict = find_maximum_krcore(
            inst.graph, inst.k,
            plan={"executor": "shm", "workers": 2, "split_depth": 1},
            **kwargs,
        )
        assert via_plan.vertices == via_dict.vertices
        assert_stats_parity(st_plan, st_dict, "plan vs dict")
        assert st_plan.shared_bound == st_dict.shared_bound

    def test_api_plan_plus_scalars_raises(self):
        # The loose scalars are retired: alone or beside a plan, the
        # one-shot API refuses them.
        inst = family_instance("borderline")
        for loose in ({"workers": 2}, {"executor": "shm"}, {"shm": True},
                      {"split_depth": 1}):
            with pytest.raises(TypeError):
                enumerate_maximal_krcores(
                    inst.graph, inst.k, predicate=inst.predicate(),
                    plan={"executor": "shm"}, **loose,
                )
            with pytest.raises(TypeError):
                KRCoreSession(inst.graph).enumerate(
                    inst.k, predicate=inst.predicate(), **loose
                )

    def test_malformed_plan_is_a_parameter_error(self):
        inst = family_instance("borderline")
        for plan in ({"bogus": 1}, {"shm": True}, "shm"):
            with pytest.raises(InvalidParameterError):
                enumerate_maximal_krcores(
                    inst.graph, inst.k, predicate=inst.predicate(),
                    plan=plan,
                )

    def test_session_plan_kwarg_and_cache_sharing(self):
        # The fingerprint strips the executor knobs: a serial query and
        # an shm query share cache entries in either direction.
        g, k, pred = multi_component_graph()
        session = KRCoreSession(g)
        a, st_a = session.enumerate(
            k, predicate=pred, plan=SHM2, with_stats=True,
        )
        assert st_a.cache_misses == st_a.components
        b, st_b = session.enumerate(k, predicate=pred, with_stats=True)
        assert as_sorted_sets(a) == as_sorted_sets(b)
        assert st_b.cache_misses == 0
        assert st_b.cache_hits == st_b.components

    def test_session_sweep_accepts_plan(self):
        g, k, pred = multi_component_graph()
        rows_serial = KRCoreSession(g).sweep([k], [pred.r], predicate=pred)
        rows_shm = KRCoreSession(g).sweep(
            [k], [pred.r], predicate=pred, plan=SHM2,
        )
        assert rows_shm == rows_serial


# ----------------------------------------------------------------------
# Service request knobs
# ----------------------------------------------------------------------

class TestServeExecutionKnobs:
    @pytest.fixture
    def stored(self, tmp_path):
        from repro.store import GraphStore

        inst = family_instance("onion", maximum=True)
        db = str(tmp_path / "exec.db")
        with GraphStore(db) as store:
            store.save_graph("onion", inst.graph)
        return db, inst

    def _service(self, db, **kwargs):
        from repro.serve import KRCoreService
        from repro.store import GraphStore

        return KRCoreService(GraphStore(db), **kwargs)

    def test_plan_default_object_equals_dict(self, stored):
        db, inst = stored
        params = {"k": inst.k, "r": inst.predicate().r}
        via_dict = self._service(db, plan=SHM2)
        via_plan = self._service(db, plan=ExecutionPlan(**SHM2))
        plain = self._service(db)
        try:
            a = via_dict.handle("onion", "maximum", params)
            b = via_plan.handle("onion", "maximum", params)
            c = plain.handle("onion", "maximum", params)
            assert a["core"] == b["core"] == c["core"]
        finally:
            for svc in (via_dict, via_plan, plain):
                svc.close()
        with pytest.raises(TypeError):
            self._service(db, executor="shm", workers=2)
        with pytest.raises(InvalidParameterError):
            self._service(db, plan={"shm": True})

    def test_request_plan_overrides_service_defaults(self, stored):
        db, inst = stored
        r = inst.predicate().r
        svc = self._service(db, plan=SHM2)
        try:
            base = svc.handle("onion", "maximum", {"k": inst.k, "r": r})
            override = svc.handle("onion", "maximum", {
                "k": inst.k, "r": r,
                "plan": {"executor": "serial"},
            })
            assert override["core"] == base["core"]
        finally:
            svc.close()

    def test_scalar_knobs_and_string_bools(self, stored):
        # The retired loose request knobs are unknown parameters now:
        # each answers 400 instead of selecting an executor.
        db, inst = stored
        r = inst.predicate().r
        svc = self._service(db)
        try:
            for loose in ({"shm": "true"}, {"executor": "process"},
                          {"workers": 2}, {"split_depth": 1}):
                with pytest.raises(ServiceError) as err:
                    svc.handle("onion", "maximum", {
                        "k": inst.k, "r": r, **loose,
                    })
                assert err.value.status == 400
                assert "unknown parameters" in str(err.value)
            with pytest.raises(ServiceError) as err:
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"shm": True},
                })
            assert err.value.status == 400
        finally:
            svc.close()

    def test_bad_knob_values_map_to_request_errors(self, stored):
        db, inst = stored
        r = inst.predicate().r
        svc = self._service(db)
        try:
            with pytest.raises(ServiceError):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"executor": "nope"},
                })
            with pytest.raises(ServiceError):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": "shm",
                })
            with pytest.raises(ServiceError):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"split_depth": 99},
                })
        finally:
            svc.close()


# ----------------------------------------------------------------------
# CLI execution flags
# ----------------------------------------------------------------------

class TestCliExecutionFlags:
    @pytest.fixture
    def file_graph(self, tmp_path):
        from repro.graph.attributed_graph import AttributedGraph
        from repro.graph.io import write_attributes, write_edge_list

        g = AttributedGraph(
            6,
            edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            labels=[f"u{i}" for i in range(6)],
        )
        for u in (0, 1, 2):
            g.set_attribute(u, frozenset({"x", "y"}))
        for u in (3, 4, 5):
            g.set_attribute(u, frozenset({"p", "q"}))
        epath = tmp_path / "edges.txt"
        apath = tmp_path / "attrs.txt"
        write_edge_list(g, epath)
        write_attributes(g, apath, "set")
        return str(epath), str(apath)

    def _graph_args(self, file_graph):
        edges, attrs = file_graph
        return [
            "--edges", edges, "--attrs", attrs, "--attr-kind", "set",
            "--k", "2", "--r", "0.5",
        ]

    def test_executor_flags_do_not_change_results(self, file_graph, capsys):
        from repro.cli import main

        assert main(["maximum"] + self._graph_args(file_graph)) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["maximum"] + self._graph_args(file_graph)
            + ["--executor", "shm", "--workers", "2", "--split-depth", "1"]
        ) == 0
        shm_out = capsys.readouterr().out

        # The summary line carries wall-clock seconds; drop only those.
        timed = re.compile(r"\[\d+\.\d+s, ")
        assert timed.search(serial_out) and timed.search(shm_out)
        assert timed.sub("[", shm_out) == timed.sub("[", serial_out)

    def test_retired_shm_flag_is_rejected(self, file_graph, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["mine"] + self._graph_args(file_graph) + ["--shm"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(
            ["mine"] + self._graph_args(file_graph)
            + ["--executor", "shm", "--workers", "2"]
        ) == 0
        assert "maximal (2,0.5)-cores" in capsys.readouterr().out

    def test_workers_without_pool_executor_is_usage_error(
        self, file_graph, capsys
    ):
        from repro.cli import main

        for flags in (["--workers", "2"],
                      ["--workers", "2", "--executor", "serial"]):
            code = main(["maximum"] + self._graph_args(file_graph) + flags)
            assert code == 2
            assert "--workers needs --executor" in capsys.readouterr().err

    def test_explicit_executor_does_not_warn(self, file_graph, capsys):
        import warnings

        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            code = main(
                ["maximum"] + self._graph_args(file_graph)
                + ["--executor", "process", "--workers", "2"]
            )
        assert code == 0
