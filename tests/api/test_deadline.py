"""Cooperative deadlines: the kernels stop at their checkpoints, on the caller's thread.

``run_with_deadline`` runs its call inline under a :mod:`repro.deadline`
token; every served method checks it in its per-query loops, so an expired
search raises from inside the kernel (the engine never counts it as a
search) and no thread is left running.  Fill-once builds never check: a
cancelled request still completes the shared state later requests read.
"""

from __future__ import annotations

import threading

import pytest

import repro.graph.csr as csr_module
from repro.api import BCCEngine, Query, SearchConfig
from repro.api.engine import run_with_deadline
from repro.api.registry import registered_methods
from repro.core import multilabel, pipeline
from repro.core.bc_index import BCIndex
from repro.core.path_weight import butterfly_core_shortest_path
from repro.datasets import load_dataset
from repro.deadline import checkpoint, current_deadline
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.exceptions import REASON_DEADLINE_EXCEEDED, DeadlineExceededError
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import bfs_distances

SERVED_METHODS = ("online-bcc", "lp-bcc", "l2p-bcc", "mbcc", "ctc", "psa")
QUERY = ("ql", "qr")


class FakeClock:
    """A settable clock: ``now`` until a test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def jumping_clock(budget_seconds: float, readings: int = 1):
    """A clock that reads 0.0 ``readings`` times, then past ``budget_seconds`` for good."""
    early = iter([0.0] * readings)
    return lambda: next(early, budget_seconds + 1.0)


@pytest.fixture
def engine():
    return BCCEngine(paper_example_graph()).prepare()


def test_every_registered_method_is_covered():
    assert sorted(spec.name for spec in registered_methods()) == sorted(SERVED_METHODS)


class TestCancellationInsideTheKernel:
    @pytest.mark.parametrize("method", SERVED_METHODS)
    def test_expired_search_stops_in_the_kernel(self, engine, method):
        query = Query(method, QUERY)
        # Answerable: unbounded, the search reaches its per-query loops.
        assert engine.search(query, use_cache=False).status == "ok"
        searches = engine.counters_snapshot()["searches"]
        threads = threading.active_count()

        with pytest.raises(DeadlineExceededError) as excinfo:
            run_with_deadline(
                lambda: engine.search(query, use_cache=False),
                1.0,
                clock=jumping_clock(1.0),
            )

        assert excinfo.value.deadline_ms == pytest.approx(1000.0)
        # A checkpoint raised: the search never finished, so neither the
        # engine's count nor the late-answer post-check saw it.
        assert engine.counters_snapshot()["searches"] == searches
        assert threading.active_count() == threads

    def test_mbcc_stops_before_its_interaction_graph(self, engine, monkeypatch):
        # The candidate's per-label cores check the deadline, so an expired
        # mBCC search stops before it counts any label pair's butterflies.
        calls = []
        interaction_graph_edges = multilabel._interaction_graph_edges

        def spy(*args, **kwargs):
            calls.append(args)
            return interaction_graph_edges(*args, **kwargs)

        monkeypatch.setattr(multilabel, "_interaction_graph_edges", spy)
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: engine.search(Query("mbcc", QUERY), use_cache=False),
                1.0,
                clock=jumping_clock(1.0),
            )
        assert calls == []

    def test_def6_target_bfs_stops_at_a_level_boundary(self, adjacency_reads):
        # A ladder 0..5 with the target at one end and the source at the
        # other: the target's BFS checks the deadline once per level, so a
        # budget that lets two checkpoints pass stops it with exactly the
        # lists of the ids within one hop of the target read.
        graph = LabeledGraph()
        for rung in range(6):
            graph.add_vertex((rung, 0), label="A")
            graph.add_vertex((rung, 1), label="B")
            graph.add_edge((rung, 0), (rung, 1))
            if rung:
                graph.add_edge((rung - 1, 0), (rung, 0))
                graph.add_edge((rung - 1, 1), (rung, 1))
        index = BCIndex(graph)
        csr = graph.freeze()
        index.id_tables(csr, "A", "B")  # fill χ before recording
        adjacency_reads.clear()

        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: butterfly_core_shortest_path(
                    graph, (5, 1), (0, 0), index, "A", "B"
                ),
                1.0,
                clock=jumping_clock(1.0, readings=3),
            )

        near = [v for v, hops in bfs_distances(graph, (0, 0)).items() if hops <= 1]
        assert adjacency_reads == {csr.id_of(v) for v in near}

    def test_ctc_batch_under_2ms_budgets_stops_every_row(self):
        # ROADMAP item 2's repro: CTC is the slowest served method (a few
        # hundred ms a search here), and each row must stop at its own
        # 2 ms budget instead of peeling on behind the caller's back.
        bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
        config = SearchConfig(b=1, max_iterations=60)
        engine = BCCEngine(bundle, config).prepare()
        pairs = generate_query_pairs(bundle, QuerySpec(count=8), seed=1)
        budget = SearchConfig(b=1, max_iterations=60, deadline_ms=2.0)
        threads = threading.active_count()

        rows = engine.search_many(
            [Query("ctc", pair, config=budget) for pair in pairs],
            on_error="return",
            max_workers=1,
            use_cache=False,
        )

        assert [row.reason for row in rows] == [REASON_DEADLINE_EXCEEDED] * 8
        assert threading.active_count() == threads


class TestFillsComplete:
    def test_g0_entry_built_past_the_budget_is_stored(self, engine, monkeypatch):
        clock = FakeClock()
        build = pipeline._build_g0

        def build_past_the_budget(*args):
            clock.now = 10.0
            return build(*args)

        monkeypatch.setattr(pipeline, "_build_g0", build_past_the_budget)
        query = Query("online-bcc", QUERY)
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: engine.search(query, use_cache=False), 1.0, clock=clock
            )
        assert engine.counters_snapshot()["g0_memo_misses"] == 1

        assert engine.search(query, use_cache=False).status == "ok"
        counters = engine.counters_snapshot()
        assert counters["g0_memo_hits"] == 1
        assert counters["g0_memo_misses"] == 1

    def test_core_search_past_the_budget_publishes_nothing(self, engine, monkeypatch):
        # A connected core is per-query work: its BFS checks the deadline,
        # and only a finished component enters the snapshot's memo.
        clock = FakeClock()
        searched = []
        bfs = pipeline._core_component

        def bfs_past_the_budget(*args):
            searched.append(args[0])
            clock.now = 10.0
            return bfs(*args)

        monkeypatch.setattr(pipeline, "_core_component", bfs_past_the_budget)
        query = Query("lp-bcc", QUERY)
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: engine.search(query, use_cache=False), 1.0, clock=clock
            )
        csr = engine.frozen_graph()
        assert len(searched) == 1
        assert csr.core_entries() == {}
        assert csr.g0_entries() == {}

        assert engine.search(query, use_cache=False).status == "ok"
        assert len(searched) == 3
        q_left = csr.id_of(QUERY[0])
        assert any(q_left in c for components in csr.core_entries().values() for c in components)

    @pytest.mark.parametrize("method", ["online-bcc", "lp-bcc"])
    def test_bit_table_filled_past_the_budget_is_kept(self, engine, monkeypatch, method):
        clock = FakeClock()
        fill = csr_module.adjacency_bit_rows

        def fill_past_the_budget(slices):
            clock.now = 10.0
            return fill(slices)

        monkeypatch.setattr(csr_module, "adjacency_bit_rows", fill_past_the_budget)
        query = Query(method, QUERY)
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: engine.search(query, use_cache=False), 1.0, clock=clock
            )
        # The fill ran to the end; the search stopped at its next checkpoint.
        assert engine.frozen_graph().has_adjacency_bits()

    def test_first_l2p_query_past_the_budget_keeps_its_pair_chi(
        self, engine, monkeypatch
    ):
        clock = FakeClock()
        count_pair = BCIndex._count_pair

        def count_past_the_budget(index, left_label, right_label):
            clock.now = 10.0
            return count_pair(index, left_label, right_label)

        monkeypatch.setattr(BCIndex, "_count_pair", count_past_the_budget)
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: engine.search(Query("l2p-bcc", QUERY), use_cache=False),
                1.0,
                clock=clock,
            )
        graph = engine.graph
        labels = tuple(sorted(str(graph.label(v)) for v in QUERY))
        assert engine.ensure_index().cached_label_pairs() == (labels,)


class TestToken:
    def test_checkpoint_without_a_deadline_is_a_no_op(self):
        assert current_deadline() is None
        checkpoint()

    def test_the_token_lives_only_for_the_call(self):
        seen = []
        run_with_deadline(lambda: seen.append(current_deadline()), 5.0)
        (deadline,) = seen
        assert deadline.budget_ms == pytest.approx(5000.0)
        assert current_deadline() is None

    def test_an_earlier_outer_deadline_stays_in_force(self):
        clock = FakeClock()
        seen = []
        run_with_deadline(
            lambda: run_with_deadline(
                lambda: seen.append(current_deadline().budget_ms), 10.0, clock=clock
            ),
            1.0,
            clock=clock,
        )
        assert seen == [pytest.approx(1000.0)]

    def test_an_earlier_inner_deadline_replaces_the_outer(self):
        clock = FakeClock()
        seen = []
        run_with_deadline(
            lambda: run_with_deadline(
                lambda: seen.append(current_deadline().budget_ms), 0.5, clock=clock
            ),
            10.0,
            clock=clock,
        )
        assert seen == [pytest.approx(500.0)]

    def test_batch_rows_on_executor_threads_run_under_the_callers_token(
        self, engine
    ):
        # serve_batch copies the caller's context into each row, so a
        # request-level budget reaches rows that carry none of their own.
        rows = []
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(
                lambda: rows.extend(
                    engine.search_many(
                        [Query("online-bcc", QUERY), Query("lp-bcc", QUERY)],
                        max_workers=2,
                        on_error="return",
                        use_cache=False,
                    )
                ),
                1.0,
                clock=jumping_clock(1.0),
            )
        assert [row.reason for row in rows] == [REASON_DEADLINE_EXCEEDED] * 2
        assert engine.counters_snapshot()["searches"] == 0
