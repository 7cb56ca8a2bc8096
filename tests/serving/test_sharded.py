"""ShardedBCCEngine: routing, laziness, re-partitioning and parity.

The acceptance contracts of the sharded serving layer:

* answers equal the monolithic engine position-for-position over randomized
  multi-component graphs (communities, iteration counts, query distances,
  error/empty rows);
* cross-component queries short-circuit to ``status="empty"`` with
  ``REASON_CROSS_SHARD`` — never an exception;
* laziness is provable from :class:`ServingStats`: a batch touching only
  shard A performs zero freezes / index builds on shard B;
* one graph mutation triggers exactly one re-partition.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.api import (
    STATUS_EMPTY,
    STATUS_ERROR,
    STATUS_OK,
    BatchQuery,
    BCCEngine,
    Query,
    SearchConfig,
)
from repro.exceptions import (
    REASON_CROSS_SHARD,
    REASON_MISSING_VERTEX,
    REASON_UNKNOWN_METHOD,
    QueryError,
    UnknownMethodError,
    VertexNotFoundError,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.serving import ShardedBCCEngine

from tests.serving.conftest import random_multi_component_graph

METHODS = ("online-bcc", "lp-bcc", "l2p-bcc", "ctc", "psa")
PARITY_CONFIG = SearchConfig(b=1, max_iterations=60)


def assert_equal_responses(got, want, *, context=""):
    """Sharded and monolithic answers must match in every observable.

    ``reason`` is compared only for error rows: for cross-component empties
    the router reports ``REASON_CROSS_SHARD`` while the monolithic engine
    reports the method's own discovery of the same fact.
    """
    assert got.method == want.method, context
    assert got.status == want.status, (context, got.reason, want.reason)
    assert got.vertices == want.vertices, context
    assert got.iterations == want.iterations, context
    if math.isinf(want.query_distance):
        assert math.isinf(got.query_distance), context
    else:
        assert got.query_distance == want.query_distance, context
    if want.status == STATUS_ERROR:
        assert got.reason == want.reason, context


class TestConstruction:
    def test_accepts_bundle(self, tiny_baidu_bundle):
        engine = ShardedBCCEngine(tiny_baidu_bundle)
        assert engine.graph is tiny_baidu_bundle.graph

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            ShardedBCCEngine(42)

    def test_partition_covers_every_vertex(self, two_component_paper_graph):
        engine = ShardedBCCEngine(two_component_paper_graph)
        assert engine.shard_count() == 2
        shards = {engine.shard_of(v) for v in two_component_paper_graph.vertices()}
        assert shards == {0, 1}
        # The paper component and the "b:*" component route separately.
        assert engine.shard_of("ql") == engine.shard_of("qr")
        assert engine.shard_of("b:s1") == engine.shard_of("b:u1")
        assert engine.shard_of("ql") != engine.shard_of("b:s1")

    def test_no_shard_engine_exists_before_any_query(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        assert engine.shards_built() == []

    def test_shard_of_unknown_vertex_raises(self, two_component_paper_graph):
        with pytest.raises(VertexNotFoundError):
            ShardedBCCEngine(two_component_paper_graph).shard_of("ghost")


class TestRouting:
    def test_same_component_query_answers_like_monolithic(
        self, two_component_paper_graph
    ):
        config = SearchConfig(k1=4, k2=3, b=1)
        sharded = ShardedBCCEngine(two_component_paper_graph, config)
        mono = BCCEngine(two_component_paper_graph.copy(), config)
        query = Query("online-bcc", ("ql", "qr"))
        assert_equal_responses(sharded.search(query), mono.search(query))

    def test_cross_component_query_is_empty_cross_shard_never_exception(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        for method in METHODS:
            response = engine.search(Query(method, ("ql", "b:u1")))
            assert response.status == STATUS_EMPTY, method
            assert response.reason == REASON_CROSS_SHARD, method
            assert response.vertices == set()
            assert response.query_distance == math.inf
            assert response.timings["total_seconds"] >= 0
        # The short-circuit never built any shard engine.
        assert engine.shards_built() == []
        snapshot = engine.counters_snapshot()
        assert snapshot["cross_shard_queries"] == len(METHODS)
        assert snapshot["searches"] == len(METHODS)

    def test_isolated_query_vertex_routes_to_its_own_shard(
        self, two_component_paper_graph
    ):
        two_component_paper_graph.add_vertex("loner", label="SE")
        engine = ShardedBCCEngine(two_component_paper_graph)
        assert engine.shard_count() == 3
        # A single-vertex query (PSA accepts arity 1) serves from the
        # isolated shard without crashing...
        mono = BCCEngine(two_component_paper_graph.copy())
        sharded_answer = engine.search(Query("psa", ("loner",)))
        mono_answer = mono.search(Query("psa", ("loner",)))
        assert_equal_responses(sharded_answer, mono_answer)
        # ...and any pair query naming the loner is cross-shard empty.
        paired = engine.search(Query("lp-bcc", ("loner", "qr")))
        assert paired.status == STATUS_EMPTY
        assert paired.reason == REASON_CROSS_SHARD

    def test_unknown_vertex_raises_like_monolithic(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        with pytest.raises(VertexNotFoundError):
            engine.search(Query("lp-bcc", ("ql", "ghost")))

    def test_unknown_method_raises_before_routing(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        # Even a cross-shard pair: method resolution fails first, exactly as
        # the monolithic engine's dispatch would.
        with pytest.raises(UnknownMethodError):
            engine.search(Query("Louvain", ("ql", "b:u1")))

    def test_empty_graph_engine_is_serveable(self):
        engine = ShardedBCCEngine(LabeledGraph())
        assert engine.shard_count() == 0
        assert engine.shards_built() == []
        with pytest.raises(VertexNotFoundError):
            engine.search(Query("lp-bcc", ("a", "b")))
        rows = engine.search_many(
            [Query("lp-bcc", ("a", "b"))], on_error="return"
        )
        assert rows[0].status == STATUS_ERROR
        assert rows[0].reason == REASON_MISSING_VERTEX
        # The stats endpoint works on an empty partition too.
        payload = engine.stats().to_dict()
        assert payload["graph"]["components"] == 0


class TestLazyPreparation:
    def test_query_prepares_only_its_own_shard(self, two_component_paper_graph):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        shard_a = engine.shard_of("ql")
        shard_b = engine.shard_of("b:s1")
        # A warm batch (including an index-based method) on shard A only.
        queries = [
            Query(method, ("ql", "qr"))
            for method in ("online-bcc", "lp-bcc", "l2p-bcc")
        ] * 3
        responses = engine.search_many(queries)
        assert all(r.status == STATUS_OK for r in responses)
        assert engine.shards_built() == [shard_a]

        stats = engine.stats()
        block_a = stats.shard(shard_a)
        block_b = stats.shard(shard_b)
        # Laziness, proven from the stats endpoint: shard A paid exactly one
        # freeze and one index build; shard B did zero work of any kind.
        assert block_a["built"] is True
        assert block_a["counters"]["csr_freezes"] == 1
        assert block_a["counters"]["index_builds"] == 1
        assert block_a["counters"]["searches"] == len(queries)
        assert block_b["built"] is False
        assert block_b["counters"]["csr_freezes"] == 0
        assert block_b["counters"]["index_builds"] == 0
        assert block_b["counters"]["searches"] == 0

    def test_freeze_cost_is_per_component_not_whole_graph(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        shard_a = engine.shard_of("ql")
        engine.search(Query("online-bcc", ("ql", "qr")))
        shard_graph = engine.shard_engine(shard_a).graph
        # The shard engine serves (and froze) only its component.
        assert shard_graph.num_vertices() < two_component_paper_graph.num_vertices()
        assert shard_graph.has_frozen()
        assert not two_component_paper_graph.has_frozen()


class TestRepartition:
    def test_mutation_triggers_exactly_one_repartition(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        engine.search(Query("online-bcc", ("ql", "qr")))
        assert engine.counters_snapshot()["partitions"] == 1
        assert engine.shard_count() == 2

        # Bridge the components: the next serving calls must see ONE new
        # partition with a single shard, however many queries observe it.
        two_component_paper_graph.add_edge("v10", "b:s3")
        before = engine.shards_built()
        for _ in range(4):
            engine.search(Query("online-bcc", ("ql", "qr")))
        assert engine.counters_snapshot()["partitions"] == 2
        assert engine.shard_count() == 1
        # The old shard engines were discarded with the old partition.
        assert before != engine.shards_built() or before == []

    def test_cross_shard_pair_becomes_answerable_after_bridge(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        blocked = engine.search(Query("ctc", ("ql", "b:s1")))
        assert blocked.reason == REASON_CROSS_SHARD
        two_component_paper_graph.add_edge("ql", "b:s1")
        after = engine.search(Query("ctc", ("ql", "b:s1")))
        assert after.reason != REASON_CROSS_SHARD
        mono = BCCEngine(two_component_paper_graph.copy())
        assert_equal_responses(after, mono.search(Query("ctc", ("ql", "b:s1"))))


class TestSearchMany:
    def test_position_alignment_across_shards_and_failures(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        batch = [
            Query("online-bcc", ("ql", "qr")),        # shard A: ok
            Query("online-bcc", ("ql", "b:u1")),      # cross-shard: empty
            Query("lp-bcc", ("ql", "ghost")),         # unknown vertex: error
            Query("no-such-method", ("ql", "qr")),    # unknown method: error
            Query("online-bcc", ("b:s1", "b:u1")),    # shard B: answered
        ]
        responses = engine.search_many(batch, on_error="return")
        assert [r.status for r in responses] == [
            STATUS_OK,
            STATUS_EMPTY,
            STATUS_ERROR,
            STATUS_ERROR,
            responses[4].status,  # shard B answer asserted below
        ]
        assert responses[1].reason == REASON_CROSS_SHARD
        assert responses[2].reason == REASON_MISSING_VERTEX
        assert responses[3].reason == REASON_UNKNOWN_METHOD
        mono = BCCEngine(
            two_component_paper_graph.copy(), SearchConfig(k1=4, k2=3, b=1)
        )
        assert_equal_responses(
            responses[4], mono.search(Query("online-bcc", ("b:s1", "b:u1")))
        )

    def test_raise_policy_aborts_on_missing_vertex(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        with pytest.raises(VertexNotFoundError):
            engine.search_many(
                [Query("lp-bcc", ("ql", "qr")), Query("lp-bcc", ("ql", "ghost"))]
            )

    def test_cross_shard_rows_never_raise_even_under_raise_policy(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        responses = engine.search_many(
            [Query("lp-bcc", ("ql", "b:u1"))], on_error="raise"
        )
        assert responses[0].status == STATUS_EMPTY
        assert responses[0].reason == REASON_CROSS_SHARD

    def test_batch_structure_errors_always_raise(self, two_component_paper_graph):
        engine = ShardedBCCEngine(two_component_paper_graph)
        with pytest.raises(QueryError, match="member 1"):
            engine.search_many([Query("ctc", ("ql",)), "not-a-query"])
        with pytest.raises(QueryError):
            engine.search_many([], on_error="ignore")
        with pytest.raises(QueryError):
            engine.search_many([], max_workers=0)
        with pytest.raises(QueryError):
            engine.search_many([], backend="proces")

    def test_process_backend_rejects_policy_and_workers_too(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        batch = [Query("lp-bcc", ("ql", "qr"))]
        try:
            with pytest.raises(QueryError):
                engine.search_many(batch, on_error="sideways", backend="process")
            with pytest.raises(QueryError):
                engine.search_many(batch, max_workers=0, backend="process")
        finally:
            engine.close_process_pool()

    def test_batch_only_builds_touched_shards(self, two_component_paper_graph):
        engine = ShardedBCCEngine(two_component_paper_graph)
        engine.search_many([Query("ctc", ("b:s1", "b:u1"))] * 4)
        assert engine.shards_built() == [engine.shard_of("b:s1")]

    def test_batch_config_precedence_matches_monolithic(
        self, two_component_paper_graph
    ):
        batch = BatchQuery(
            queries=(
                Query("online-bcc", ("ql", "qr")),  # inherits batch config
                Query(
                    "online-bcc",
                    ("ql", "qr"),
                    config=SearchConfig(k1=4, k2=3),  # its own config wins
                ),
            ),
            config=SearchConfig(k1=99, k2=99),
        )
        inherited, own = ShardedBCCEngine(two_component_paper_graph).search_many(
            batch
        )
        assert inherited.status == STATUS_EMPTY
        assert own.status == STATUS_OK

    def test_result_cache_serves_repeats_within_a_shard(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        first, second = engine.search_many(
            [Query("online-bcc", ("ql", "qr"))] * 2
        )
        assert "cache_hit" not in first.timings
        assert second.timings["cache_hit"] == 1.0
        fresh = engine.search_many(
            [Query("online-bcc", ("ql", "qr"))], use_cache=False
        )
        assert "cache_hit" not in fresh[0].timings


class TestExplain:
    def test_explain_same_shard_includes_engine_explain(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        info = engine.explain(Query("lp-bcc", ("ql", "qr")))
        assert info["routing"]["cross_shard"] is False
        assert info["shard"] == engine.shard_of("ql")
        assert info["engine"]["resolved"]["k1"] == 4

    def test_explain_cross_shard_reports_placements_without_building(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        info = engine.explain(Query("lp-bcc", ("ql", "b:u1")))
        assert info["routing"]["cross_shard"] is True
        assert "engine" not in info
        assert engine.shards_built() == []


class TestParity:
    """Randomized acceptance: sharded == monolithic position-for-position."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_multi_component_parity(self, seed):
        graph, part_vertices = random_multi_component_graph(
            48_000 + seed, num_components=3
        )
        rng = random.Random(seed)

        # Same-component cross-label pairs (the answerable workload)...
        queries = []
        for vertices in part_vertices:
            labelled = {"A": [], "B": []}
            for vertex in vertices:
                labelled[graph.label(vertex)].append(vertex)
            if not labelled["A"] or not labelled["B"]:
                continue
            for _ in range(2):
                pair = (rng.choice(labelled["A"]), rng.choice(labelled["B"]))
                for method in METHODS:
                    queries.append(Query(method, pair, config=PARITY_CONFIG))
        # ...plus cross-component pairs with distinct labels (so the
        # monolithic method validates, then discovers the disconnection)...
        for _ in range(3):
            left_part, right_part = rng.sample(range(len(part_vertices)), 2)
            left = next(
                (v for v in part_vertices[left_part] if graph.label(v) == "A"),
                None,
            )
            right = next(
                (v for v in part_vertices[right_part] if graph.label(v) == "B"),
                None,
            )
            if left is None or right is None:
                continue
            for method in METHODS:
                queries.append(
                    Query(method, (left, right), config=PARITY_CONFIG)
                )
        # ...plus guaranteed error rows.
        queries.append(Query("lp-bcc", ("c0:0", "ghost"), config=PARITY_CONFIG))
        queries.append(Query("not-a-method", ("c0:0",), config=PARITY_CONFIG))
        if not queries:
            pytest.skip("random graph produced no usable query pairs")

        sharded = ShardedBCCEngine(graph).search_many(
            queries, on_error="return"
        )
        mono = BCCEngine(graph.copy()).search_many(queries, on_error="return")
        assert len(sharded) == len(mono) == len(queries)
        for position, (got, want) in enumerate(zip(sharded, mono)):
            assert_equal_responses(
                got, want, context=(position, queries[position].method)
            )

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_parity_holds_for_scatter_gather(self, max_workers):
        graph, part_vertices = random_multi_component_graph(777, 2)
        queries = []
        for vertices in part_vertices:
            pairs = [
                (u, v)
                for u in vertices
                for v in vertices
                if graph.has_edge(u, v) and graph.label(u) != graph.label(v)
            ][:3]
            for pair in pairs:
                for method in ("online-bcc", "ctc", "psa"):
                    queries.append(Query(method, pair, config=PARITY_CONFIG))
        if not queries:
            pytest.skip("random graph produced no cross edges")
        sharded = ShardedBCCEngine(graph).search_many(
            queries, max_workers=max_workers
        )
        mono = BCCEngine(graph.copy()).search_many(queries)
        for got, want in zip(sharded, mono):
            assert_equal_responses(got, want)
