"""Randomized parity suite: every graph kernel ≡ an independent reference.

Each kernel has one implementation (:mod:`repro.graph.csr`), so this suite
checks it against code that shares nothing with it, value for value, over
220 random graphs (80 bipartite + 70 labeled + 70 traversal instances,
plus edge cases): butterfly degrees against the brute-force O(n⁴)
enumeration and the per-vertex wedge count, coreness and k-cores against
the small object-graph peel below, and the id-level BFS, on set frontiers
and on the adjacency bit table, against the object-graph BFS.
Disconnected graphs and single-label graphs (one bipartite side empty)
are included.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SearchConfig
from repro.core.bcc_model import BCCParameters, resolve_query_labels
from repro.core.butterfly import (
    brute_force_butterfly_degrees,
    butterfly_degree_of,
    butterfly_degrees,
    enumerate_butterflies,
    max_butterfly_degree_per_side,
)
from repro.core.find_g0 import find_g0
from repro.core.kcore import core_decomposition, k_core_vertices
from repro.core.maintenance import maintain_bcc
from repro.core.online_bcc import distance_sweep, run_online_bcc
from repro.graph.bipartite import extract_label_bipartite
from repro.graph.csr import (
    UNREACHED,
    CSRGraph,
    adjacency_bit_rows,
    csr_bfs_distances,
    csr_k_core_alive,
    ids_bits,
)
from repro.graph.generators import (
    planted_partition_graph,
    random_bipartite_graph,
    random_labeled_graph,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import (
    bfs_distances,
    farthest_vertices,
    graph_query_distance,
    query_distances,
)
from tests.conftest import search_result

BUTTERFLY_SEEDS = range(80)
KCORE_SEEDS = range(70)
BFS_SEEDS = range(70)


def _random_bipartite(seed: int):
    rng = random.Random(seed)
    n_left = rng.randint(1, 14)
    n_right = rng.randint(1, 14)
    graph = random_bipartite_graph(
        [f"l{i}" for i in range(n_left)],
        [f"r{i}" for i in range(n_right)],
        rng.random(),
        seed=seed,
    )
    return extract_label_bipartite(graph, "L", "R")


def _random_graph(seed: int, labels=("A", "B", "C")):
    rng = random.Random(10_000 + seed)
    return random_labeled_graph(
        rng.randint(0, 28), rng.random() * 0.5, list(labels), seed=seed
    )


def reference_k_core(graph, k):
    """The maximal k-core by repeated deletion of vertices of degree < k."""
    alive = set(graph.vertices())
    degree = {v: graph.degree(v) for v in alive}
    stack = [v for v in alive if degree[v] < k]
    while stack:
        vertex = stack.pop()
        if vertex not in alive:
            continue
        alive.discard(vertex)
        for neighbor in graph.neighbors(vertex):
            if neighbor in alive:
                degree[neighbor] -= 1
                if degree[neighbor] < k:
                    stack.append(neighbor)
    return alive


def reference_coreness(graph):
    """δ(v) as the largest k whose k-core (:func:`reference_k_core`) holds v."""
    coreness = {v: 0 for v in graph.vertices()}
    k = 1
    while True:
        core = reference_k_core(graph, k)
        if not core:
            return coreness
        for vertex in core:
            coreness[vertex] = k
        k += 1


class TestButterflyParity:
    @pytest.mark.parametrize("seed", BUTTERFLY_SEEDS)
    def test_counts_match_the_references(self, seed, wedge_chi):
        view = _random_bipartite(seed)
        reference = brute_force_butterfly_degrees(view)
        assert {v: butterfly_degree_of(view, v) for v in view.vertices()} == reference
        assert butterfly_degrees(view) == reference
        assert wedge_chi(view) == reference

    def test_single_label_graph_has_empty_side(self):
        graph = random_labeled_graph(12, 0.4, ["only"], seed=5)
        view = extract_label_bipartite(graph, "only", "missing")
        degrees = butterfly_degrees(view)
        assert degrees == brute_force_butterfly_degrees(view)
        assert all(chi == 0 for chi in degrees.values())

    def test_enumerate_butterflies_matches_brute_force(self):
        view = _random_bipartite(3)
        degrees = {v: 0 for v in view.vertices()}
        for l1, l2, r1, r2 in enumerate_butterflies(view):
            assert view.side(l1) == view.side(l2) == "left"
            assert view.side(r1) == view.side(r2) == "right"
            for vertex in (l1, l2, r1, r2):
                degrees[vertex] += 1
        assert degrees == {v: butterfly_degree_of(view, v) for v in view.vertices()}

    def test_empty_degree_map_is_authoritative(self):
        view = _random_bipartite(7)
        # An explicitly supplied empty map must not trigger a recount.
        assert max_butterfly_degree_per_side(view, degrees={}) == (0, 0)
        reference = butterfly_degrees(view)
        assert max_butterfly_degree_per_side(view, degrees=reference) == \
            max_butterfly_degree_per_side(view)


class TestKCoreParity:
    @pytest.mark.parametrize("seed", KCORE_SEEDS)
    def test_coreness_and_cores_match_the_reference_peel(self, seed):
        graph = _random_graph(seed)
        reference = reference_coreness(graph)
        frozen = CSRGraph.freeze(graph)
        n = frozen.num_vertices()
        max_k = (max(reference.values()) if reference else 0) + 2
        # Cold: the flat-array peel, with no coreness cached.
        for k in range(0, max_k):
            expected = reference_k_core(graph, k)
            assert k_core_vertices(graph, k) == expected
            alive = csr_k_core_alive(frozen, k)
            assert {frozen.vertex_of(i) for i in range(n) if alive[i]} == expected
        assert core_decomposition(graph) == reference
        assert {frozen.vertex_of(i): c for i, c in enumerate(frozen.coreness())} == reference
        # Warm: the O(n) coreness filter.
        for k in range(0, max_k):
            expected = reference_k_core(graph, k)
            assert k_core_vertices(graph, k) == expected
            alive = csr_k_core_alive(frozen, k)
            assert {frozen.vertex_of(i) for i in range(n) if alive[i]} == expected

    def test_disconnected_components(self):
        graph = planted_partition_graph([8, 8, 8], 0.8, 0.0, seed=2)[0]
        assert core_decomposition(graph) == reference_coreness(graph)


class TestBFSParity:
    """The id-level BFS ≡ the object BFS, on set frontiers and on the bit table.

    The table is built with :func:`adjacency_bit_rows` whatever the
    snapshot's memory budget, so every graph runs both kernels.
    """

    @staticmethod
    def _rows(frozen, table):
        return adjacency_bit_rows(frozen.adjacency_slices()) if table else None

    @pytest.mark.parametrize("table", [False, True], ids=["sets", "bits"])
    @pytest.mark.parametrize("seed", BFS_SEEDS)
    def test_distances_agree(self, seed, table):
        graph = _random_graph(seed, labels=("A", "B"))
        vertices = list(graph.vertices())
        if not vertices:
            return
        rng = random.Random(seed)
        frozen = CSRGraph.freeze(graph)
        rows = self._rows(frozen, table)
        source = rng.choice(vertices)
        for max_depth in (None, 0, 1, 3):
            reference = bfs_distances(graph, source, max_depth=max_depth)
            dist = csr_bfs_distances(
                frozen, frozen.id_of(source), max_depth=max_depth, rows=rows
            )
            assert {frozen.vertex_of(i): d for i, d in enumerate(dist) if d >= 0} == reference
            assert dist.count(UNREACHED) == len(dist) - len(reference)

    @pytest.mark.parametrize("table", [False, True], ids=["sets", "bits"])
    @pytest.mark.parametrize("seed", range(10))
    def test_restricted_distances_agree(self, seed, table):
        """``alive=`` and ``dead=`` ≡ an object BFS on the induced subgraph."""
        graph = random_labeled_graph(20, 0.2, ["A", "B"], seed=seed)
        rng = random.Random(seed)
        kept = set(rng.sample(list(graph.vertices()), 12))
        source = min(kept, key=repr)
        frozen = CSRGraph.freeze(graph)
        rows = self._rows(frozen, table)
        alive = {frozen.id_of(v) for v in kept}
        dead = set(range(frozen.num_vertices())) - alive
        restrictions = [{"alive": alive}, {"dead": dead}]
        if table:
            restrictions.append({"alive": ids_bits(alive)})
        sub = graph.induced_subgraph(kept)
        for max_depth in (None, 0, 1, 3):
            reference = bfs_distances(sub, source, max_depth=max_depth)
            for restriction in restrictions:
                dist = csr_bfs_distances(
                    frozen, frozen.id_of(source), max_depth=max_depth, rows=rows,
                    **restriction,
                )
                assert {
                    frozen.vertex_of(i): d for i, d in enumerate(dist) if d >= 0
                } == reference
                assert dist.count(UNREACHED) == len(dist) - len(reference)

    def test_levels_deeper_than_a_byte(self):
        """A 300-id path, within the table's budget: depths past 127 read right."""
        graph = LabeledGraph(edges=[(v, v + 1) for v in range(299)])
        frozen = CSRGraph.freeze(graph)
        rows = frozen.adjacency_bits()
        assert rows is not None
        for max_depth in (None, 127, 128, 200):
            reference = bfs_distances(graph, 0, max_depth=max_depth)
            dist = csr_bfs_distances(frozen, frozen.id_of(0), max_depth=max_depth, rows=rows)
            assert {frozen.vertex_of(i): d for i, d in enumerate(dist) if d >= 0} == reference
            assert dist.count(UNREACHED) == len(dist) - len(reference)
        assert max(dist) == 200


class TestOnlineBCCFastPathParity:
    """Online-BCC's served path ≡ the object runner, called directly.

    The engine runs the CSR pipeline; :func:`run_online_bcc` shrinks a
    mutable copy of ``G0`` and sweeps it with an object-graph BFS, sharing no
    sweep code with it.
    The two sweeps must also agree step by step, not only in the answer.
    """

    @staticmethod
    def _planted(seed):
        # Dense enough across the labels that every seed has a community
        # and the sweep runs several iterations.
        graph, communities = planted_partition_graph(
            [16, 16], 0.3, 0.2, seed=seed, label_for_community=lambda i: "LR"[i]
        )
        return graph, communities[0][0], communities[1][0]

    @staticmethod
    def _assert_same(fast, slow):
        assert fast is not None and slow is not None
        assert set(fast.community.vertices()) == set(slow.community.vertices())
        assert fast.community == slow.community
        assert fast.left_vertices == slow.left_vertices
        assert fast.right_vertices == slow.right_vertices
        assert fast.query_distance == slow.query_distance
        assert fast.iterations == slow.iterations

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("bulk", [True, False])
    def test_fast_path_is_byte_identical(self, seed, bulk):
        graph, q_left, q_right = self._planted(seed)
        fast = search_result(graph, "online-bcc", q_left, q_right, bulk_deletion=bulk)
        slow = run_online_bcc(graph, q_left, q_right, bulk_deletion=bulk)
        self._assert_same(fast, slow)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("bulk", [True, False])
    def test_object_runner_sweeps_agree(self, seed, bulk):
        """The runner's object-graph sweep ≡ the pipeline's :func:`distance_sweep`.

        Peels ``G0`` exactly as :func:`run_online_bcc` does and, before every
        deletion, sweeps the survivors both ways: over the object graph, and
        over the whole input's CSR restricted to the survivors' ids.
        """
        graph, q_left, q_right = self._planted(seed)
        left_label, right_label = resolve_query_labels(graph, q_left, q_right)
        parameters = BCCParameters.from_query(graph, q_left, q_right)
        g0 = find_g0(graph, q_left, q_right, parameters)
        assert g0 is not None
        community = g0.community.copy()
        query = [q_left, q_right]
        frozen = CSRGraph.freeze(graph)
        table = frozen.adjacency_bits()
        assert table is not None
        ql, qr = frozen.id_of(q_left), frozen.id_of(q_right)
        iterations = 0
        while True:
            maps = query_distances(community, query)
            want = graph_query_distance(community, query, maps)
            candidates, max_distance = farthest_vertices(community, query, maps)
            alive = {frozen.id_of(v) for v in community.vertices()}
            for rows in (None, table):
                got, ids, got_max = distance_sweep(frozen, ql, qr, alive, rows)
                assert got == want
                assert {frozen.vertex_of(i) for i in ids} == set(candidates)
                assert got_max == max_distance
            if not candidates or max_distance <= 0:
                break
            to_delete = candidates if bulk else [min(candidates, key=repr)]
            outcome = maintain_bcc(
                community,
                to_delete,
                parameters,
                left_label,
                right_label,
                query_vertices=query,
                check_butterfly=True,
            )
            iterations += 1
            if not outcome.valid:
                break
        # The replay took the runner's own path.
        runner = run_online_bcc(graph, q_left, q_right, bulk_deletion=bulk)
        assert iterations == runner.iterations


class TestProcessBackendParity:
    """backend="process" ≡ the threaded path, value for value.

    The worker processes serve the *same* frozen CSR arrays from shared
    memory, so every registered method must return byte-identical wire
    payloads (community, iterations, query distance, error rows) whether
    the batch ran in-process or was scattered over workers.  A SIGKILLed
    worker costs at most its in-flight row and never the batch.
    """

    PAIR_CONFIGS = {
        "online-bcc": SearchConfig(b=1, max_iterations=60),
        "lp-bcc": SearchConfig(b=1, max_iterations=60),
        "l2p-bcc": SearchConfig(b=1, max_iterations=60),
        "ctc": SearchConfig(max_iterations=60),
        "psa": SearchConfig(),
    }

    @staticmethod
    def _canonical(response):
        from repro.server.protocol import encode_response

        payload = encode_response(response)
        payload.pop("timings")
        return payload

    @staticmethod
    def _cross_pairs(graph, limit):
        pairs = []
        for u, v in graph.cross_edges():
            pairs.append((u, v))
            if len(pairs) >= limit:
                break
        return pairs

    @pytest.mark.parallel
    @pytest.mark.parametrize("seed", range(3))
    def test_every_pair_method_agrees(self, seed):
        from repro.api import BCCEngine, Query

        graph = random_labeled_graph(24, 0.3, ["A", "B"], seed=800 + seed)
        pairs = self._cross_pairs(graph, 2)
        if not pairs:
            pytest.skip("no cross edge in this instance")
        queries = [
            Query(method, pair, config=config)
            for method, config in self.PAIR_CONFIGS.items()
            for pair in pairs
        ]
        engine = BCCEngine(graph)
        expected = engine.search_many(queries, on_error="return")
        got = engine.search_many(
            queries, on_error="return", backend="process", max_workers=2
        )
        try:
            assert [self._canonical(r) for r in got] == [
                self._canonical(r) for r in expected
            ]
        finally:
            engine.close_process_pool()

    @pytest.mark.parallel
    def test_mbcc_agrees_on_a_multilabel_graph(self):
        from repro.api import BCCEngine, Query, SearchConfig

        graph = random_labeled_graph(21, 0.4, ["A", "B", "C"], seed=31)
        by_label = [sorted(graph.vertices_with_label(l)) for l in "ABC"]
        if not all(by_label):
            pytest.skip("a label side is empty in this instance")
        query = tuple(side[0] for side in by_label)
        config = SearchConfig(b=1, max_iterations=60)
        engine = BCCEngine(graph)
        queries = [Query("mbcc", query, config=config)]
        expected = engine.search_many(queries, on_error="return")
        got = engine.search_many(
            queries, on_error="return", backend="process"
        )
        try:
            assert [self._canonical(r) for r in got] == [
                self._canonical(r) for r in expected
            ]
        finally:
            engine.close_process_pool()

    @pytest.mark.parallel
    @pytest.mark.chaos
    def test_sigkill_mid_batch_costs_one_row_at_most(self):
        import os
        import signal
        import time

        from repro.api import BCCEngine, Query
        from repro.parallel import ProcessWorkerPool

        graph = random_labeled_graph(30, 0.25, ["A", "B"], seed=77)
        pairs = self._cross_pairs(graph, 6)
        queries = [Query("online-bcc", pair) for pair in pairs]

        class KillFirstDispatch:
            def __init__(self):
                self.fired = False

            def on(self, site, **attrs):
                if site == "pool.dispatch" and not self.fired:
                    self.fired = True
                    os.kill(attrs["pid"], signal.SIGKILL)

        killer = KillFirstDispatch()
        start = time.monotonic()
        with ProcessWorkerPool(
            graph, SearchConfig(), workers=2, fault_plan=killer
        ) as pool:
            rows = pool.run_batch([(q, None, None) for q in queries])
            assert time.monotonic() - start < 60.0  # bounded, never a hang
            assert len(rows) == len(queries)
            errors = [r for r in rows if r.status == "error"]
            assert len(errors) <= 1
            for row in errors:
                assert row.reason == "worker-crashed"
            counters = pool.counters_snapshot()
            assert killer.fired
            assert counters["crashes"] >= 1 and counters["respawns"] >= 1
            # The respawned worker serves the next batch like nothing
            # happened — and with full parity.
            again = pool.run_batch([(queries[0], None, None)])
        reference = BCCEngine(graph).prepare().search(queries[0])
        assert self._canonical(again[0]) == self._canonical(reference)


class TestLabelIndexConsistency:
    """The maintained label index must always match a full scan."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_sequences(self, seed):
        rng = random.Random(seed)
        graph = _random_graph(seed)
        labels = ["A", "B", "C", "D"]
        for _ in range(60):
            op = rng.random()
            vertices = list(graph.vertices())
            if op < 0.3 or not vertices:
                graph.add_vertex(rng.randint(0, 40), label=rng.choice(labels))
            elif op < 0.5:
                graph.set_label(rng.choice(vertices), rng.choice(labels))
            elif op < 0.7 and len(vertices) >= 2:
                graph.add_edge(rng.choice(vertices), rng.choice(vertices))
            else:
                graph.remove_vertex(rng.choice(vertices))
            scan = {}
            for v in graph.vertices():
                scan.setdefault(graph.label(v), set()).add(v)
            assert graph.labels() == set(scan)
            for label in list(scan) + ["unused"]:
                assert graph.vertices_with_label(label) == scan.get(label, set())
            assert graph.label_counts() == {lab: len(s) for lab, s in scan.items()}
