"""Snapshot format tests: round-trip equality, rejection, attach parity."""

from __future__ import annotations

import os

import pytest

from repro.api import BCCEngine, Query
from repro.datasets import load_dataset
from repro.exceptions import SnapshotMismatchError, StoreError
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.store import (
    Snapshot,
    SnapshotWriter,
    attach_engine,
    persist_engine,
)

METHODS = ("online-bcc", "lp-bcc", "l2p-bcc", "psa")


def _write_paper_snapshot(tmp_path):
    graph = paper_example_graph()
    engine = BCCEngine(graph).prepare()
    path = tmp_path / "graph.bccsnap"
    persist_engine(engine, path)
    return graph, engine, path


def _query_pairs(graph: LabeledGraph, limit: int = 6):
    labels = graph.label_map()
    vertices = sorted(graph.vertices(), key=str)
    pairs = []
    for a in vertices:
        for b in vertices:
            if str(a) < str(b) and labels[a] != labels[b]:
                pairs.append((a, b))
                if len(pairs) == limit:
                    return pairs
    return pairs


# ----------------------------------------------------------------------
# round-trip equality
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_arrays_survive_value_for_value(self, tmp_path):
        graph, _, path = _write_paper_snapshot(tmp_path)
        csr = graph.freeze()
        offs, nbrs = csr.adjacency_lists()
        with Snapshot(path) as snapshot:
            assert list(snapshot.segment("offsets")) == list(offs)
            assert list(snapshot.segment("neighbors")) == list(nbrs)
            assert list(snapshot.segment("labels")) == list(csr.labels)
            assert list(snapshot.segment("coreness")) == csr.coreness()
            assert snapshot.vertices() == list(graph.vertices())

    def test_copying_reader_round_trips_and_closes(self, tmp_path, monkeypatch):
        # A big-endian host byteswaps on write and reads through array
        # copies, not views; flipping the byte-order flag simulates one.
        monkeypatch.setattr("repro.store.format._LITTLE_ENDIAN", False)
        graph, _, path = _write_paper_snapshot(tmp_path)
        offs, nbrs = graph.freeze().adjacency_lists()
        snapshot = Snapshot(path)
        assert list(snapshot.segment("offsets")) == list(offs)
        assert list(snapshot.segment("neighbors")) == list(nbrs)
        snapshot.close()

    def test_attached_csr_equals_frozen(self, tmp_path):
        graph, _, path = _write_paper_snapshot(tmp_path)
        frozen = graph.freeze()
        snapshot = Snapshot(path)
        attached = snapshot.as_csr_graph()
        assert attached.num_vertices() == frozen.num_vertices()
        assert attached.num_edges() == frozen.num_edges()
        assert attached.adjacency_lists() == frozen.adjacency_lists()
        assert list(attached.labels) == list(frozen.labels)
        assert attached.coreness() == frozen.coreness()
        assert attached.interner.vertices() == frozen.interner.vertices()

    def test_index_replay_matches_rebuild(self, tmp_path):
        graph, engine, path = _write_paper_snapshot(tmp_path)
        rebuilt = engine.ensure_index()
        fresh = load_dataset  # noqa: F841  (documents intent: a new process)
        graph2 = paper_example_graph()
        attached = attach_engine(graph2, Snapshot(path))
        replayed = attached.ensure_index()
        assert replayed.coreness_map() == rebuilt.coreness_map()
        assert replayed.max_coreness() == rebuilt.max_coreness()
        labels = sorted(graph.labels(), key=str)
        for i, left in enumerate(labels):
            for right in labels[i + 1 :]:
                assert replayed.butterfly_degrees_for(
                    left, right
                ) == rebuilt.butterfly_degrees_for(left, right)
                assert replayed.max_butterfly_degree(
                    left, right
                ) == rebuilt.max_butterfly_degree(left, right)

    @pytest.mark.parametrize("method", METHODS)
    def test_search_parity_rebuilt_vs_attached(self, tmp_path, method):
        graph, engine, path = _write_paper_snapshot(tmp_path)
        graph2 = paper_example_graph()
        attached = attach_engine(graph2, Snapshot(path))
        assert attached.counters_snapshot()["csr_freezes"] == 0
        for pair in _query_pairs(graph):
            query = Query(vertices=pair, method=method)
            expected = engine.search(query)
            actual = attached.search(query)
            assert actual.status == expected.status
            assert actual.reason == expected.reason
            expected_community = (
                sorted(map(str, expected.community)) if expected.community else None
            )
            actual_community = (
                sorted(map(str, actual.community)) if actual.community else None
            )
            assert actual_community == expected_community

    def test_dataset_snapshot_round_trip(self, tmp_path):
        bundle = load_dataset("baidu-tiny", seed=7)
        engine = BCCEngine(bundle.graph).prepare()
        path = tmp_path / "baidu.bccsnap"
        persist_engine(engine, path)
        bundle2 = load_dataset("baidu-tiny", seed=7)
        attached = attach_engine(bundle2.graph, Snapshot(path))
        assert attached.ensure_index().coreness_map() == (
            engine.ensure_index().coreness_map()
        )

    def test_butterfly_pairs_none_still_serves(self, tmp_path):
        graph = paper_example_graph()
        path = tmp_path / "lean.bccsnap"
        SnapshotWriter(path, butterfly_pairs="none").write(graph)
        graph2 = paper_example_graph()
        attached = attach_engine(graph2, Snapshot(path))
        reference = BCCEngine(paper_example_graph()).prepare()
        query = Query(vertices=_query_pairs(graph)[0], method="l2p-bcc")
        assert attached.search(query).status == reference.search(query).status


# ----------------------------------------------------------------------
# rejection: corruption, truncation, version skew, mismatch
# ----------------------------------------------------------------------
class TestRejection:
    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.bccsnap"
        path.write_bytes(b"definitely not a snapshot file, but long enough")
        with pytest.raises(StoreError, match="not a snapshot"):
            Snapshot(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bccsnap"
        path.write_bytes(b"")
        with pytest.raises(StoreError):
            Snapshot(path)

    def test_truncation_rejected(self, tmp_path):
        _, _, path = _write_paper_snapshot(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(StoreError, match="truncated"):
            Snapshot(path)

    def test_segment_corruption_rejected(self, tmp_path):
        _, _, path = _write_paper_snapshot(tmp_path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a bit inside the last segment
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum mismatch"):
            Snapshot(path)

    def test_header_corruption_rejected(self, tmp_path):
        _, _, path = _write_paper_snapshot(tmp_path)
        data = bytearray(path.read_bytes())
        data[40] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="header"):
            Snapshot(path)

    def test_format_version_skew_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.store.snapshot.FORMAT_VERSION", 999)
        graph = paper_example_graph()
        path = tmp_path / "future.bccsnap"
        SnapshotWriter(path).write(graph)
        monkeypatch.undo()
        with pytest.raises(StoreError, match="format version 999"):
            Snapshot(path)

    def test_mismatched_graph_rejected(self, tmp_path):
        _, _, path = _write_paper_snapshot(tmp_path)
        other = paper_example_graph()
        vertices = sorted(map(str, other.vertices()))
        missing = next(
            (a, b)
            for a in vertices
            for b in vertices
            if a < b and not other.has_edge(a, b)
        )
        other.add_edge(*missing)
        snapshot = Snapshot(path)
        reason = snapshot.mismatch_reason(other)
        assert reason is not None
        with pytest.raises(SnapshotMismatchError):
            attach_engine(other, snapshot)

    def test_non_scalar_vertices_rejected_at_write(self, tmp_path):
        graph = LabeledGraph()
        graph.add_vertex(("tuple", "vertex"), label="A")
        with pytest.raises(StoreError, match="JSON scalars"):
            SnapshotWriter(tmp_path / "bad.bccsnap").write(graph)

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        graph = LabeledGraph()
        graph.add_vertex("ok", label="A")
        graph.add_vertex(("bad",), label="A")
        path = tmp_path / "atomic.bccsnap"
        with pytest.raises(StoreError):
            SnapshotWriter(path).write(graph)
        assert not path.exists()
        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


# ----------------------------------------------------------------------
# attach mechanics
# ----------------------------------------------------------------------
class TestAttach:
    def test_attach_freezes_nothing(self, tmp_path):
        _, _, path = _write_paper_snapshot(tmp_path)
        graph = paper_example_graph()
        assert not graph.has_frozen()
        engine = attach_engine(graph, Snapshot(path))
        assert graph.has_frozen()
        counters = engine.counters_snapshot()
        assert counters["csr_freezes"] == 0
        assert counters["prepare_calls"] == 1

    def test_mutation_after_attach_invalidates(self, tmp_path):
        _, _, path = _write_paper_snapshot(tmp_path)
        graph = paper_example_graph()
        engine = attach_engine(graph, Snapshot(path))
        query = Query(vertices=_query_pairs(graph)[0], method="lp-bcc")
        before = engine.search(query)
        victims = sorted(map(str, graph.vertices()))[:2]
        graph.add_vertex("brand-new", label=graph.label(victims[0]))
        graph.add_edge("brand-new", victims[0])
        after = engine.search(query)  # must not serve stale mapped arrays
        assert engine.counters_snapshot()["invalidations"] == 1
        assert after.status in ("ok", "empty")
        assert before.status in ("ok", "empty")

    def test_empty_graph_round_trips(self, tmp_path):
        graph = LabeledGraph()
        path = tmp_path / "empty-graph.bccsnap"
        SnapshotWriter(path).write(graph)
        with Snapshot(path) as snapshot:
            assert snapshot.matches(graph)
            assert list(snapshot.segment("offsets")) == [0]
            assert list(snapshot.segment("neighbors")) == []

    def test_write_is_atomic_replace(self, tmp_path):
        graph, _, path = _write_paper_snapshot(tmp_path)
        first = path.read_bytes()
        engine = BCCEngine(graph).prepare()
        persist_engine(engine, path)  # overwrite in place
        assert path.read_bytes() == first  # deterministic content
        assert not any(
            name.endswith(".tmp") for name in os.listdir(path.parent)
        )
