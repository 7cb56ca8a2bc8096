"""Answers must not depend on ``PYTHONHASHSEED``.

String vertex ids hash differently in every interpreter, so any tie-break
that follows set iteration order makes two processes — e.g. a spawned
worker and its parent — disagree on the same query.  This test serves the
same string-id queries in two subprocesses with different hash seeds and
compares every response field, the leader pair and the Table-4 counts.
"""

from __future__ import annotations

import json

from tests.conftest import run_under_hash_seed

SCRIPT = r"""
import json
from repro.api import BCCEngine, Query, SearchConfig
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.labeled_graph import LabeledGraph

bundle = load_dataset("dblp", seed=2021, communities=4, community_size=24)
pairs = generate_query_pairs(bundle, QuerySpec(count=10), seed=5)
graph = bundle.graph
relabeled = LabeledGraph()
for v in sorted(graph.vertices()):
    relabeled.add_vertex(f"v{v}", label=graph.label(v))
for u, v in sorted(graph.edges()):
    relabeled.add_edge(f"v{u}", f"v{v}")
engine = BCCEngine(relabeled, SearchConfig(b=1, max_iterations=60))
rows = []
for ql, qr in pairs:
    for method, bulk in (
        ("lp-bcc", True), ("online-bcc", True), ("online-bcc", False), ("l2p-bcc", True)
    ):
        config = SearchConfig(b=1, max_iterations=60, bulk_deletion=bulk)
        response = engine.search(
            Query(method, (f"v{ql}", f"v{qr}")), config=config, use_cache=False
        )
        counts = {
            key: value
            for key, value in response.instrumentation.as_dict().items()
            if not key.endswith("_seconds")
        }
        rows.append([
            method, bulk, response.status, response.reason,
            sorted(response.vertices), response.iterations,
            str(response.query_distance),
            getattr(response.result, "leader_pair", None), counts,
        ])
print(json.dumps(rows))
"""


def _serve(hash_seed: int) -> list:
    return json.loads(run_under_hash_seed(SCRIPT, hash_seed))


def test_string_id_answers_agree_across_hash_seeds():
    first, second = _serve(1), _serve(2)
    assert len(first) == len(second) == 40
    assert any(row[2] == "ok" for row in first)
    for a, b in zip(first, second):
        assert a == b
