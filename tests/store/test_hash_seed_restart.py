"""A restarted sharded store attaches its shards under any ``PYTHONHASHSEED``.

Each shard snapshot is filed under its shard id and pins its subgraph's
vertex order.  A process restart draws a new hash seed, which reorders
sets of string vertex ids; the restarted directory must still number the
shards and order their subgraphs exactly as the process that persisted
them.  One subprocess builds and persists every shard under hash seed 0,
a second one over the same store root serves the same queries under hash
seed 1 and must attach every shard instead of rebuilding it.
"""

from __future__ import annotations

import json
from pathlib import Path

from tests.conftest import run_under_hash_seed

SCRIPT = r"""
import json
import sys
from repro import GraphDirectory, Query
from repro.datasets import generate_baidu_network
from repro.graph.labeled_graph import LabeledGraph
from repro.store import SnapshotStore

REGIONS = ("berlin", "osaka", "toronto", "warsaw")
graph = LabeledGraph()
queries = []
for index, region in enumerate(REGIONS):
    bundle = generate_baidu_network("tiny", seed=20 + index)
    for vertex in bundle.graph.vertices():
        graph.add_vertex(f"{region}/{vertex}", label=bundle.graph.label(vertex))
    for u, v in bundle.graph.edges():
        graph.add_edge(f"{region}/{u}", f"{region}/{v}")
    q_left, q_right = bundle.default_query()
    queries.append(Query("lp-bcc", (f"{region}/{q_left}", f"{region}/{q_right}")))
store = SnapshotStore(sys.argv[1])
directory = GraphDirectory(store=store)
engine = directory.add("regions", graph)
answers = []
for query in queries:
    response = engine.search(query)
    answers.append([response.status, response.reason, sorted(response.vertices)])
counters = engine.counters_snapshot()
print(json.dumps({
    "answers": answers,
    "attaches": counters["shard_attaches"],
    "built": counters["shard_engines_built"],
    "mismatches": store.counters_snapshot()["mismatches"],
}))
"""


def _serve(hash_seed: int, root: Path) -> dict:
    return json.loads(run_under_hash_seed(SCRIPT, hash_seed, str(root)))


def test_shards_persisted_under_one_hash_seed_attach_under_another(tmp_path):
    root = tmp_path / "store"
    first = _serve(0, root)
    assert first["built"] == 4 and first["attaches"] == 0
    assert all(status == "ok" for status, _, _ in first["answers"])
    second = _serve(1, root)
    assert second["answers"] == first["answers"]
    assert second["attaches"] == 4
    assert second["built"] == 0
    assert second["mismatches"] == 0
