"""Shard partitioning must not depend on ``PYTHONHASHSEED``.

A persisted shard snapshot is found again by its shard id and pins its
subgraph's vertex order.  With string vertex ids, set iteration order
changes with the hash seed, so shard ids numbered in set order, or a shard
subgraph built in set order, would differ between two processes serving
the same graph.  This test partitions the same string-id graph in two
subprocesses with different hash seeds and compares the shard of every
vertex and the vertex order of every shard subgraph.
"""

from __future__ import annotations

import json

from tests.conftest import run_under_hash_seed

SCRIPT = r"""
import json
from repro.datasets import generate_baidu_network
from repro.graph.labeled_graph import LabeledGraph
from repro.serving import ShardedBCCEngine

graph = LabeledGraph()
for index, region in enumerate(("berlin", "osaka", "toronto", "warsaw")):
    regional = generate_baidu_network("tiny", seed=20 + index).graph
    for vertex in regional.vertices():
        graph.add_vertex(f"{region}/{vertex}", label=regional.label(vertex))
    for u, v in regional.edges():
        graph.add_edge(f"{region}/{u}", f"{region}/{v}")
sharded = ShardedBCCEngine(graph)
shard_of = {vertex: sharded.shard_of(vertex) for vertex in sorted(graph.vertices())}
orders = [
    list(sharded.shard_engine(shard).graph.vertices())
    for shard in range(sharded.shard_count())
]
print(json.dumps([shard_of, orders]))
"""


def _partition(hash_seed: int) -> list:
    return json.loads(run_under_hash_seed(SCRIPT, hash_seed))


def test_shard_ids_and_subgraph_order_agree_across_hash_seeds():
    (first_ids, first_orders), (second_ids, second_orders) = _partition(0), _partition(1)
    assert len(first_orders) == 4
    assert first_ids == second_ids
    assert first_orders == second_orders
