"""Seeded inputs shared by every workload.

All workloads serve the ROADMAP baseline graph (``dblp``, seed 2021, 12
communities of 32: 396 vertices, 4,289 edges, one component) under
``SearchConfig(b=1, max_iterations=60)``.  Only the query pairs, the swap
workload's edge flips and its read burst depend on ``--seed``.

Query pairs come from :func:`repro.eval.queries.generate_query_pairs` at the
paper's defaults (degree rank 80%, inter-distance 1), drawn *per
ground-truth community*: a pair's search cost depends mostly on which
community it sits in (medians range from ~8 to ~30 ms), so drawing the same
number of pairs from every community keeps a run's median from swinging
with the seed's luck.  Pairs are interleaved community by community, so any
prefix of the list is balanced too.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Sequence, Set, Tuple

from repro.api.config import SearchConfig
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs

DATASET = "dblp"
DATASET_SEED = 2021
DATASET_SHAPE = {"communities": 12, "community_size": 32}

#: The BCC methods served as traffic (the CTC/PSA comparators are not).
METHODS = ("online-bcc", "lp-bcc", "l2p-bcc")

Pair = Tuple[object, object]


def search_config(**changes: object) -> SearchConfig:
    """The shared search configuration (plus any per-workload changes)."""
    return SearchConfig(b=1, max_iterations=60, **changes)


def load_bundle():
    """The baseline dataset bundle (identical for every seed)."""
    return load_dataset(DATASET, seed=DATASET_SEED, **DATASET_SHAPE)


def community_pairs(bundle, per_community: int, seed: int) -> List[List[Pair]]:
    """``per_community`` query pairs drawn from each ground-truth community.

    Each community's draw has its own seed derived from ``seed``, so two
    seeds share no draw.
    """
    spec = QuerySpec(degree_rank=0.8, inter_distance=1, count=per_community)
    return [
        generate_query_pairs(
            dataclasses.replace(bundle, communities=[community]),
            spec,
            seed=seed * 7919 + index,
        )
        for index, community in enumerate(bundle.cross_group_communities())
    ]


def stratified_pairs(bundle, per_community: int, seed: int) -> List[Pair]:
    """:func:`community_pairs`, interleaved round-robin over communities."""
    per = community_pairs(bundle, per_community, seed)
    return [
        drawn[position]
        for position in range(per_community)
        for drawn in per
        if position < len(drawn)
    ]


def flipped_versions(
    graph, protected: Set[object], count: int, flips: int, seed: int
) -> List[object]:
    """``count`` graph versions, each the base graph with ``flips`` edges toggled.

    Every toggled pair avoids the ``protected`` (query) vertices; half the
    flips delete an existing edge and half insert a missing one, so each
    version keeps the base graph's size.  Consecutive versions differ, so
    publishing them in turn always changes the served graph.
    """
    rng = random.Random(seed)
    free = sorted((v for v in graph.vertices() if v not in protected), key=repr)
    existing = sorted(
        (
            (u, v)
            for u, v in graph.edges()
            if u not in protected and v not in protected
        ),
        key=repr,
    )
    versions = []
    for _ in range(count):
        version = graph.copy()
        for u, v in rng.sample(existing, flips // 2):
            version.remove_edge(u, v)
        added = 0
        while added < flips - flips // 2:
            u, v = rng.sample(free, 2)
            if not version.has_edge(u, v) and not graph.has_edge(u, v):
                version.add_edge(u, v)
                added += 1
        versions.append(version)
    return versions


def read_burst(universe: Sequence[object], repeats: int, seed: int, s: float = 1.1) -> list:
    """Every query of ``universe`` once plus ``repeats`` Zipf(``s``) draws, shuffled.

    The popularity ranking is a seeded shuffle of the universe.  Reading
    every query once fixes the number of distinct reads (the cache misses a
    fresh version takes) for every seed; the Zipf draws are the repeats.
    """
    rng = random.Random(seed)
    ranked = list(universe)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** s for rank in range(len(ranked))]
    burst = list(universe) + rng.choices(ranked, weights=weights, k=repeats)
    rng.shuffle(burst)
    return burst
