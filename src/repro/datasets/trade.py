"""Synthetic stand-in for the international trade network (Exp-7).

The paper's trade graph has countries/regions as vertices labeled by
continent; an edge joins two countries when one is a top-5 import/export
partner of the other (2019 data).  The case study queries
Q = {"United States", "China"} and expects a BCC made of a dense Asian trade
core, a dense North American trade core, and the two query countries acting
as the transcontinental leader pair.

The generator plants dense intra-continent trade blocks and concentrates
transcontinental edges on a few large economies per continent, with the
US/China pair given the heaviest cross connectivity (so they form the
butterfly leaders as in the paper's Figure 12).
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.datasets.base import DatasetBundle, GroundTruthCommunity
from repro.graph.generators import RandomLike, _rng, ensure_butterfly
from repro.graph.labeled_graph import LabeledGraph

_CONTINENTS: Dict[str, List[str]] = {
    "Asia": [
        "China",
        "Japan",
        "Korea",
        "India",
        "Singapore",
        "Malaysia",
        "Thailand",
        "Philippines",
        "Hong Kong",
        "Saudi Arabia",
        "United Arab Emirates",
        "Brunei",
        "Maldives",
    ],
    "North America": [
        "United States",
        "Mexico",
        "Canada",
        "Guatemala",
        "Costa Rica",
        "Nicaragua",
        "El Salvador",
        "Honduras",
    ],
    "Europe": [
        "Germany",
        "France",
        "United Kingdom",
        "Italy",
        "Netherlands",
        "Spain",
        "Poland",
    ],
    "South America": ["Brazil", "Argentina", "Chile", "Peru", "Colombia"],
    "Africa": ["South Africa", "Nigeria", "Egypt", "Kenya", "Morocco"],
    "Oceania": ["Australia", "New Zealand", "Fiji"],
}

# The large economies that concentrate transcontinental trade.
_TRADE_LEADERS: Dict[str, List[str]] = {
    "Asia": ["China", "Japan", "Korea", "India"],
    "North America": ["United States", "Mexico", "Canada"],
    "Europe": ["Germany", "France", "United Kingdom"],
    "South America": ["Brazil", "Argentina"],
    "Africa": ["South Africa", "Nigeria"],
    "Oceania": ["Australia", "New Zealand"],
}


def generate_trade_network(seed: RandomLike = 0) -> DatasetBundle:
    """Generate the trade-network stand-in used by the Exp-7 case study."""
    rng = _rng(seed)
    graph = LabeledGraph()

    for continent, countries in _CONTINENTS.items():
        for country in countries:
            graph.add_vertex(country, label=continent)
        # Dense intra-continent trade: leaders trade with everyone, the rest
        # trade with several partners.
        leaders = _TRADE_LEADERS[continent]
        for leader in leaders:
            for other in countries:
                if other != leader:
                    graph.add_edge(leader, other)
        for a, b in itertools.combinations(countries, 2):
            if rng.random() < 0.35:
                graph.add_edge(a, b)

    # Transcontinental trade between leader economies.
    continent_names = list(_CONTINENTS)
    for continent_a, continent_b in itertools.combinations(continent_names, 2):
        for leader_a in _TRADE_LEADERS[continent_a]:
            for leader_b in _TRADE_LEADERS[continent_b]:
                if rng.random() < 0.45:
                    graph.add_edge(leader_a, leader_b)

    # The planted butterfly structure of the case study: the US and China are
    # each other's largest partners and both trade with the other's top
    # partners, forming several butterflies across Asia / North America.
    ensure_butterfly(graph, ("China", "Japan"), ("United States", "Mexico"))
    ensure_butterfly(graph, ("China", "Korea"), ("United States", "Canada"))
    ensure_butterfly(graph, ("China", "India"), ("United States", "Mexico"))
    # Additional US/China ties to mid-sized partners on both sides.
    for country in ("Singapore", "Malaysia", "Thailand", "Philippines", "Hong Kong"):
        graph.add_edge("United States", country)
    for country in ("Guatemala", "Costa Rica", "Nicaragua", "El Salvador"):
        graph.add_edge("China", country)

    expected = GroundTruthCommunity(
        members=set(_CONTINENTS["Asia"]) | set(_CONTINENTS["North America"]),
        labels=("Asia", "North America"),
        name="transpacific-trade-community",
    )
    metadata: Dict[str, object] = {
        "default_query": ("United States", "China"),
        "case_study": "Exp-7 / Figure 12",
        "continents": list(_CONTINENTS),
    }
    return DatasetBundle(
        name="trade",
        graph=graph,
        communities=[expected],
        metadata=metadata,
        seed=seed if isinstance(seed, int) else None,
    )
