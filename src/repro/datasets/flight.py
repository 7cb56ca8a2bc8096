"""Synthetic stand-in for the OpenFlights global flight network (Exp-6).

The paper's case study queries Q = {"Toronto", "Frankfurt"} on a graph where
vertices are cities labeled by country and edges are airline routes
(domestic routes are homogeneous edges, international routes are cross
edges).  The expected BCC answer is a dense Canadian domestic core (6-core in
the paper), a dense German domestic core (5-core) and a butterfly of
transnational hub cities {Toronto, Vancouver, Frankfurt, Munich}.

The generator plants a hub-and-spoke domestic network per country (hubs are
densely interconnected, spokes attach to a few hubs) plus international
routes concentrated on the hubs, so the leader-pair/butterfly structure of
the case study is present by construction.  Real city names are used for the
two focus countries so the example scripts read like the paper's figures.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Sequence

from repro.datasets.base import DatasetBundle, GroundTruthCommunity
from repro.graph.generators import RandomLike, _rng
from repro.graph.labeled_graph import LabeledGraph

_CANADA_HUBS = ["Toronto", "Vancouver", "Montreal", "Calgary", "Ottawa", "Edmonton", "Winnipeg"]
_CANADA_SPOKES = ["Halifax", "Quebec City", "Victoria", "Saskatoon", "Regina", "St. Johns"]
_GERMANY_HUBS = ["Frankfurt", "Munich", "Duesseldorf", "Hamburg", "Stuttgart", "Berlin"]
_GERMANY_SPOKES = ["Cologne", "Leipzig", "Nuremberg", "Dresden", "Westerland"]

_OTHER_COUNTRIES = [
    "USA",
    "France",
    "UK",
    "Japan",
    "Brazil",
    "Australia",
    "India",
    "Spain",
]


def _add_country(
    graph: LabeledGraph,
    country: str,
    hubs: Sequence[str],
    spokes: Sequence[str],
    rng: random.Random,
    hub_degree_boost: int = 0,
) -> None:
    """Add one country's domestic network: a hub clique plus attached spokes."""
    for city in list(hubs) + list(spokes):
        graph.add_vertex(city, label=country)
    for a, b in itertools.combinations(hubs, 2):
        graph.add_edge(a, b)
    for spoke in spokes:
        # Every spoke connects to several hubs (regional airports serve hubs).
        count = min(len(hubs), 3 + hub_degree_boost)
        for hub in rng.sample(list(hubs), count):
            graph.add_edge(spoke, hub)
    # A few spoke-to-spoke regional routes.
    spokes = list(spokes)
    for i in range(len(spokes) - 1):
        if rng.random() < 0.4:
            graph.add_edge(spokes[i], spokes[i + 1])


def generate_flight_network(seed: RandomLike = 0) -> DatasetBundle:
    """Generate the flight-network stand-in used by the Exp-6 case study."""
    rng = _rng(seed)
    graph = LabeledGraph()

    _add_country(graph, "Canada", _CANADA_HUBS, _CANADA_SPOKES, rng, hub_degree_boost=2)
    _add_country(graph, "Germany", _GERMANY_HUBS, _GERMANY_SPOKES, rng, hub_degree_boost=1)

    # International routes between Canada and Germany: hub-to-hub heavy, a few
    # hub-to-secondary routes.  {Toronto, Vancouver} x {Frankfurt, Munich} is
    # the planted butterfly of the case study.
    transatlantic_pairs = [
        ("Toronto", "Frankfurt"),
        ("Toronto", "Munich"),
        ("Vancouver", "Frankfurt"),
        ("Vancouver", "Munich"),
        ("Montreal", "Frankfurt"),
        ("Montreal", "Munich"),
        ("Calgary", "Frankfurt"),
        ("Toronto", "Duesseldorf"),
        ("Vancouver", "Duesseldorf"),
        ("Ottawa", "Frankfurt"),
    ]
    for a, b in transatlantic_pairs:
        graph.add_edge(a, b)

    # Other countries: small hub networks connected to the international hubs.
    for country in _OTHER_COUNTRIES:
        hubs = [f"{country} Hub {i}" for i in range(3)]
        spokes = [f"{country} City {i}" for i in range(4)]
        _add_country(graph, country, hubs, spokes, rng)
        # International routes to both focus countries and to other countries.
        graph.add_edge(hubs[0], "Toronto")
        graph.add_edge(hubs[0], "Frankfurt")
        if rng.random() < 0.5:
            graph.add_edge(hubs[1], "Munich")
        if rng.random() < 0.5:
            graph.add_edge(hubs[1], "Vancouver")
    # Routes between the other countries themselves.
    for country_a, country_b in itertools.combinations(_OTHER_COUNTRIES, 2):
        if rng.random() < 0.4:
            graph.add_edge(f"{country_a} Hub 0", f"{country_b} Hub 0")

    expected = GroundTruthCommunity(
        members=set(_CANADA_HUBS) | set(_GERMANY_HUBS),
        labels=("Canada", "Germany"),
        name="transatlantic-hub-community",
    )
    metadata: Dict[str, object] = {
        "default_query": ("Toronto", "Frankfurt"),
        "expected_butterfly": ("Toronto", "Vancouver", "Frankfurt", "Munich"),
        "case_study": "Exp-6 / Figure 11",
    }
    return DatasetBundle(
        name="flight",
        graph=graph,
        communities=[expected],
        metadata=metadata,
        seed=seed if isinstance(seed, int) else None,
    )
