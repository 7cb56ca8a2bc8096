"""Synthetic stand-in for the Harry Potter fiction network (Exp-8).

The paper's fiction graph is a 2-labeled character network: each character is
labeled by camp (justice or evil); same-camp edges are family/ally relations
and cross-camp edges are hostilities.  The case study queries
Q = {"Ron Weasley", "Draco Malfoy"} and expects a BCC made of Ron's extended
family/ally group (including Harry, Hermione, the Weasley family and
Dumbledore), Draco's group (including Lord Voldemort, Lucius Malfoy, Bellatrix
Lestrange, Crabbe and Goyle), with the main hero/villain figures providing
the cross-camp butterflies.

The generator hard-codes that character structure (65 vertices in the
original dataset; the core cast reproduced here drives the case study) and
adds a configurable number of minor characters per camp so the graph has the
same order of magnitude as the original.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.datasets.base import DatasetBundle, GroundTruthCommunity
from repro.graph.generators import RandomLike, _rng, ensure_butterfly
from repro.graph.labeled_graph import LabeledGraph

_JUSTICE_CORE = [
    "Harry Potter",
    "Ron Weasley",
    "Hermione Granger",
    "Ginny Weasley",
    "Fred Weasley",
    "George Weasley",
    "Bill Weasley",
    "Charlie Weasley",
    "Molly Weasley",
    "Arthur Weasley",
    "Albus Dumbledore",
    "Sirius Black",
    "Remus Lupin",
    "Neville Longbottom",
    "Luna Lovegood",
]

_EVIL_CORE = [
    "Draco Malfoy",
    "Lucius Malfoy",
    "Narcissa Malfoy",
    "Lord Voldemort",
    "Bellatrix Lestrange",
    "Vincent Crabbe",
    "Gregory Goyle",
    "Vincent Crabbe Sr.",
    "Severus Snape",
    "Peter Pettigrew",
    "Dolores Umbridge",
]


def generate_fiction_network(
    seed: RandomLike = 0, minor_characters_per_camp: int = 12
) -> DatasetBundle:
    """Generate the fiction-network stand-in used by the Exp-8 case study."""
    rng = _rng(seed)
    graph = LabeledGraph()

    for name in _JUSTICE_CORE:
        graph.add_vertex(name, label="justice")
    for name in _EVIL_CORE:
        graph.add_vertex(name, label="evil")

    # Justice camp: the Weasley family clique, the trio, and the Order.
    weasleys = [n for n in _JUSTICE_CORE if "Weasley" in n]
    for a, b in itertools.combinations(weasleys, 2):
        graph.add_edge(a, b)
    trio = ["Harry Potter", "Ron Weasley", "Hermione Granger"]
    for a, b in itertools.combinations(trio, 2):
        graph.add_edge(a, b)
    for member in ("Harry Potter", "Hermione Granger"):
        for weasley in weasleys:
            graph.add_edge(member, weasley)
    order = ["Albus Dumbledore", "Sirius Black", "Remus Lupin"]
    for a, b in itertools.combinations(order, 2):
        graph.add_edge(a, b)
    for mentor in order:
        for pupil in trio + ["Ginny Weasley", "Arthur Weasley", "Molly Weasley"]:
            graph.add_edge(mentor, pupil)
    for friend in ("Neville Longbottom", "Luna Lovegood"):
        for other in trio + ["Ginny Weasley"]:
            graph.add_edge(friend, other)

    # Evil camp: the Malfoy family, Voldemort's inner circle, Draco's cronies.
    malfoys = ["Draco Malfoy", "Lucius Malfoy", "Narcissa Malfoy"]
    for a, b in itertools.combinations(malfoys, 2):
        graph.add_edge(a, b)
    inner_circle = [
        "Lord Voldemort",
        "Bellatrix Lestrange",
        "Lucius Malfoy",
        "Severus Snape",
        "Peter Pettigrew",
    ]
    for a, b in itertools.combinations(inner_circle, 2):
        graph.add_edge(a, b)
    cronies = ["Vincent Crabbe", "Gregory Goyle", "Vincent Crabbe Sr."]
    for crony in cronies:
        graph.add_edge(crony, "Draco Malfoy")
        graph.add_edge(crony, "Lucius Malfoy")
    for a, b in itertools.combinations(cronies, 2):
        graph.add_edge(a, b)
    graph.add_edge("Dolores Umbridge", "Lucius Malfoy")
    graph.add_edge("Dolores Umbridge", "Draco Malfoy")
    graph.add_edge("Lord Voldemort", "Draco Malfoy")
    graph.add_edge("Narcissa Malfoy", "Bellatrix Lestrange")

    # Cross-camp hostilities: the hero/villain pairs form butterflies.
    ensure_butterfly(graph, ("Harry Potter", "Ron Weasley"), ("Draco Malfoy", "Lord Voldemort"))
    ensure_butterfly(graph, ("Harry Potter", "Hermione Granger"), ("Draco Malfoy", "Lucius Malfoy"))
    ensure_butterfly(
        graph, ("Harry Potter", "Ginny Weasley"), ("Lord Voldemort", "Bellatrix Lestrange")
    )
    hostilities = [
        ("Ron Weasley", "Vincent Crabbe"),
        ("Ron Weasley", "Gregory Goyle"),
        ("Hermione Granger", "Gregory Goyle"),
        ("Hermione Granger", "Vincent Crabbe"),
        ("Hermione Granger", "Bellatrix Lestrange"),
        ("Molly Weasley", "Bellatrix Lestrange"),
        ("Albus Dumbledore", "Lord Voldemort"),
        ("Albus Dumbledore", "Severus Snape"),
        ("Sirius Black", "Bellatrix Lestrange"),
        ("Sirius Black", "Peter Pettigrew"),
        ("Remus Lupin", "Peter Pettigrew"),
        ("Neville Longbottom", "Bellatrix Lestrange"),
        ("Arthur Weasley", "Lucius Malfoy"),
        ("Fred Weasley", "Dolores Umbridge"),
        ("George Weasley", "Dolores Umbridge"),
    ]
    for a, b in hostilities:
        graph.add_edge(a, b)

    # Minor characters: sparse attachments within each camp.
    for camp, core in (("justice", _JUSTICE_CORE), ("evil", _EVIL_CORE)):
        for index in range(minor_characters_per_camp):
            name = f"{camp}-minor-{index}"
            graph.add_vertex(name, label=camp)
            for anchor in rng.sample(core, 3):
                graph.add_edge(name, anchor)
            if rng.random() < 0.3:
                other_camp_core = _EVIL_CORE if camp == "justice" else _JUSTICE_CORE
                graph.add_edge(name, rng.choice(other_camp_core))

    expected = GroundTruthCommunity(
        members=set(_JUSTICE_CORE[:11]) | set(_EVIL_CORE[:8]),
        labels=("justice", "evil"),
        name="hero-villain-community",
    )
    metadata: Dict[str, object] = {
        "default_query": ("Ron Weasley", "Draco Malfoy"),
        "case_study": "Exp-8 / Figure 13",
    }
    return DatasetBundle(
        name="fiction",
        graph=graph,
        communities=[expected],
        metadata=metadata,
        seed=seed if isinstance(seed, int) else None,
    )
