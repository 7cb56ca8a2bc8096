"""Synthetic stand-in for the DBLP-Citation academic collaboration network (Exp-11).

The paper builds a collaboration graph from the Aminer DBLP-Citation-network
V12 dump: vertices are authors labeled by their dominant research field
(7 fields), edges are paper co-authorships, and cross-field edges are
interdisciplinary collaborations.  The case study runs a 2-labeled query
({"Tim Kraska", "Michael I. Jordan"} — Database x Machine Learning) and a
3-labeled query (adding "Ion Stoica" / Systems and Networking), expecting
dense field groups bridged by well-known interdisciplinary scholars.

The generator plants per-field research groups (dense co-authorship blocks),
a handful of named "star" researchers per field that collaborate across
groups within their field, and interdisciplinary project teams that wire
stars of different fields into butterflies — mirroring the ML4DB / DB4ML
collaborations highlighted in the paper.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.datasets.base import DatasetBundle, GroundTruthCommunity
from repro.graph.generators import RandomLike, _rng, ensure_butterfly
from repro.graph.labeled_graph import LabeledGraph

RESEARCH_FIELDS = [
    "Database",
    "Machine Learning",
    "Systems and Networking",
    "Theory",
    "Computer Vision",
    "Natural Language Processing",
    "Security",
]

# Named scholars used by the case study queries (labels follow the paper).
_NAMED_SCHOLARS: Dict[str, str] = {
    "Tim Kraska": "Database",
    "Michael J. Franklin": "Database",
    "Samuel Madden": "Database",
    "Michael Stonebraker": "Database",
    "Joseph M. Hellerstein": "Database",
    "Michael I. Jordan": "Machine Learning",
    "Pieter Abbeel": "Machine Learning",
    "Martin Wainwright": "Machine Learning",
    "Ion Stoica": "Systems and Networking",
    "Scott Shenker": "Systems and Networking",
    "Matei Zaharia": "Systems and Networking",
}


def generate_academic_network(
    seed: RandomLike = 0,
    groups_per_field: int = 3,
    group_size: int = 10,
) -> DatasetBundle:
    """Generate the academic collaboration network stand-in for Exp-11.

    Parameters
    ----------
    seed:
        Random seed.
    groups_per_field:
        Number of dense research groups per field.
    group_size:
        Authors per research group.
    """
    rng = _rng(seed)
    graph = LabeledGraph()

    # Named scholars.
    for scholar, field_name in _NAMED_SCHOLARS.items():
        graph.add_vertex(scholar, label=field_name)

    # Per-field research groups.
    field_groups: Dict[str, List[List[str]]] = {f: [] for f in RESEARCH_FIELDS}
    for field_name in RESEARCH_FIELDS:
        short = "".join(word[0] for word in field_name.split())
        for group_index in range(groups_per_field):
            members = [
                f"{short}-author-{group_index}-{i}" for i in range(group_size)
            ]
            for author in members:
                graph.add_vertex(author, label=field_name)
            for a, b in itertools.combinations(members, 2):
                if rng.random() < 0.5:
                    graph.add_edge(a, b)
            # Guarantee connectivity and a reasonable minimum degree.
            for i in range(len(members)):
                graph.add_edge(members[i], members[(i + 1) % len(members)])
                graph.add_edge(members[i], members[(i + 2) % len(members)])
            field_groups[field_name].append(members)

    # Stars collaborate broadly within their own field.
    stars_by_field: Dict[str, List[str]] = {f: [] for f in RESEARCH_FIELDS}
    for scholar, field_name in _NAMED_SCHOLARS.items():
        stars_by_field[field_name].append(scholar)
    for field_name, groups in field_groups.items():
        stars = stars_by_field[field_name]
        for star in stars:
            for group in groups:
                for author in rng.sample(group, max(3, group_size // 2)):
                    graph.add_edge(star, author)
        for a, b in itertools.combinations(stars, 2):
            graph.add_edge(a, b)

    # Interdisciplinary collaborations: the DB/ML, DB/Systems and ML/Systems
    # bridges of the case study (the AMPLab-style joint projects), plus random
    # cross-field project teams.  The star scholars of each pair of fields
    # collaborate as a dense biclique, so every field pair has a leader pair
    # with butterfly degree well above the b = 3 used in Exp-11.
    db_stars = ["Tim Kraska", "Michael J. Franklin", "Michael Stonebraker",
                "Joseph M. Hellerstein", "Samuel Madden"]
    ml_stars = ["Michael I. Jordan", "Pieter Abbeel", "Martin Wainwright"]
    sn_stars = ["Ion Stoica", "Scott Shenker", "Matei Zaharia"]
    for group_a, group_b in ((db_stars, ml_stars), (db_stars[1:4], sn_stars),
                             (ml_stars, sn_stars)):
        for author_a in group_a:
            for author_b in group_b:
                graph.add_edge(author_a, author_b)
    ensure_butterfly(
        graph, ("Tim Kraska", "Samuel Madden"), ("Michael I. Jordan", "Pieter Abbeel")
    )

    communities: List[GroundTruthCommunity] = [
        GroundTruthCommunity(
            members={
                "Tim Kraska",
                "Samuel Madden",
                "Michael J. Franklin",
                "Joseph M. Hellerstein",
                "Michael Stonebraker",
                "Michael I. Jordan",
                "Pieter Abbeel",
                "Martin Wainwright",
            },
            labels=("Database", "Machine Learning"),
            name="ml4db-community",
        ),
        GroundTruthCommunity(
            members={
                "Michael J. Franklin",
                "Michael Stonebraker",
                "Joseph M. Hellerstein",
                "Michael I. Jordan",
                "Pieter Abbeel",
                "Ion Stoica",
                "Scott Shenker",
                "Matei Zaharia",
            },
            labels=("Database", "Machine Learning", "Systems and Networking"),
            name="amplab-style-community",
        ),
    ]

    # Random interdisciplinary collaborations between ordinary authors.
    all_fields = list(field_groups)
    for _ in range(graph.num_edges() // 15):
        field_a, field_b = rng.sample(all_fields, 2)
        author_a = rng.choice(rng.choice(field_groups[field_a]))
        author_b = rng.choice(rng.choice(field_groups[field_b]))
        graph.add_edge(author_a, author_b)

    metadata: Dict[str, object] = {
        "default_query": ("Tim Kraska", "Michael I. Jordan"),
        "three_label_query": ("Michael J. Franklin", "Michael I. Jordan", "Ion Stoica"),
        "case_study": "Exp-11 / Figure 15",
        "fields": RESEARCH_FIELDS,
    }
    return DatasetBundle(
        name="academic",
        graph=graph,
        communities=communities,
        metadata=metadata,
        seed=seed if isinstance(seed, int) else None,
    )
