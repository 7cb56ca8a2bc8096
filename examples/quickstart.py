#!/usr/bin/env python
"""Quickstart: butterfly-core community search on the paper's running example.

This script rebuilds the IT-professional network of Figure 1 (three roles:
SE, UI, PM) and serves it through the :class:`repro.BCCEngine` — the
library's prepared, query-serving front door.  The engine freezes the graph
once, runs the three BCC search methods for the query pair (q_l, q_r) with
the parameters of Example 3 — (k1, k2, b) = (4, 3, 1) — and prints the
discovered community, which matches Figure 2 of the paper.  It then batches
the CTC and PSA baselines through ``search_many`` to show why label-agnostic
models miss the cross-group team.

Every search is a ``BCCEngine.search``; hold one engine for all your
queries, so preparation (CSR freeze, label groups, BCindex) amortizes.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import BCCEngine, Query, SearchConfig
from repro.eval import describe_community, f1_score
from repro.graph.generators import paper_example_graph


def show_community(title: str, graph, vertices) -> None:
    """Print a community grouped by label."""
    print(f"\n{title}")
    by_label = {}
    for vertex in sorted(vertices, key=str):
        by_label.setdefault(graph.label(vertex), []).append(vertex)
    for label, members in sorted(by_label.items()):
        print(f"  [{label}] {', '.join(members)}")


def main() -> None:
    graph = paper_example_graph()
    print(f"Input graph (Figure 1): {graph}")
    q_left, q_right = "ql", "qr"
    print(f"Query Q = {{{q_left} (SE), {q_right} (UI)}}, parameters k1=4, k2=3, b=1")

    # One engine, prepared once, serves every query below.
    engine = BCCEngine(graph, SearchConfig(k1=4, k2=3, b=1)).prepare()

    # `explain` describes dispatch and resolved parameters without searching.
    info = engine.explain(Query("lp-bcc", (q_left, q_right)))
    print(
        f"explain(lp-bcc): kind={info['method']['kind']}, "
        f"resolved k1={info['resolved']['k1']}, k2={info['resolved']['k2']}, "
        f"prepared={info['engine']['prepared']}"
    )

    expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}

    for title, method in (
        ("Online-BCC (Algorithm 1)", "online-bcc"),
        ("LP-BCC (Algorithm 1 + Algorithms 5-7)", "lp-bcc"),
        ("L2P-BCC (Algorithm 8)", "l2p-bcc"),
    ):
        response = engine.search(Query(method, (q_left, q_right)))
        show_community(f"{title}:", graph, response.vertices)
        report = describe_community(response.community)
        print(
            f"  structure: |V|={report.num_vertices}, diameter={report.diameter}, "
            f"butterflies={report.total_butterflies}, "
            f"F1 vs Figure 2 = {f1_score(response.vertices, expected):.2f}"
        )

    # Baselines ride the same front door — batched over the warm snapshot.
    # (They read only the config fields their algorithms define, so the
    # engine's k1/k2 don't leak into them.)
    ctc_response, psa_response = engine.search_many(
        [
            Query("ctc", (q_left, q_right)),
            Query("psa", (q_left, q_right)),
        ]
    )
    show_community(
        "CTC baseline (closest truss community):", graph, ctc_response.vertices
    )
    print(f"  F1 vs Figure 2 = {f1_score(ctc_response.vertices, expected):.2f}  "
          "(misses most members of both teams)")
    show_community(
        "PSA baseline (progressive minimum k-core):", graph, psa_response.vertices
    )
    print(f"  F1 vs Figure 2 = {f1_score(psa_response.vertices, expected):.2f}")

    counters = engine.counters_snapshot()
    print(
        f"\nEngine counters (prepared once, served "
        f"{counters['searches']} queries): {counters}"
    )


if __name__ == "__main__":
    main()
