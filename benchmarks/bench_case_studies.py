"""Case studies (Exp-6 ... Exp-8, Exp-11): Figures 11, 12, 13 and 15.

For each case-study network the benchmark runs the paper's query with
LP-BCC (b = 3 for flight/trade/academic, as in Section 8.2) and the CTC
baseline, prints both communities side by side, and asserts the qualitative
differences the paper highlights (e.g. CTC missing the German cities /
Asian trade partners / the evil-camp leader).
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from benchmarks.conftest import search, write_result
from repro.eval.metrics import describe_community


def _membership_lines(title: str, graph, vertices) -> List[str]:
    lines = [title]
    by_label: Dict[object, List[str]] = {}
    for v in sorted(vertices, key=str):
        by_label.setdefault(graph.label(v), []).append(str(v))
    for label, members in sorted(by_label.items(), key=lambda kv: str(kv[0])):
        lines.append(f"  [{label}] ({len(members)}): {', '.join(members)}")
    return lines


@pytest.fixture(scope="module")
def case_study_results(case_study_datasets):
    results = {}

    flight = case_study_datasets["flight"]
    results["flight"] = {
        "bcc": search(flight.graph, "lp-bcc", "Toronto", "Frankfurt", b=3).result,
        "ctc": search(flight.graph, "ctc", "Toronto", "Frankfurt").result,
        "bundle": flight,
    }

    trade = case_study_datasets["trade"]
    results["trade"] = {
        "bcc": search(trade.graph, "lp-bcc", "United States", "China", b=3).result,
        "ctc": search(trade.graph, "ctc", "United States", "China").result,
        "bundle": trade,
    }

    fiction = case_study_datasets["fiction"]
    results["fiction"] = {
        "bcc": search(
            fiction.graph, "lp-bcc", "Ron Weasley", "Draco Malfoy", b=1
        ).result,
        "ctc": search(fiction.graph, "ctc", "Ron Weasley", "Draco Malfoy").result,
        "bundle": fiction,
    }

    academic = case_study_datasets["academic"]
    results["academic"] = {
        "bcc": search(
            academic.graph, "lp-bcc", "Tim Kraska", "Michael I. Jordan", b=3, k1=3, k2=3
        ).result,
        "mbcc": search(
            academic.graph,
            "mbcc",
            "Michael J. Franklin",
            "Michael I. Jordan",
            "Ion Stoica",
            core_parameters=(3, 3, 3),
            b=3,
        ).result,
        "bundle": academic,
    }

    lines: List[str] = []
    figure_names = {
        "flight": "Figure 11 (flight network, Q = {Toronto, Frankfurt})",
        "trade": "Figure 12 (trade network, Q = {United States, China})",
        "fiction": "Figure 13 (fiction network, Q = {Ron Weasley, Draco Malfoy})",
        "academic": "Figure 15 (academic network, 2- and 3-labeled queries)",
    }
    for name, payload in results.items():
        bundle = payload["bundle"]
        lines.append(figure_names[name])
        bcc = payload["bcc"]
        if bcc is not None:
            lines.extend(_membership_lines("  BCC community:", bundle.graph, bcc.vertices))
            report = describe_community(bcc.community)
            lines.append(
                f"  BCC structure: |V|={report.num_vertices}, diameter={report.diameter}, "
                f"butterflies={report.total_butterflies}, min intra-degrees={report.min_intra_degree}"
            )
        if payload.get("ctc") is not None:
            lines.extend(
                _membership_lines("  CTC community:", bundle.graph, payload["ctc"].vertices)
            )
        if payload.get("mbcc") is not None:
            lines.extend(
                _membership_lines(
                    "  3-labeled mBCC community:", bundle.graph, payload["mbcc"].vertices
                )
            )
        lines.append("")
    write_result("case_studies_figures_11_12_13_15", "\n".join(lines))
    return results


def test_fig11_flight_case_study(case_study_results, case_study_datasets, benchmark):
    flight = case_study_datasets["flight"]
    benchmark(search, flight.graph, "lp-bcc", "Toronto", "Frankfurt", b=3)
    payload = case_study_results["flight"]
    bcc, ctc = payload["bcc"], payload["ctc"]
    assert bcc is not None
    for hub in ("Toronto", "Vancouver", "Frankfurt", "Munich"):
        assert hub in bcc.vertices
    graph = flight.graph
    german_in_bcc = sum(1 for v in bcc.vertices if graph.label(v) == "Germany")
    german_in_ctc = sum(1 for v in ctc.vertices if graph.label(v) == "Germany")
    assert german_in_bcc > german_in_ctc  # CTC "fails to find the international airline community"


def test_fig12_trade_case_study(case_study_results, case_study_datasets, benchmark):
    trade = case_study_datasets["trade"]
    benchmark(search, trade.graph, "lp-bcc", "United States", "China", b=3)
    payload = case_study_results["trade"]
    bcc, ctc = payload["bcc"], payload["ctc"]
    assert bcc is not None
    graph = trade.graph
    asia_in_bcc = sum(1 for v in bcc.vertices if graph.label(v) == "Asia")
    asia_in_ctc = sum(1 for v in ctc.vertices if graph.label(v) == "Asia")
    assert asia_in_bcc > asia_in_ctc  # CTC "fails to find the other major trade partners in Asia"
    assert {"Japan", "Korea"} & bcc.vertices


def test_fig13_fiction_case_study(case_study_results, case_study_datasets, benchmark):
    fiction = case_study_datasets["fiction"]
    benchmark(search, fiction.graph, "lp-bcc", "Ron Weasley", "Draco Malfoy", b=1)
    payload = case_study_results["fiction"]
    bcc, ctc = payload["bcc"], payload["ctc"]
    assert bcc is not None
    assert "Lord Voldemort" in bcc.vertices  # CTC misses the evil camp's leader
    weasleys_in_bcc = sum(1 for v in bcc.vertices if "Weasley" in str(v))
    weasleys_in_ctc = sum(1 for v in ctc.vertices if "Weasley" in str(v))
    assert weasleys_in_bcc > weasleys_in_ctc  # CTC misses Ron's family


def test_fig15_academic_case_study(case_study_results, case_study_datasets, benchmark):
    academic = case_study_datasets["academic"]
    benchmark(
        search, academic.graph, "lp-bcc", "Tim Kraska", "Michael I. Jordan",
        k1=3, k2=3, b=3,
    )
    payload = case_study_results["academic"]
    bcc, mbcc = payload["bcc"], payload["mbcc"]
    assert bcc is not None
    labels = {academic.graph.label(v) for v in bcc.vertices}
    assert labels == {"Database", "Machine Learning"}
    assert mbcc is not None
    spanned = {academic.graph.label(v) for v in mbcc.vertices}
    assert spanned == {"Database", "Machine Learning", "Systems and Networking"}
    assert len(mbcc.interaction_edges) >= 2
