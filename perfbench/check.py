"""The correctness gate: answers are checked against the paper, not timed.

Every ``ok`` answer is rebuilt as the subgraph its vertex set induces in the
graph it was served from, and must

* pass :func:`repro.core.bcc_model.validate_bcc` for its resolved
  ``(k1, k2, b)`` with the query pair inside it (Def. 4, Problem 1), and
* have a reported ``query_distance`` equal to Def. 5's
  ``max_{v in H} max_{q in Q} dist_H(v, q)``, recomputed here by a BFS that
  shares no code with the program.

Answers served twice (over HTTP, by worker processes, from the cache) must
equal their reference field for field.  All checks run outside the timed
regions.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.bcc_model import BCCParameters, validate_bcc

#: The fields two answers to the same query must agree on.
ANSWER_FIELDS = ("method", "status", "reason", "iterations", "query_distance", "vertices")


@dataclasses.dataclass(frozen=True)
class Answer:
    """The observable fields of one response, without the result object graph."""

    method: str
    query: tuple
    status: str
    reason: Optional[str]
    error: Optional[str]
    vertices: frozenset
    iterations: int
    query_distance: float
    parameters: Optional[BCCParameters] = None

    @classmethod
    def of(cls, response, parameters: Optional[BCCParameters] = None) -> "Answer":
        """``parameters`` defaults to the resolved ones an in-process result carries."""
        if parameters is None:
            parameters = getattr(response.result, "parameters", None)
        return cls(
            method=response.method,
            query=tuple(response.query),
            status=response.status,
            reason=response.reason,
            error=response.error,
            vertices=frozenset(response.vertices),
            iterations=response.iterations,
            query_distance=response.query_distance,
            parameters=parameters,
        )

    def signature(self) -> tuple:
        return tuple(getattr(self, name) for name in ANSWER_FIELDS)


def query_distance(adjacency: Dict[object, Iterable[object]], query: Sequence[object]) -> float:
    """Def. 5 over an adjacency map: ``inf`` when some vertex is unreachable."""
    worst = 0
    for source in query:
        if source not in adjacency:
            return math.inf
        distance = {source: 0}
        frontier = deque([source])
        while frontier:
            vertex = frontier.popleft()
            for neighbor in adjacency[vertex]:
                if neighbor not in distance:
                    distance[neighbor] = distance[vertex] + 1
                    frontier.append(neighbor)
        if len(distance) < len(adjacency):
            return math.inf
        worst = max(worst, max(distance.values()))
    return float(worst)


def answer_problems(graph, answer: Answer) -> List[str]:
    """Why ``answer`` is not a correct answer to its query on ``graph`` ([] if it is)."""
    if answer.status != "ok":
        return [] if answer.status == "empty" else [f"status {answer.status!r}: {answer.error}"]
    if answer.parameters is None:
        return ["ok answer carries no resolved (k1, k2, b)"]
    community = graph.induced_subgraph(answer.vertices)
    if community.num_vertices() != len(answer.vertices):
        return ["answer names vertices the graph does not have"]
    pair = list(answer.query)
    problems = validate_bcc(
        community,
        answer.parameters,
        query_vertices=pair,
        left_label=graph.label(pair[0]),
    )
    adjacency = {v: community.neighbors(v) for v in community.vertices()}
    expected = query_distance(adjacency, pair)
    if answer.query_distance != expected:
        problems.append(
            f"reported query distance {answer.query_distance} != recomputed {expected}"
        )
    return problems


def differences(answer: Answer, reference: Answer) -> List[str]:
    """The fields on which ``answer`` differs from ``reference``."""
    return [
        name
        for name in ANSWER_FIELDS
        if getattr(answer, name) != getattr(reference, name)
    ]


class Gate:
    """Collects every correctness problem of one run."""

    def __init__(self) -> None:
        self.problems: List[str] = []

    def check(self, graph, answer: Answer, what: str) -> None:
        for problem in answer_problems(graph, answer):
            self.problems.append(f"{what}: {problem}")

    def same(self, answer: Answer, reference: Answer, what: str) -> None:
        diff = differences(answer, reference)
        if diff:
            self.problems.append(f"{what}: differs from its reference in {diff}")

    @property
    def correct(self) -> bool:
        return not self.problems
