"""The correctness gate accepts real answers and rejects corrupted ones."""

import dataclasses

import pytest

from repro.api import BCCEngine, Query

from perfbench import inputs
from perfbench.check import Answer, Gate, answer_problems, query_distance


@pytest.fixture(scope="module")
def served():
    bundle = inputs.load_bundle()
    engine = BCCEngine(bundle.graph, inputs.search_config()).prepare()
    pair = inputs.stratified_pairs(bundle, 1, seed=5)[0]
    answer = Answer.of(engine.search(Query("lp-bcc", pair)))
    assert answer.status == "ok"
    return bundle.graph, answer


def test_a_real_answer_passes(served):
    graph, answer = served
    assert answer_problems(graph, answer) == []


def test_a_wrong_query_distance_is_rejected(served):
    graph, answer = served
    corrupted = dataclasses.replace(answer, query_distance=answer.query_distance + 1)
    assert any("query distance" in problem for problem in answer_problems(graph, corrupted))


def test_a_missing_query_vertex_is_rejected(served):
    graph, answer = served
    corrupted = dataclasses.replace(answer, vertices=answer.vertices - {answer.query[0]})
    assert answer_problems(graph, corrupted)


def test_a_stray_vertex_is_rejected(served):
    graph, answer = served
    stray = next(v for v in graph.vertices() if v not in answer.vertices and not (graph.neighbors(v) & answer.vertices))
    corrupted = dataclasses.replace(answer, vertices=answer.vertices | {stray})
    assert answer_problems(graph, corrupted)


def test_the_gate_fails_the_run_on_a_difference(served):
    graph, answer = served
    gate = Gate()
    gate.check(graph, answer, "real")
    gate.same(answer, answer, "same")
    assert gate.correct
    gate.same(dataclasses.replace(answer, iterations=answer.iterations + 1), answer, "replayed")
    assert not gate.correct
    assert "iterations" in gate.problems[0]


def test_query_distance_is_definition_5():
    path = {1: [2], 2: [1, 3], 3: [2, 4], 4: [3]}
    assert query_distance(path, [2, 3]) == 2.0
    assert query_distance({**path, 5: []}, [2, 3]) == float("inf")
