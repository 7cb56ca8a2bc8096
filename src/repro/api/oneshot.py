"""The one-shot delegation path shared by the legacy free functions.

Every legacy entry point (``online_bcc_search``, ``ctc_search``, ...) is the
same move: build a :class:`SearchConfig` from its keyword arguments, serve a
single :class:`Query` on a throwaway :class:`BCCEngine`, and hand back the
method-native result (``None`` when no community exists).  This helper keeps
that policy in one place.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.api.config import SearchConfig
from repro.api.engine import BCCEngine
from repro.api.query import Query
from repro.api.registry import get_method
from repro.core.bc_index import BCIndex
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Vertex


def one_shot_search(
    method: str,
    graph: LabeledGraph,
    vertices: Iterable[Vertex],
    config: SearchConfig,
    instrumentation: Optional[SearchInstrumentation] = None,
    index: Optional[BCIndex] = None,
):
    """Serve one query on a throwaway engine, returning the native result.

    The search's counters land on its own response (and so in the
    result's ``statistics``); a caller's ``instrumentation`` accumulates
    them across calls.

    Methods registered with ``missing_vertex_is_empty`` (the CTC/PSA
    baselines' historical contract) translate an unknown *query* vertex into
    ``None`` here; the engine itself always raises.  The query vertices are
    validated explicitly up front — a :class:`VertexNotFoundError` raised
    from deep inside a runner (a non-query vertex, i.e. an implementation
    bug) propagates instead of being silently swallowed as "no community".
    """
    spec = get_method(method)
    engine = BCCEngine(graph, config, index=index)
    query = Query(method=spec.name, vertices=tuple(vertices))
    if spec.missing_vertex_is_empty:
        try:
            engine.graph.require_vertices(query.vertices)
        except VertexNotFoundError:
            return None
    response = engine.search(query)
    if instrumentation is not None:
        instrumentation.merge(response.instrumentation)
    return response.result
