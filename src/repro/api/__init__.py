"""Public serving API: the prepared engine, typed configs and the registry.

This package is the library's front door for query serving:

>>> from repro.api import BCCEngine, Query, SearchConfig
>>> engine = BCCEngine(bundle.graph, SearchConfig(b=1)).prepare()
>>> response = engine.search(Query("lp-bcc", (q_left, q_right)))
>>> response.status, sorted(response.vertices)[:3]  # doctest: +SKIP

The engine prepares once (CSR freeze, cached label groups, lazily built
BCindex) and serves many queries.  Every search, a single one too, runs
on an engine.
"""

from repro.api.config import SearchConfig
from repro.api.engine import BACKENDS, ON_ERROR_POLICIES, BCCEngine
from repro.api.query import (
    STATUS_EMPTY,
    STATUS_ERROR,
    STATUS_OK,
    BatchQuery,
    Query,
    SearchResponse,
)
from repro.api.registry import (
    MethodSpec,
    get_method,
    method_names,
    register_method,
    registered_methods,
    unregister_method,
)

# Import for the registration side effect so the built-in methods are
# available as soon as the package is imported.
from repro.api import methods as _builtin_methods  # noqa: F401

__all__ = [
    "BACKENDS",
    "BCCEngine",
    "BatchQuery",
    "MethodSpec",
    "ON_ERROR_POLICIES",
    "Query",
    "STATUS_EMPTY",
    "STATUS_ERROR",
    "STATUS_OK",
    "SearchConfig",
    "SearchResponse",
    "get_method",
    "method_names",
    "register_method",
    "registered_methods",
    "unregister_method",
]
