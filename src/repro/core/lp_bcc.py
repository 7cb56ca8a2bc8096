"""LP-BCC: Online-BCC accelerated with the paper's fast strategies.

LP-BCC is the Online-BCC greedy framework (Algorithm 1) equipped with:

* **fast query-distance computation** (Algorithm 5) — after each deletion
  batch only the affected distances are recomputed
  (:class:`~repro.core.query_distance.QueryDistanceTracker`);
* **leader-pair identification and maintenance** (Algorithms 6 and 7) — the
  butterfly constraint is certified through a tracked leader pair whose
  degrees are updated locally per deletion batch, and the full butterfly
  counting of Algorithm 3 is re-run only when a tracked leader is lost
  (:class:`~repro.core.leader_pair.LeaderPairTracker`);
* **bulk deletion** — all vertices at the maximum query distance are removed
  per iteration (the setting used throughout Section 8).

The returned community is identical in spirit to Online-BCC (same greedy
framework and same candidate selection rule); the accelerations only change
how the intermediate quantities are computed.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Set

from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.butterfly import butterfly_degree_of, butterfly_degrees
from repro.core.find_g0 import find_g0
from repro.core.leader_pair import LeaderPairTracker, identify_leader_pair
from repro.core.maintenance import maintain_bcc
from repro.core.query_distance import QueryDistanceTracker
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_CANDIDATE,
    REASON_NO_COMMUNITY,
    REASON_NO_LEADER_PAIR,
    EmptyCommunityError,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex

#: Default leader search radius of Algorithm 6 (shared with SearchConfig).
DEFAULT_RHO = 2


def run_lp_bcc(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> BCCResult:
    """Object-graph reference implementation of method ``"lp-bcc"``.

    The engine serves the method on the CSR pipeline
    (:func:`repro.core.pipeline.lp_bcc`); tests compare the two.  Raises
    :class:`EmptyCommunityError` with a machine-readable ``reason`` when no
    community exists.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    parameters = BCCParameters.from_query(graph, q_left, q_right, k1=k1, k2=k2, b=b)

    g0 = find_g0(graph, q_left, q_right, parameters, instrumentation=inst)
    if g0 is None:
        raise EmptyCommunityError(
            f"no maximal ({parameters.k1}, {parameters.k2}, {parameters.b})-BCC "
            f"candidate contains the query pair",
            reason=REASON_NO_CANDIDATE,
        )

    community = g0.community.copy()
    original = g0.community
    query = [q_left, q_right]

    # Leader pair: identified once on G0 (Algorithm 6), then maintained
    # incrementally (Algorithm 7) by the tracker.
    left_leader, right_leader = identify_leader_pair(
        g0.left,
        g0.right,
        q_left,
        q_right,
        g0.butterfly_degrees,
        parameters.b,
        rho=rho,
    )
    # The tracker counts on this copy of G0's bipartite graph, which each
    # deletion batch leaves before the tracker hears of it.
    bipartite = g0.bipartite.copy()
    leader_tracker = LeaderPairTracker(
        lambda: (bipartite.left(), bipartite.right()),
        partial(butterfly_degree_of, bipartite),
        partial(butterfly_degrees, bipartite),
        q_left,
        q_right,
        parameters.b,
        instrumentation=inst,
    )
    leader_tracker.set_leaders(left_leader, right_leader)
    if not leader_tracker.revalidate():
        raise EmptyCommunityError(
            f"no leader pair with butterfly degree >= {parameters.b} exists in G0",
            reason=REASON_NO_LEADER_PAIR,
        )

    with inst.time_query_distance():
        distance_tracker = QueryDistanceTracker(community, query)

    best_vertices: Optional[Set[Vertex]] = None
    best_distance = math.inf
    best_leader_pair = leader_tracker.leader_pair()
    iterations = 0

    while True:
        with inst.time_query_distance():
            current_distance = distance_tracker.graph_query_distance()
        if current_distance < best_distance:
            best_distance = current_distance
            best_vertices = set(community.vertices())
            best_leader_pair = leader_tracker.leader_pair()
        with inst.time_query_distance():
            candidates, max_distance = distance_tracker.farthest_vertices()
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        to_delete = candidates if bulk_deletion else [min(candidates, key=repr)]

        outcome = maintain_bcc(
            community,
            to_delete,
            parameters,
            left_label,
            right_label,
            query_vertices=query,
            check_butterfly=False,
            instrumentation=inst,
        )
        iterations += 1
        # A failed step counts no deletions, as on the pipeline.
        inst.record_iteration(deleted=len(outcome.removed) if outcome.valid else 0)
        if not outcome.valid:
            break

        # Keep the auxiliary structures consistent with the shrunken graph.
        bipartite.remove_vertices(outcome.removed)
        leader_tracker.remove_vertices(outcome.removed)
        with inst.time_query_distance():
            distance_tracker.remove_vertices(outcome.removed)
        if not leader_tracker.revalidate():
            break

    if best_vertices is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)

    final_community = original.induced_subgraph(best_vertices)
    inst.add("leader_full_recounts", float(leader_tracker.full_recounts))
    inst.add("distance_partial_updates", float(distance_tracker.partial_updates))
    inst.add("distance_full_recomputations", float(distance_tracker.full_recomputations))
    return BCCResult.from_community(
        final_community,
        left_label,
        right_label,
        parameters,
        leader_pair=best_leader_pair,
        query_distance=best_distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )
