"""Built-in method registrations: the paper's five methods plus mBCC.

Each adapter binds a core implementation to the uniform registry signature
``(engine, query, config, instrumentation)``, translating
:class:`repro.api.config.SearchConfig` fields into the algorithm's native
parameters and threading the engine's prepared state into the call.  The
three BCC pair methods run on the CSR pipeline (:mod:`repro.core.pipeline`)
over the engine's frozen graph (:meth:`repro.api.BCCEngine.frozen_graph`),
and hand it the engine's counter hook so the snapshot's G0 memo lookups
land in that engine's ``g0_memo_hits`` / ``g0_memo_misses``.

Registration order is the paper's figure order — it defines
``repro.eval.harness.METHOD_NAMES``.
"""

from __future__ import annotations

from repro.api.registry import register_method
from repro.baselines.ctc import run_ctc
from repro.baselines.psa import run_psa
from repro.core import pipeline
from repro.core.multilabel import run_mbcc


@register_method(
    "psa",
    display="PSA",
    kind="baseline",
    description="progressive minimum k-core search (label-agnostic baseline)",
)
def _run_psa(engine, query, config, instrumentation):
    return run_psa(
        engine.graph,
        list(query.vertices),
        k=config.k,
        size_budget=config.size_budget,
        shrink_rounds=config.shrink_rounds,
        instrumentation=instrumentation,
    )


@register_method(
    "ctc",
    display="CTC",
    kind="baseline",
    symmetric_k=False,
    description="closest truss community search (label-agnostic baseline)",
)
def _run_ctc(engine, query, config, instrumentation):
    # config.k pins the trussness; unset means the maximum trussness
    # containing the query.  The harness's symmetric-k sweeps of Fig. 8
    # deliberately skip CTC (symmetric_k=False), as in the paper.
    return run_ctc(
        engine.graph,
        list(query.vertices),
        k=config.k,
        bulk_deletion=config.bulk_deletion,
        max_iterations=config.max_iterations,
        instrumentation=instrumentation,
    )


@register_method(
    "online-bcc",
    display="Online-BCC",
    kind="bcc",
    aliases=("online",),
    multilabel_method="mbcc",
    description="greedy 2-approximation search (Algorithm 1)",
)
def _run_online_bcc(engine, query, config, instrumentation):
    q_left, q_right = query.as_pair()
    return pipeline.online_bcc(
        engine.frozen_graph(split=True),
        engine.graph,
        q_left,
        q_right,
        k1=config.effective_k1(),
        k2=config.effective_k2(),
        b=config.b,
        bulk_deletion=config.bulk_deletion,
        max_iterations=config.max_iterations,
        instrumentation=instrumentation,
        count=engine._count,
    )


@register_method(
    "lp-bcc",
    display="LP-BCC",
    kind="bcc",
    aliases=("lp",),
    multilabel_method="mbcc",
    description="Online-BCC with fast distances and leader-pair maintenance "
    "(Algorithms 5-7)",
)
def _run_lp_bcc(engine, query, config, instrumentation):
    q_left, q_right = query.as_pair()
    return pipeline.lp_bcc(
        engine.frozen_graph(split=True),
        engine.graph,
        q_left,
        q_right,
        k1=config.effective_k1(),
        k2=config.effective_k2(),
        b=config.b,
        bulk_deletion=config.bulk_deletion,
        rho=config.rho,
        max_iterations=config.max_iterations,
        instrumentation=instrumentation,
        count=engine._count,
    )


@register_method(
    "l2p-bcc",
    display="L2P-BCC",
    kind="bcc",
    aliases=("l2p",),
    needs_index=True,
    resolves_k_locally=True,
    multilabel_method="mbcc",
    description="index-based local search (Algorithm 8, BCindex-backed)",
)
def _run_l2p_bcc(engine, query, config, instrumentation):
    q_left, q_right = query.as_pair()
    index = engine.ensure_index()
    return pipeline.l2p_bcc(
        engine.frozen_graph(split=True),
        engine.graph,
        q_left,
        q_right,
        k1=config.effective_k1(),
        k2=config.effective_k2(),
        b=config.b,
        index=index,
        eta=config.eta,
        path_config=config.path_config,
        rho=config.rho,
        max_iterations=config.max_iterations,
        instrumentation=instrumentation,
        count=engine._count,
    )


@register_method(
    "mbcc",
    display="mBCC",
    kind="multilabel",
    aliases=("multi-bcc",),
    description="multi-labeled BCC search over m label groups (Algorithm 9)",
)
def _run_mbcc(engine, query, config, instrumentation):
    core_parameters = (
        None if config.core_parameters is None else list(config.core_parameters)
    )
    return run_mbcc(
        engine.graph,
        list(query.vertices),
        core_parameters=core_parameters,
        b=config.b,
        bulk_deletion=config.bulk_deletion,
        max_iterations=config.max_iterations,
        instrumentation=instrumentation,
        groups=engine.group,
    )
