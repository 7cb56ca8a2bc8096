"""The shipped invariant checkers; importing this package registers them.

Add a checker by creating a module here and importing it below — the
``@register_checker`` decorator does the rest.
"""

from repro.analysis.checkers import (  # noqa: F401  (registration imports)
    clock_hygiene,
    kernel_threads,
    lock_discipline,
    metrics_coverage,
    reason_exhaustiveness,
    snapshot_schema,
    wire_drift,
)

__all__ = [
    "clock_hygiene",
    "kernel_threads",
    "lock_discipline",
    "metrics_coverage",
    "reason_exhaustiveness",
    "snapshot_schema",
    "wire_drift",
]
