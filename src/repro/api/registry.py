"""The search-method registry: one decorator instead of an if/elif chain.

Every search method is a :class:`MethodSpec` — a runner with the uniform
signature ``runner(engine, query, config, instrumentation) -> result`` plus
metadata (paper display name, kind, aliases).  Both :class:`repro.api.BCCEngine`
and the eval harness dispatch through :func:`get_method`, and the harness's
``METHOD_NAMES`` derives from :func:`method_names`, so adding a method to the
whole system is one ``@register_method`` decorator:

>>> @register_method("my-bcc", display="My-BCC", kind="bcc")
... def _run_my_bcc(engine, query, config, instrumentation):
...     ...

Lookup is case-insensitive over canonical names, display names and aliases.
The built-in methods live in :mod:`repro.api.methods` and are registered
lazily on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import UnknownMethodError

#: Method kinds: paper baselines, two-labeled BCC searches, multi-labeled.
KINDS = ("baseline", "bcc", "multilabel")


@dataclass(frozen=True)
class MethodSpec:
    """A registered search method: runner plus dispatch metadata.

    Attributes
    ----------
    name:
        Canonical kebab-case registry name (``"lp-bcc"``).
    display:
        The name used in the paper's figures (``"LP-BCC"``).
    kind:
        ``"baseline"``, ``"bcc"`` or ``"multilabel"``.
    runner:
        ``runner(engine, query, config, instrumentation)`` returning the
        method-native result object, or raising
        :class:`repro.exceptions.EmptyCommunityError` when no community
        exists.
    aliases:
        Extra lookup names (all lookups are case-insensitive anyway).
    needs_index:
        Whether the runner consumes the engine's lazily built BCindex.
    symmetric_k:
        Whether the harness's single symmetric ``k`` override (Fig. 8 sweeps)
        applies to this method; CTC opts out and always uses the maximum
        trussness, as in the paper's experiments.
    resolves_k_locally:
        Whether unset core parameters are resolved inside a search-time
        candidate graph rather than from the input graph's label groups
        (L2P-BCC); ``BCCEngine.explain`` reports them as deferred instead of
        computing graph-global defaults the search would never use.
    multilabel_method:
        Canonical name of the method that answers multi-label query tuples
        on this method's behalf in ``evaluate_multilabel`` (the paper runs
        every BCC variant through the mBCC framework); ``None`` means the
        method handles the tuple itself.
    description:
        One-line human-readable summary (shown by ``BCCEngine.explain``).
    """

    name: str
    display: str
    kind: str
    runner: Callable
    aliases: Tuple[str, ...] = ()
    needs_index: bool = False
    symmetric_k: bool = True
    resolves_k_locally: bool = False
    multilabel_method: Optional[str] = None
    description: str = ""

    def lookup_keys(self) -> Tuple[str, ...]:
        """Every lower-cased key this spec answers to."""
        keys = [self.name.lower(), self.display.lower()]
        keys.extend(alias.lower() for alias in self.aliases)
        return tuple(dict.fromkeys(keys))


# Canonical name -> spec, in registration order (drives METHOD_NAMES order).
_REGISTRY: Dict[str, MethodSpec] = {}
# Lower-cased lookup key -> canonical name.
_LOOKUP: Dict[str, str] = {}
_BUILTINS_LOADED = False


def register_method(
    name: str,
    *,
    display: Optional[str] = None,
    kind: str = "bcc",
    aliases: Sequence[str] = (),
    needs_index: bool = False,
    symmetric_k: bool = True,
    resolves_k_locally: bool = False,
    multilabel_method: Optional[str] = None,
    description: str = "",
) -> Callable[[Callable], Callable]:
    """Return a decorator registering a runner under ``name``.

    The decorated function is returned unchanged, so implementations remain
    plain callables that can be invoked (and tested) directly.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown method kind {kind!r}; known: {KINDS}")

    def decorator(func: Callable) -> Callable:
        spec = MethodSpec(
            name=name,
            display=display if display is not None else name,
            kind=kind,
            runner=func,
            aliases=tuple(aliases),
            needs_index=needs_index,
            symmetric_k=symmetric_k,
            resolves_k_locally=resolves_k_locally,
            multilabel_method=multilabel_method,
            description=description,
        )
        if spec.name in _REGISTRY:
            raise ValueError(f"method {spec.name!r} is already registered")
        for key in spec.lookup_keys():
            owner = _LOOKUP.get(key)
            if owner is not None and owner != spec.name:
                raise ValueError(
                    f"lookup key {key!r} already belongs to method {owner!r}"
                )
        _REGISTRY[spec.name] = spec
        for key in spec.lookup_keys():
            _LOOKUP[key] = spec.name
        return func

    return decorator


def unregister_method(name: str) -> None:
    """Remove a registered method (primarily for tests of custom methods).

    Accepts any name :func:`get_method` resolves — canonical, display or
    alias.
    """
    canonical = _LOOKUP.get(str(name).lower())
    spec = _REGISTRY.pop(canonical, None) if canonical is not None else None
    if spec is None:
        raise UnknownMethodError(name, known=method_names())
    for key, owner in list(_LOOKUP.items()):
        if owner == spec.name:
            del _LOOKUP[key]


def _ensure_builtins() -> None:
    """Import :mod:`repro.api.methods` once so the built-ins are registered.

    Normally a no-op — ``repro.api.__init__`` imports the builtins eagerly —
    but kept as a safety net for direct ``repro.api.registry`` consumers.
    The flag is set only after the import succeeds, so a failed import is
    re-raised on the next lookup instead of surfacing as UnknownMethodError.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        import repro.api.methods  # noqa: F401  (registration side effect)

        _BUILTINS_LOADED = True


def get_method(name: str) -> MethodSpec:
    """Resolve a method by canonical name, display name or alias.

    Raises :class:`UnknownMethodError` (a ``ValueError``) for unknown names.
    """
    _ensure_builtins()
    key = str(name).lower()
    canonical = _LOOKUP.get(key)
    if canonical is None:
        raise UnknownMethodError(name, known=method_names())
    return _REGISTRY[canonical]


def registered_methods(
    kinds: Optional[Iterable[str]] = None,
) -> List[MethodSpec]:
    """Return registered specs in registration order, optionally by kind."""
    _ensure_builtins()
    wanted = None if kinds is None else set(kinds)
    return [
        spec
        for spec in _REGISTRY.values()
        if wanted is None or spec.kind in wanted
    ]


def method_names(kinds: Optional[Iterable[str]] = None) -> List[str]:
    """Return display names (the paper's figure names) in registration order."""
    return [spec.display for spec in registered_methods(kinds)]
