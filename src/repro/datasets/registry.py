"""Dataset registry: look up every evaluation network by its paper name.

The experiment harness and the benchmark suite iterate over "the seven
networks of Table 3" and "the case-study networks"; this registry maps the
paper's dataset names to the corresponding synthetic generator with sensible
default arguments, so a benchmark can simply do::

    bundle = load_dataset("dblp", seed=7)
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.datasets.academic import generate_academic_network
from repro.datasets.baidu import generate_baidu_network
from repro.datasets.base import DatasetBundle
from repro.datasets.fiction import generate_fiction_network
from repro.datasets.flight import generate_flight_network
from repro.datasets.snap_like import generate_snap_like
from repro.datasets.trade import generate_trade_network
from repro.exceptions import DatasetError

GeneratorFn = Callable[..., DatasetBundle]

# The seven evaluation networks of Table 3 (Exp-1 .. Exp-5).
EVALUATION_NETWORKS: List[str] = [
    "baidu-1",
    "baidu-2",
    "amazon",
    "dblp",
    "youtube",
    "livejournal",
    "orkut",
]

# The multi-label evaluation networks of Exp-10.
MULTILABEL_NETWORKS: List[str] = [
    "baidu-1",
    "baidu-2",
    "dblp-m",
    "livejournal-m",
    "orkut-m",
]

# The four case-study networks (Exp-6 .. Exp-8, Exp-11).
CASE_STUDY_NETWORKS: List[str] = ["flight", "trade", "fiction", "academic"]


def _registry() -> Dict[str, GeneratorFn]:
    registry: Dict[str, GeneratorFn] = {
        "baidu-1": lambda seed=0, **kw: generate_baidu_network("baidu-1", seed=seed, **kw),
        "baidu-2": lambda seed=0, **kw: generate_baidu_network("baidu-2", seed=seed, **kw),
        "baidu-tiny": lambda seed=0, **kw: generate_baidu_network("tiny", seed=seed, **kw),
        "flight": lambda seed=0, **kw: generate_flight_network(seed=seed, **kw),
        "trade": lambda seed=0, **kw: generate_trade_network(seed=seed, **kw),
        "fiction": lambda seed=0, **kw: generate_fiction_network(seed=seed, **kw),
        "academic": lambda seed=0, **kw: generate_academic_network(seed=seed, **kw),
    }
    for snap_name in ("amazon", "dblp", "youtube", "livejournal", "orkut", "tiny"):
        registry[snap_name] = (
            lambda seed=0, _n=snap_name, **kw: generate_snap_like(_n, seed=seed, **kw)
        )
        registry[f"{snap_name}-m"] = (
            lambda seed=0, _n=snap_name, **kw: generate_snap_like(
                _n, seed=seed, num_labels=kw.pop("num_labels", 6), **kw
            )
        )
    return registry


_REGISTRY = _registry()


def dataset_names() -> List[str]:
    """Return every registered dataset name."""
    return sorted(_REGISTRY)


def load_dataset(name: str, seed: int = 0, **kwargs) -> DatasetBundle:
    """Generate the dataset registered under ``name``.

    Parameters
    ----------
    name:
        A paper dataset name (see :data:`EVALUATION_NETWORKS`,
        :data:`MULTILABEL_NETWORKS`, :data:`CASE_STUDY_NETWORKS`) or any other
        registered preset (e.g. ``"tiny"`` / ``"baidu-tiny"`` for tests).
    seed:
        Random seed forwarded to the generator.
    kwargs:
        Extra generator-specific arguments (e.g. ``num_labels`` for the
        SNAP-like generators).
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise DatasetError(f"unknown dataset {name!r}; known: {dataset_names()}")
    return _REGISTRY[key](seed=seed, **kwargs)
