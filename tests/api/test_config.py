"""Unit tests for the typed, frozen SearchConfig."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import BACKENDS, SearchConfig
from repro.core.path_weight import PathWeightConfig
from repro.exceptions import QueryError


class TestDefaults:
    def test_defaults_match_legacy_signatures(self):
        config = SearchConfig()
        assert config.k1 is None and config.k2 is None and config.k is None
        assert config.b == 1
        assert config.bulk_deletion is True
        assert config.rho == 2
        assert BACKENDS == ("thread", "process")
        assert config.max_iterations is None
        assert config.eta == 400
        assert config.path_config == PathWeightConfig()
        assert config.core_parameters is None
        assert config.size_budget == 2000
        assert config.shrink_rounds == 50

    def test_no_transport_field(self):
        # search_many(backend=...) alone picks a batch's transport.
        with pytest.raises(TypeError):
            SearchConfig(backend="process")

    def test_frozen(self):
        config = SearchConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.b = 2

    def test_core_parameters_normalised_to_tuple(self):
        config = SearchConfig(core_parameters=[3, 2, 1])
        assert config.core_parameters == (3, 2, 1)


class TestReplace:
    def test_replace_returns_new_validated_config(self):
        base = SearchConfig(b=1)
        derived = base.replace(b=3, k=5)
        assert derived.b == 3 and derived.k == 5
        assert base.b == 1 and base.k is None

    def test_replace_revalidates(self):
        with pytest.raises(QueryError):
            SearchConfig().replace(b=-1)


class TestEffectiveK:
    def test_k_fallback(self):
        config = SearchConfig(k=4)
        assert config.effective_k1() == 4
        assert config.effective_k2() == 4

    def test_explicit_k1_k2_win(self):
        config = SearchConfig(k1=2, k2=3, k=7)
        assert config.effective_k1() == 2
        assert config.effective_k2() == 3

    def test_unset_everything_is_none(self):
        config = SearchConfig()
        assert config.effective_k1() is None
        assert config.effective_k2() is None


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k1": -1},
            {"k2": -2},
            {"k": -3},
            {"b": -1},
            {"rho": -1},
            {"max_iterations": -5},
            {"eta": -1},
            {"size_budget": -1},
            {"shrink_rounds": -1},
            {"core_parameters": (1, -1)},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(QueryError):
            SearchConfig(**kwargs)

    def test_zero_values_allowed_where_meaningful(self):
        # Zero budgets are legal degenerate settings the legacy entry points
        # accepted (eta=0 candidate = seed path; size_budget=0 skips the PSA
        # expansion).
        config = SearchConfig(
            k1=0, k2=0, b=0, max_iterations=0, shrink_rounds=0,
            rho=0, eta=0, size_budget=0,
        )
        assert config.b == 0 and config.max_iterations == 0
        assert config.size_budget == 0 and config.eta == 0


class TestDeadlineField:
    def test_deadline_defaults_to_none(self):
        assert SearchConfig().deadline_ms is None

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_non_positive_deadlines_rejected(self, bad):
        with pytest.raises(QueryError):
            SearchConfig(deadline_ms=bad)

    def test_positive_deadline_accepted(self):
        assert SearchConfig(deadline_ms=250.0).deadline_ms == 250.0

    def test_deadline_excluded_from_cache_key(self):
        # The deadline bounds the wait, not the answer, so configs that
        # differ only in deadline_ms must share a result-cache entry.
        base = SearchConfig(k1=4, k2=3)
        assert base.cache_key() == SearchConfig(
            k1=4, k2=3, deadline_ms=100.0
        ).cache_key()
        # ...while answer-shaping fields still split the key.
        assert base.cache_key() != SearchConfig(k1=5, k2=3).cache_key()
