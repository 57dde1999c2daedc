"""Tests for parameter records and canonicalization."""

import pytest

from gammaconv.errors import DomainError
from gammaconv.model import (
    ConvolutionSpec,
    EvalResult,
    GammaComponent,
    MixtureExpSpec,
    canonicalize,
    validate_mixture,
)


class TestGammaComponent:
    def test_fields(self):
        c = GammaComponent(2.0, 0.5)
        assert c.shape == 2.0
        assert c.scale == 0.5

    @pytest.mark.parametrize("shape", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_shape(self, shape):
        with pytest.raises(DomainError):
            GammaComponent(shape, 1.0)

    @pytest.mark.parametrize("scale", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_scale(self, scale):
        with pytest.raises(DomainError):
            GammaComponent(1.0, scale)

    def test_frozen_and_hashable(self):
        c = GammaComponent(1.0, 2.0)
        with pytest.raises(Exception):
            c.shape = 3.0
        assert hash(c) == hash(GammaComponent(1.0, 2.0))


class TestConvolutionSpec:
    def test_of_and_properties(self):
        spec = ConvolutionSpec.of((1, 2), (3, 4))
        assert len(spec) == 2
        assert spec.shapes.tolist() == [1.0, 3.0]
        assert spec.scales.tolist() == [2.0, 4.0]
        assert spec.total_shape == 4.0

    def test_tuple_coercion(self):
        spec = ConvolutionSpec(((1.0, 2.0), (3.0, 4.0)))
        assert all(isinstance(c, GammaComponent) for c in spec.components)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ConvolutionSpec(())


class TestCanonicalize:
    def test_sorts_by_scale(self):
        spec = ConvolutionSpec.of((1, 5), (2, 3), (3, 4))
        canon = canonicalize(spec)
        assert canon.scales.tolist() == [3.0, 4.0, 5.0]
        assert canon.shapes.tolist() == [2.0, 3.0, 1.0]

    def test_merges_equal_scales(self):
        spec = ConvolutionSpec.of((1, 2), (3, 2), (0.5, 7))
        canon = canonicalize(spec)
        assert len(canon) == 2
        assert canon.components[0] == GammaComponent(4.0, 2.0)

    def test_merges_within_rtol(self):
        b = 3.0
        spec = ConvolutionSpec.of((1, b), (1, b * (1 + 1e-13)))
        assert len(canonicalize(spec)) == 1

    def test_keeps_distinct_scales(self):
        spec = ConvolutionSpec.of((1, 3.0), (1, 3.0001))
        assert len(canonicalize(spec)) == 2

    def test_idempotent(self):
        spec = ConvolutionSpec.of((1, 5), (2, 3), (3, 3), (4, 1))
        once = canonicalize(spec)
        assert canonicalize(once) == once

    def test_canonical_spec_returned_as_is(self):
        # A result is marked, so it comes back without a cache lookup.  The
        # mark is not a field: an equal spec built afresh compares and
        # hashes equal, and is canonicalized through the cache.
        once = canonicalize(ConvolutionSpec.of((1, 5), (2, 3)))
        assert canonicalize(once) is once
        fresh = ConvolutionSpec(once.components)
        assert fresh == once and hash(fresh) == hash(once) and canonicalize(fresh) == once

    def test_memoized_same_object(self):
        spec = ConvolutionSpec.of((1.5, 2.5), (0.7, 0.9))
        assert canonicalize(spec) is canonicalize(
            ConvolutionSpec.of((1.5, 2.5), (0.7, 0.9))
        )

    def test_preserves_total_shape(self):
        spec = ConvolutionSpec.of((1, 2), (3, 2), (5, 8), (0.25, 8))
        assert canonicalize(spec).total_shape == spec.total_shape


class TestMixtureExpSpec:
    def test_basic(self):
        m = MixtureExpSpec((0.4, 0.6), (2.0, 5.0))
        assert m.size == 2


class TestValidateMixture:
    def test_passthrough(self):
        m = MixtureExpSpec((0.4, 0.6), (2.0, 5.0))
        v = validate_mixture(m)
        assert v.weights == (0.4, 0.6)
        assert v.scales == (2.0, 5.0)

    def test_renormalizes_tiny_drift(self):
        m = MixtureExpSpec((0.4, 0.6 + 5e-10), (2.0, 5.0))
        v = validate_mixture(m)
        assert abs(sum(v.weights) - 1.0) < 1e-15

    def test_drops_zero_weight(self):
        v = validate_mixture(MixtureExpSpec((0.0, 1.0), (2.0, 5.0)))
        assert v.size == 1
        assert v.scales == (5.0,)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            validate_mixture(MixtureExpSpec((1.0,), (2.0, 5.0)))

    def test_negative_weight(self):
        with pytest.raises(DomainError):
            validate_mixture(MixtureExpSpec((-0.1, 1.1), (2.0, 5.0)))

    def test_bad_sum(self):
        with pytest.raises(DomainError):
            validate_mixture(MixtureExpSpec((0.4, 0.4), (2.0, 5.0)))

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            validate_mixture(MixtureExpSpec((0.5, 0.5), (2.0, 0.0)))

    def test_empty(self):
        with pytest.raises(DomainError):
            validate_mixture(MixtureExpSpec((), ()))

    def test_memoized(self):
        m = MixtureExpSpec((0.3, 0.7), (1.0, 2.0))
        assert validate_mixture(m) is validate_mixture(
            MixtureExpSpec((0.3, 0.7), (1.0, 2.0))
        )


class TestEvalResult:
    def test_fields_and_default(self):
        r = EvalResult(value=0.5, terms_used=10)
        assert r.value == 0.5
        assert r.terms_used == 10
        assert r.tail_bound is None
        assert EvalResult(0.5, 10, 1e-12).tail_bound == 1e-12
