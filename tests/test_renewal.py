"""Tests for the renewal-count pmf under mixture-of-exponential holding times."""

import itertools
import math
import random
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from gammaconv import bench, mathai, methods, moschopoulos
from gammaconv.errors import BudgetError, DomainError
from gammaconv.model import ConvolutionSpec, MixtureExpSpec, canonicalize, validate_mixture
from gammaconv.renewal import (
    RENEWAL_METHODS,
    RenewalQuery,
    _STEP_BLOCK,
    _block_steps,
    _log_f1_family,
    _log_pmf_floor,
    _poisson_cut,
    h_diff,
    pmf,
    pmf_general,
    pmf_normalization,
    pmf_raw_s2,
    pmf_s2,
    pmf_vector,
)
from gammaconv.specfun import DEFAULT_CONTROL, SeriesControl, log_factorials

from conftest import rel_err

MIX = MixtureExpSpec((0.4, 0.6), (2.0, 5.0))
MIX_CLOSE = MixtureExpSpec((0.25, 0.75), (27.0, 32.0))
MIX3 = MixtureExpSpec((0.1, 0.2, 0.7), (36.0, 42.0, 51.0))


def _walk_steps(mix: MixtureExpSpec, t: float, n_max: int) -> int:
    """The Poisson cut of `pmf_vector`'s walk at the default control."""
    mix = validate_mixture(mix)
    alpha, rates = np.array(mix.weights), 1.0 / np.array(mix.scales)
    log_floor = max(_log_pmf_floor(alpha, rates, t, n_max), math.log(np.finfo(float).tiny))
    return _poisson_cut(
        float(rates.max()) * t, math.log(DEFAULT_CONTROL.rel_tol) + log_floor,
        DEFAULT_CONTROL.max_terms,
    )


def _per_step_pmf_vector(mix: MixtureExpSpec, t: float, n_max: int, dtype=float) -> np.ndarray:
    """`pmf_vector` one uniformization step a loop iteration, in `dtype`
    (the Poisson masses stay doubles): the reference for its blocks."""
    mix = validate_mixture(mix)  # the weights as pmf_vector takes them
    poisson = methods.poisson_masses(
        float(max(1.0 / b for b in mix.scales)) * t, _walk_steps(mix, t, n_max) + 1
    ).astype(dtype)
    alpha = np.array(mix.weights, dtype=dtype)
    rates = 1.0 / np.array(mix.scales, dtype=dtype)
    jump = rates / rates.max()
    stay = 1.0 - jump
    state = np.zeros((n_max + 1, alpha.shape[0]), dtype=dtype)
    state[0] = alpha
    acc = poisson[0] * state
    for weight in poisson[1:]:
        ended = state[:-1] @ jump
        state *= stay
        state[1:] += np.multiply.outer(ended, alpha)
        acc += weight * state
    return np.minimum(acc.sum(axis=1), 1.0)


def _worst_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """The largest relative error where `want` is at least 1e-300."""
    kept = want >= 1e-300
    return float(np.max(np.abs(got[kept] - want[kept]) / want[kept]))


class TestRenewalQuery:
    def test_valid(self):
        q = RenewalQuery(10.0, 3)
        assert q.t == 10.0 and q.n == 3

    @pytest.mark.parametrize("t", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_t(self, t):
        with pytest.raises(DomainError):
            RenewalQuery(t, 1)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            RenewalQuery(1.0, -1)


class TestHDiff:
    def test_zero_shapes_give_survival(self):
        # a1 = a2 = 0: difference collapses to the survival of Exp(b1).
        assert rel_err(h_diff(3.0, 0, 2.0, 0, 7.0), math.exp(-1.5)) < 1e-14

    def test_equal_scales_poisson_mass(self):
        # Equal scales: H(y) = (y/b)^(a1+a2) e^(-y/b) / (a1+a2)!
        y, b, a1, a2 = 4.0, 2.0, 2, 3
        want = (y / b) ** 5 * math.exp(-y / b) / math.factorial(5)
        assert rel_err(h_diff(y, a1, b, a2, b), want) < 1e-13

    def test_matches_cdf_difference(self):
        # Direct check against gamma-convolution CDFs of (a1, b1) + (a2, b2).
        from gammaconv.mathai import cdf_n
        from gammaconv.model import ConvolutionSpec

        y, a1, b1, a2, b2 = 9.0, 3, 2.0, 2, 5.0
        lo = cdf_n(ConvolutionSpec.of((a1, b1), (a2, b2)), y).value
        hi = cdf_n(ConvolutionSpec.of((a1 + 1, b1), (a2, b2)), y).value
        assert rel_err(h_diff(y, a1, b1, a2, b2), lo - hi) < 1e-11

    def test_scale_order_free(self):
        # The closed form must accept either ordering of the scales.
        assert h_diff(5.0, 2, 7.0, 3, 2.0) > 0.0
        assert h_diff(5.0, 2, 2.0, 3, 7.0) > 0.0

    def test_nonnegative(self):
        # CDFs decrease in the shape argument, so the difference is >= 0.
        for y in (0.5, 3.0, 20.0):
            for a1 in (0, 1, 4):
                for a2 in (0, 2):
                    assert h_diff(y, a1, 1.5, a2, 6.0) >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            h_diff(0.0, 1, 1.0, 1, 2.0)
        with pytest.raises(DomainError):
            h_diff(1.0, -1, 1.0, 1, 2.0)
        with pytest.raises(DomainError):
            h_diff(1.0, 1, 0.0, 1, 2.0)


class TestPmfS2:
    def test_known_value_n0(self):
        # P(N(1) = 0) is the mixture survival 0.5 (e^{-1} + e^{-1/2}).
        mix = MixtureExpSpec((0.5, 0.5), (1.0, 2.0))
        want = 0.5 * (math.exp(-1.0) + math.exp(-0.5))
        got = pmf_s2(mix, RenewalQuery(1.0, 0))
        assert rel_err(got, want) < 1e-13
        assert rel_err(got, 0.4872050504420379) < 1e-13

    def test_survival_identity_generic(self):
        want = 0.4 * math.exp(-10.0 / 2.0) + 0.6 * math.exp(-10.0 / 5.0)
        assert rel_err(pmf_s2(MIX, RenewalQuery(10.0, 0)), want) < 1e-13

    def test_poisson_reduction(self):
        mix = MixtureExpSpec((1.0,), (2.5,))
        for n in (0, 1, 4, 12):
            want = stats.poisson.pmf(n, 10.0 / 2.5)
            assert rel_err(pmf_s2(mix, RenewalQuery(10.0, n)), want) < 1e-12

    def test_equal_scales_reduce_to_poisson(self):
        mix = MixtureExpSpec((0.3, 0.7), (4.0, 4.0))
        for n in (0, 2, 7):
            want = stats.poisson.pmf(n, 10.0 / 4.0)
            assert rel_err(pmf_s2(mix, RenewalQuery(10.0, n)), want) < 1e-11

    @pytest.mark.parametrize("mix", [MIX, MIX_CLOSE])
    @pytest.mark.parametrize("n", [0, 1, 3, 10, 25])
    def test_matches_raw_assembly(self, mix, n):
        q = RenewalQuery(10.0, n)
        direct = pmf_s2(mix, q)
        for method in ("mathai", "moschopoulos"):
            raw = pmf_raw_s2(mix, q, method=method)
            assert abs(direct - raw) < 1e-12 * max(direct, 1e-30) + 1e-300

    def test_component_order_free(self):
        a = MixtureExpSpec((0.4, 0.6), (2.0, 5.0))
        b = MixtureExpSpec((0.6, 0.4), (5.0, 2.0))
        for n in (0, 2, 6):
            q = RenewalQuery(10.0, n)
            assert rel_err(pmf_s2(a, q), pmf_s2(b, q)) < 1e-13

    def test_normalizes(self):
        total, n_max = pmf_normalization(MIX, 10.0)
        assert abs(total - 1.0) < 1e-8
        assert n_max < 200

    def test_large_n_underflow_clean(self):
        val = pmf_s2(MIX, RenewalQuery(10.0, 80))
        assert 0.0 <= val < 1e-40

    def test_wrong_size_rejected(self):
        with pytest.raises(DomainError):
            pmf_s2(MIX3, RenewalQuery(10.0, 1))

    @pytest.mark.parametrize("weights,scales,mean", [
        ((1.0, 1e-300), (2.0, 5.0), 5.0),
        ((1e-300, 1.0), (5.0, 2.0), 5.0),
        ((1.0, 1e-300), (5.0, 2.0), 2.0),
    ])
    @pytest.mark.parametrize("n", [0, 3, 12, 40])
    def test_vanishing_weight_is_poisson_without_warnings(self, weights, scales, mean, n):
        # validate_mixture renormalizes the larger weight to exactly 1.0,
        # which leaves Poisson(t / b) of its component, before or after the
        # components swap.
        mix = MixtureExpSpec(weights, scales)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pmf_s2(mix, RenewalQuery(10.0, n))
        assert rel_err(got, stats.poisson.pmf(n, mean)) < 1e-13

    @pytest.mark.parametrize("lam, n", [(3000.0, 3300), (3000.0, 3000), (80.0, 80)])
    def test_poisson_pmf_matches_mpmath(self, lam, n):
        # One component, or a weight that rounds to 1, is Poisson(t / b).
        # Taken as exp(n log lam - lam - lgamma(n + 1)), the mass carries the
        # rounding of terms near n log n: 2.2e-12 off at (3000, 3300).
        with mp.workdps(40):
            want = float(mp.exp(n * mp.log(lam) - lam - mp.loggamma(n + 1)))
        one, q = MixtureExpSpec((1.0,), (1.0,)), RenewalQuery(lam, n)
        for fn in (pmf_s2, pmf_general, pmf_raw_s2):
            assert rel_err(fn(one, q), want) <= 1e-14
        vanishing = MixtureExpSpec((1.0, 1e-300), (2.0, 5.0))
        assert rel_err(pmf_s2(vanishing, RenewalQuery(2.0 * lam, n)), want) <= 1e-14

    @pytest.mark.parametrize("method", RENEWAL_METHODS + ("moschopoulos",))
    def test_one_component_normalization_is_the_per_n_sum(self, method):
        # A one-component mixture's normalization reads one vector of
        # Poisson masses, not one vector per n; its masses do not depend on
        # the vector's length, so (total, n) is the per-n sum's bit for bit.
        for scale, t in [(1.0, 400.0), (2.5, 10.0), (0.7, 0.3)]:
            one = MixtureExpSpec((1.0,), (scale,))
            total = peak = 0.0
            for n in itertools.count():
                p_n = pmf(one, RenewalQuery(t, n), method)
                total += p_n
                peak = max(peak, p_n)
                if p_n < 1e-10 and peak > 0.0 and p_n < peak and n > t / scale:
                    break
            assert pmf_normalization(one, t, method=method) == (total, n)
            capped = sum(pmf(one, RenewalQuery(t, n), method) for n in range(4))
            assert pmf_normalization(one, t, 0.0, method, n_cap=3) == (capped, 3)
        with pytest.raises(DomainError):
            pmf_normalization(one, float("inf"), method=method)
        with pytest.raises(DomainError):
            pmf_normalization(one, 1.0, method=method + "-x")

    def test_log_f1_family_against_mpmath(self):
        # Seeded (n, z) on both sides of the scalar/array switch at
        # (n + 2)(J + 1) = 640, z = 0 included: one list of log 1F1(m; n+1; z),
        # m = 0..n+1, either way.
        mp.mp.dps = 40
        rng = random.Random(20261019)
        grid = [(0, 0.0), (30, 0.0), (2, 0.7), (20, 0.4), (24, 0.5), (25, 0.5)]
        grid += [(rng.randint(0, 60), rng.uniform(0.0, 40.0)) for _ in range(14)]
        for n, z in grid:
            got = _log_f1_family(n, z, SeriesControl())
            assert type(got) is list and len(got) == n + 2
            for m, value in enumerate(got):
                want = float(mp.log(mp.hyp1f1(m, n + 1, z)))
                assert abs(value - want) <= 1e-13 * max(1.0, abs(want))

    def test_log_f1_family_rows_in_blocks(self):
        # At n = 2000, z = 667 the one-matrix form held 2002 x ~900 terms
        # several times over (about 45 MB); in blocks of at most 2^16 terms
        # every row is the same to the bit.
        n, z, ctrl = 2000, 667.0, SeriesControl()
        tracemalloc.start()
        try:
            got = _log_f1_family(n, z, ctrl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        c = math.sqrt(2.0 * (-math.log(ctrl.rel_tol) + math.log1p(z) + 5.0))
        J = int(z + c * math.sqrt(z + 1.0) + 12.0)
        G = np.concatenate(([math.inf], log_factorials(n + J + 2)))
        j, m = np.arange(J + 1), np.arange(1, n + 2)
        log_terms = (
            G[m[:, None] + j[None, :]]
            - G[m][:, None]
            + j * math.log(z)
            - (G[n + 1 + j] - G[n + 1] + G[1 + j])
        )
        row_max = log_terms.max(axis=1, keepdims=True)
        want = row_max[:, 0] + np.log(np.exp(log_terms - row_max).sum(axis=1))
        assert got == [0.0] + want.tolist()

    @pytest.mark.parametrize("scales", [(0.4, 0.4), (0.4, 0.3)], ids=["z0", "z8"])
    def test_budget_raises_before_family_is_built(self, scales):
        # n over max_terms raises before any (n + 2) x (J + 1) table, or
        # the z = 0 list of n + 2 entries, is built.
        ctrl = SeriesControl(max_terms=2000)
        z = abs(10.0 / scales[0] - 10.0 / scales[1])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                _log_f1_family(2001, z, ctrl)
            with pytest.raises(BudgetError):
                pmf_s2(MixtureExpSpec((0.5, 0.5), scales), RenewalQuery(10.0, 2001), ctrl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestPmfGeneral:
    def test_matches_s2_formula(self):
        for n in (0, 1, 4, 9):
            q = RenewalQuery(10.0, n)
            direct = pmf_s2(MIX, q)
            general = pmf_general(MIX, q)
            assert abs(general - direct) < 1e-11 * max(direct, 1e-30) + 1e-300

    def test_three_component_methods_agree(self):
        for n in (0, 2, 5):
            q = RenewalQuery(10.0, n)
            a = pmf_general(MIX3, q, method="mathai")
            b = pmf_general(MIX3, q, method="moschopoulos")
            assert abs(a - b) < 1e-11 * max(a, 1e-30) + 1e-300

    def test_poisson_reduction(self):
        mix = MixtureExpSpec((1.0,), (2.5,))
        assert rel_err(
            pmf_general(mix, RenewalQuery(10.0, 3)), stats.poisson.pmf(3, 4.0)
        ) < 1e-12

    def test_three_component_normalizes(self):
        total, _ = pmf_normalization(MIX3, 10.0, method="moschopoulos")
        assert abs(total - 1.0) < 1e-8

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            pmf_general(MIX3, RenewalQuery(10.0, 50), budget=100)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            pmf_general(MIX3, RenewalQuery(10.0, 1), method="nope")


class TestPmfVector:
    """The uniformization route: every n at once, any S."""

    @pytest.mark.parametrize("scales,ns", bench.RENEW3_SETTINGS)
    def test_matches_composition_on_renewal_settings(self, scales, ns):
        # Weights 0.1/0.2/0.7 reproduce the printed S = 3 table (criterion
        # 6); the two smaller counts keep the composition route under a
        # second.
        mix = MixtureExpSpec((0.1, 0.2, 0.7), scales)
        values = pmf_vector(mix, bench.RENEWAL_T, max(ns))
        for n in ns[:2]:
            want = pmf_general(mix, RenewalQuery(bench.RENEWAL_T, n))
            assert rel_err(values[n], want) < 1e-12

    def test_matches_composition_on_random_mixes(self):
        rng = random.Random(20261018)
        checked = 0
        for s in (3, 3, 3, 4, 4):
            weights = [rng.uniform(0.05, 1.0) for _ in range(s)]
            weights = tuple(w / sum(weights) for w in weights)
            scales = tuple(math.exp(rng.uniform(-1.0, 1.5)) for _ in range(s))
            mix = MixtureExpSpec(weights, scales)
            t = rng.uniform(1.0, 10.0)
            values = pmf_vector(mix, t, 8)
            for n in range(9):
                want = pmf_general(mix, RenewalQuery(t, n))
                if want >= 1e-6:
                    assert rel_err(values[n], want) < 1e-12
                    checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("mix", [MIX, MIX_CLOSE])
    def test_matches_s2_formula_into_right_tail(self, mix):
        values = pmf_vector(mix, 10.0, 80)
        for n in (0, 1, 3, 10, 25, 40, 60, 80):
            assert rel_err(values[n], pmf_s2(mix, RenewalQuery(10.0, n))) < 1e-13

    @pytest.mark.parametrize("weights,scales,t", [
        (MIX3.weights, MIX3.scales, 10.0),
        ((0.1, 0.2, 0.7), (0.4, 0.3, 0.2), 10.0),
        # Survival 1.0e-9: the composition route's F_base - F_hi
        # difference is 2e-8 relative off here.
        ((0.2, 0.3, 0.5), (0.5, 1.0, 2.0), 40.0),
    ])
    def test_n0_is_mixture_survival(self, weights, scales, t):
        want = math.fsum(w * math.exp(-t / b) for w, b in zip(weights, scales))
        mix = MixtureExpSpec(weights, scales)
        assert rel_err(pmf_vector(mix, t, 0)[0], want) < 1e-14
        assert rel_err(pmf_vector(mix, t, 12)[0], want) < 1e-14

    def test_equal_scales_reduce_to_poisson(self):
        mix = MixtureExpSpec((0.2, 0.3, 0.5), (2.0, 2.0, 2.0))
        t = 40.0  # Poisson mean 20; n runs to three times it
        values = pmf_vector(mix, t, 60)
        mp.mp.dps = 30
        for n in range(61):
            want = float(mp.exp(n * mp.log(20) - 20 - mp.loggamma(n + 1)))
            assert rel_err(values[n], want) < 1e-13

    def test_mass_plus_tail_is_one(self):
        # Pr(N(t) > n_max) = Pr(first n_max + 1 holding times end by t),
        # summed over the phase counts of those holding times through the
        # series CDF of their Erlang convolution.
        mix = MixtureExpSpec((0.3, 0.3, 0.4), (1.0, 2.0, 4.0))
        t, n_max = 10.0, 8
        tail = 0.0
        for ks in itertools.product(range(n_max + 2), repeat=3):
            if sum(ks) != n_max + 1:
                continue
            log_multi = math.lgamma(n_max + 2.0) + sum(
                k * math.log(w) - math.lgamma(k + 1.0) for k, w in zip(ks, mix.weights)
            )
            spec = canonicalize(ConvolutionSpec.of(
                *((float(k), b) for k, b in zip(ks, mix.scales) if k > 0)
            ))
            tail += math.exp(log_multi) * moschopoulos.cdf(spec, t).value
        total = math.fsum(pmf_vector(mix, t, n_max)) + tail
        assert abs(total - 1.0) < 1e-12

    def test_blocks_match_per_step_reference(self):
        # Seeded mixes of S = 1..5 and the edge cases: one phase at the
        # uniform rate beside a slow one (stay 0 and near 1), and equal
        # scales (stay 0 in every phase).  For each, t runs from e^-1 to
        # e^4 until the walk's last block is full, one step short and a
        # single step (m = 0..M in blocks of B).
        rng = random.Random(20261020)
        mixes = [
            MixtureExpSpec((0.5, 0.5), (1.0, 40.0)),
            MixtureExpSpec((0.2, 0.3, 0.5), (2.0, 2.0, 2.0)),
        ]
        for s in (1, 2, 3, 3, 4, 5):
            weights = [rng.uniform(0.05, 1.0) for _ in range(s)]
            scales = tuple(math.exp(rng.uniform(-1.0, 1.5)) for _ in range(s))
            mixes.append(MixtureExpSpec(tuple(w / sum(weights) for w in weights), scales))
        seen = set()
        for mix in mixes:
            for n_max in (3, 40, 300):
                # (full block of 16?, (M + 1) mod B as 0, 1 or -1)
                wanted = {(full, edge) for full in (False, True) for edge in (0, 1, -1)}
                for t in np.exp(np.linspace(-1.0, 4.0, 300)):
                    steps = _walk_steps(mix, t, n_max)
                    block = _block_steps(steps)
                    edge = (steps + 1) % block
                    edge = -1 if edge == block - 1 and block > 2 else edge
                    if (block == _STEP_BLOCK, edge) not in wanted:
                        continue
                    wanted.discard((block == _STEP_BLOCK, edge))
                    seen.add((block == _STEP_BLOCK, edge, n_max < block, n_max > steps))
                    want = _per_step_pmf_vector(mix, t, n_max)
                    assert _worst_rel_err(pmf_vector(mix, t, n_max), want) < 1e-14, (mix, t, n_max)
        # Full blocks of 16 at every edge, with n_max below the block and
        # n_max past the step count, and shrunk blocks.
        for edge in (0, 1, -1):
            assert {(True, edge, True, False), (True, edge, False, False)} <= seen
        assert any(past for *_, past in seen)
        assert any(not full for full, *_ in seen)

    def test_many_blocks_match_s2_formula_and_extended_precision(self):
        # t = 400 at rate 1/2: 663 steps, 42 blocks of 16.  Against the
        # direct 1F1 formula the rows read up to 4.0e-13: so does the walk
        # in extended precision, which the blocks match to 8e-15 here.
        n_max = 300
        values = pmf_vector(MIX, 400.0, n_max)
        direct = np.array([pmf_s2(MIX, RenewalQuery(400.0, n)) for n in range(n_max + 1)])
        assert _worst_rel_err(values, direct) < 1e-12
        extended = _per_step_pmf_vector(MIX, 400.0, n_max, np.longdouble)
        assert _worst_rel_err(values, extended) < 2e-14

    def test_memory_is_a_few_states_past_the_window(self):
        # A walk of 9,711 steps at n_max = 10,000 and S = 5, so the last
        # blocks' windows hold every row: (B + 1) states of copies, the
        # state, the sums and one product read about B + 4.3 states.
        mix = MixtureExpSpec((0.2,) * 5, (1.0, 1.5, 2.0, 3.0, 5.0))
        state = 10_001 * 5 * 8
        tracemalloc.start()
        try:
            values = pmf_vector(mix, 6400.0, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(math.fsum(values) - 1.0) < 1e-12
        assert peak < (_STEP_BLOCK + 6) * state

    def test_budget_raises_before_state_is_built(self):
        # Rate x time 1e5 needs more steps than max_terms; the state for
        # n_max = 10^6 would take 24 MB.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                pmf_vector(MixtureExpSpec((0.5, 0.3, 0.2), (1.0, 2.0, 3.0)), 1e5, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_count_budget_raises_before_state_is_built(self):
        # An n_max over max_terms raises before the (n_max + 1) x S state.
        ctrl = SeriesControl(max_terms=2000)
        mix = MixtureExpSpec((0.1, 0.2, 0.7), (4.0, 0.3, 0.2))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                pmf_vector(mix, 10.0, 2001, ctrl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert pmf_vector(mix, 10.0, 2000, ctrl).shape == (2001,)

    def test_budget_follows_max_terms(self):
        mix = MixtureExpSpec((0.5, 0.3, 0.2), (1.0, 2.0, 3.0))
        pmf_vector(mix, 100.0, 10)
        with pytest.raises(BudgetError):
            pmf_vector(mix, 100.0, 10, SeriesControl(max_terms=100))
        # Rate x time overflows to inf.
        with pytest.raises(BudgetError):
            pmf_vector(MixtureExpSpec((0.5, 0.5), (1e-10, 1.0)), 1e300, 3)

    def test_proposition_route_reads_one_row(self):
        for n in (0, 3, 7):
            q = RenewalQuery(10.0, n)
            assert pmf(MIX3, q) == pmf_vector(MIX3, 10.0, n)[n]

    def test_normalization_on_proposition_route(self):
        total, n_max = pmf_normalization(MIX3, 10.0)
        assert abs(total - 1.0) < 1e-10
        assert n_max < 200

    def test_domain(self):
        with pytest.raises(DomainError):
            pmf_vector(MIX3, 0.0, 3)
        with pytest.raises(DomainError):
            pmf_vector(MIX3, 1.0, -1)
        with pytest.raises(DomainError):
            pmf_normalization(MIX3, float("inf"))


class TestPmfRawS2:
    def test_poisson_reduction(self):
        mix = MixtureExpSpec((1.0,), (2.5,))
        assert rel_err(
            pmf_raw_s2(mix, RenewalQuery(10.0, 2)), stats.poisson.pmf(2, 4.0)
        ) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_cdf_call_counts(self, monkeypatch, n):
        # The raw baseline evaluates both CDFs of every H afresh; the
        # general route takes each distinct CDF once: n + 1 compositions
        # and n + 2 bumped ones.
        calls = []
        cdf_n = mathai.cdf_n

        def counted(*args, **kwargs):
            calls.append(args[1])
            return cdf_n(*args, **kwargs)

        monkeypatch.setattr(mathai, "cdf_n", counted)
        q = RenewalQuery(10.0, n)
        pmf_raw_s2(MIX, q, "mathai")
        assert len(calls) == 4 * (n + 1)
        calls.clear()
        pmf_general(MIX, q, "mathai")
        assert len(calls) == 2 * n + 3

    @pytest.mark.parametrize("method", ["mathai", "moschopoulos"])
    def test_matches_general_on_random_queries(self, method):
        rng = random.Random(20261019)
        for _ in range(40):
            p = rng.uniform(0.05, 0.95)
            mix = MixtureExpSpec((p, 1.0 - p), (rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0)))
            q = RenewalQuery(rng.uniform(0.5, 15.0), rng.randint(0, 8))
            want = pmf_general(mix, q, method)
            assert rel_err(pmf_raw_s2(mix, q, method), want) <= 1e-14

    @pytest.mark.parametrize("n", [0, 3, 12])
    def test_vanishing_weight_is_poisson(self, n):
        # validate_mixture renormalizes the larger weight to exactly 1.0.
        mix = MixtureExpSpec((1.0, 1e-300), (2.0, 5.0))
        got = pmf_raw_s2(mix, RenewalQuery(10.0, n), "mathai")
        assert rel_err(got, stats.poisson.pmf(n, 5.0)) < 1e-13

    def test_approx_method_tracks_exact(self):
        # The GNBD-backed CDF keeps a few-percent accuracy on the pmf.
        for n in (0, 1, 3):
            q = RenewalQuery(10.0, n)
            exact = pmf_s2(MIX, q)
            approx = pmf_raw_s2(MIX, q, method="approx")
            assert abs(approx - exact) < 0.05 * max(exact, 1e-6)


class TestAgainstMonteCarlo:
    def test_counts_match_sampler(self):
        from gammaconv.oracle import sample_renewal_count

        counts = sample_renewal_count(MIX, 10.0, 200_000, 20260826)
        for n in (0, 1, 2, 4, 8):
            emp = float(np.mean(counts == n))
            exact = pmf_s2(MIX, RenewalQuery(10.0, n))
            se = math.sqrt(exact * (1.0 - exact) / 200_000)
            assert abs(emp - exact) < 5.0 * se + 1e-12
