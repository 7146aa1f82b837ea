"""Closed-form quantities: frozen oracle values, minimality, residuals."""

import math

import numpy as np
import pytest

from noisysearch.mathcore import (
    BudgetResult,
    Distribution,
    DomainError,
    NoiseParams,
    binary_entropy,
    dist_entropy,
    epoch_length,
    info_rate,
    solve_quadratic_threshold,
    worst_case_budget_graph,
    worst_case_budget_linear,
)

# Frozen from a 50-digit evaluation of the defining formulas.
H_QUARTER = 0.8112781244591329
I_QUARTER = 0.1887218755408671
I_POINT3 = 0.1187091007693074
H_NINE_ONE = 0.4689955935892812


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)

    def test_symmetry_property(self):
        rng = np.random.default_rng(0)
        for p in rng.uniform(0.0, 1.0, size=200):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestInfoRate:
    def test_vanishes_at_half(self):
        # no information per answer as noise approaches a fair coin
        assert info_rate(0.5 - 1e-9) < 1e-7

    def test_quarter(self):
        assert info_rate(0.25) == pytest.approx(I_QUARTER, abs=1e-6)

    def test_point3(self):
        assert info_rate(0.3) == pytest.approx(I_POINT3, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            info_rate(0.5)
        with pytest.raises(DomainError):
            info_rate(0.0)

    def test_complements_entropy_exactly(self):
        rng = np.random.default_rng(1)
        for p in rng.uniform(1e-6, 0.5 - 1e-6, size=500):
            assert abs(info_rate(p) + binary_entropy(p) - 1.0) < 1e-12


class TestNoiseParams:
    def test_bundle(self):
        noise = NoiseParams.from_p(0.3)
        assert noise.epsilon == pytest.approx(0.2)
        assert noise.gamma == pytest.approx(7.0 / 3.0)
        assert noise.gamma > 1.0
        assert 0.0 < noise.info_rate < 1.0
        assert abs(noise.gamma * noise.p - (1.0 - noise.p)) < 1e-12

    def test_rejects_bad_p(self):
        for p in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                NoiseParams.from_p(p)

    @pytest.mark.parametrize(
        "p, held",
        [(1e-20, "information rate"), (1e-300, "information rate"),
         (0.49999999999, "information rate"), (5e-324, "overflows")],
    )
    def test_p_whose_constants_float64_cannot_hold_is_named(self, p, held):
        # inside (0, 1/2), but 1 - H(p) rounds to 1 (or to 0 near 1/2) and
        # (1-p)/p overflows at a subnormal p
        with pytest.raises(DomainError, match=rf"p = {p} is too close to .*{held}"):
            NoiseParams.from_p(p)

    def test_rejects_inconsistent_fields(self):
        with pytest.raises(DomainError):
            NoiseParams(p=0.3, epsilon=0.1, gamma=7 / 3, info_rate=I_POINT3)


class TestDistribution:
    def test_validates_sum(self):
        with pytest.raises(DomainError):
            Distribution(np.array([0.5, 0.4]))

    def test_validates_sign(self):
        with pytest.raises(DomainError):
            Distribution(np.array([1.5, -0.5]))

    def test_validates_finite(self):
        # abs(nan - 1) > 1e-9 is False, so the sum check alone lets nan through
        with pytest.raises(DomainError, match="finite"):
            Distribution(np.array([np.nan, 1.0]))

    def test_uniform(self):
        mu = Distribution.uniform(8)
        assert mu.masses == pytest.approx(np.full(8, 0.125))


class TestDistEntropy:
    def test_uniform_eight(self):
        assert dist_entropy(Distribution.uniform(8)) == pytest.approx(3.0, abs=1e-12)

    def test_dyadic(self):
        mu = Distribution(np.array([0.5, 0.25, 0.25]))
        assert dist_entropy(mu) == pytest.approx(1.5, abs=1e-12)

    def test_nine_one(self):
        mu = Distribution(np.array([0.9, 0.1]))
        assert dist_entropy(mu) == pytest.approx(H_NINE_ONE, abs=1e-6)

    def test_zero_mass_contributes_nothing(self):
        with_zero = Distribution(np.array([0.5, 0.5, 0.0]))
        without = Distribution(np.array([0.5, 0.5]))
        assert dist_entropy(with_zero) == pytest.approx(dist_entropy(without), abs=1e-15)


class TestQuadraticThreshold:
    def test_no_sqrt_term(self):
        assert solve_quadratic_threshold(1.0, 4.0, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_no_linear_term(self):
        # x = 2 sqrt(x) has root 4
        assert solve_quadratic_threshold(1.0, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_mixed(self):
        # bisection on 2x - 6 - sqrt(x) pins the root at exactly 4
        assert solve_quadratic_threshold(2.0, 6.0, 1.0) == pytest.approx(4.0, abs=1e-9)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(DomainError):
            solve_quadratic_threshold(0.0, 1.0, 1.0)

    def test_residual_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = rng.uniform(0.01, 10.0)
            b = rng.uniform(0.0, 100.0)
            c = rng.uniform(0.0, 10.0)
            x = solve_quadratic_threshold(a, b, c)
            residual = a * x - b - c * math.sqrt(x)
            assert abs(residual) <= 1e-9 * max(1.0, b)


def _scan_graph_budget(n, noise, delta):
    """Independent oracle: dumb linear scan from 1."""
    c = math.log2(noise.gamma) * math.sqrt(math.log(1.0 / delta) / 2.0)
    q = 1
    while noise.info_rate * q - math.log2(n) - c * math.sqrt(q) < 0.0:
        q += 1
    return q


def _scan_linear_budget(n, noise, delta, c_const):
    c = math.log2(noise.gamma) * math.sqrt(math.log(3.0 / delta) / 2.0)
    b = math.log2(n) + math.log2(3.0 * c_const / delta)
    q = 1
    while not noise.info_rate * q - b - c * math.sqrt(q) > 0.0:
        q += 1
    return q


class TestGraphBudget:
    def test_frozen_example(self):
        noise = NoiseParams.from_p(0.3)
        result = worst_case_budget_graph(1024, noise, 0.1)
        assert result.q == 264
        assert result.q == _scan_graph_budget(1024, noise, 0.1)

    def test_matches_scan_on_grid(self):
        for n in (2, 17, 256, 1024):
            for p in (0.1, 0.25, 0.4):
                for delta in (0.05, 0.2, 0.45):
                    noise = NoiseParams.from_p(p)
                    got = worst_case_budget_graph(n, noise, delta)
                    assert got.q == _scan_graph_budget(n, noise, delta)
                    assert got.slack >= 0.0

    def test_minimality(self):
        noise = NoiseParams.from_p(0.25)
        result = worst_case_budget_graph(1024, noise, 0.25)
        c = math.log2(noise.gamma) * math.sqrt(math.log(4.0) / 2.0)

        def lhs(q):
            return noise.info_rate * q - math.log2(1024) - c * math.sqrt(q)

        assert lhs(result.q) >= 0.0
        assert lhs(result.q - 1) < 0.0

    def test_closed_form_brackets_scan(self):
        noise = NoiseParams.from_p(0.25)
        result = worst_case_budget_graph(1024, noise, 0.25)
        c = math.log2(noise.gamma) * math.sqrt(math.log(1.0 / 0.25) / 2.0)
        estimate = solve_quadratic_threshold(noise.info_rate, 10.0, c)
        assert abs(estimate - result.q) <= 1.0

    def test_rejects_bad_delta(self):
        noise = NoiseParams.from_p(0.25)
        for delta in (0.0, 0.5, 0.9):
            with pytest.raises(DomainError):
                worst_case_budget_graph(16, noise, delta)

    def test_returns_budget_result(self):
        assert isinstance(worst_case_budget_graph(4, NoiseParams.from_p(0.1), 0.1), BudgetResult)


class TestLinearBudget:
    def test_matches_scan(self):
        for n, p, delta, c_const in [
            (1024, 0.3, 0.1, 4.0),
            (2, 0.25, 0.25, 1.0),
            (64, 0.4, 0.2, 4.0),
            (256, 0.1, 0.05, 8.0),
        ]:
            noise = NoiseParams.from_p(p)
            got = worst_case_budget_linear(n, noise, delta, c_const)
            assert got.q == _scan_linear_budget(n, noise, delta, c_const)
            assert got.slack > 0.0

    def test_monotone_in_c_const(self):
        noise = NoiseParams.from_p(0.3)
        qs = [worst_case_budget_linear(128, noise, 0.1, c).q for c in (1.0, 2.0, 4.0, 16.0)]
        assert qs == sorted(qs)

    def test_small_instance(self):
        noise = NoiseParams.from_p(0.25)
        got = worst_case_budget_linear(2, noise, 0.25, 1.0)
        assert got.q == _scan_linear_budget(2, noise, 0.25, 1.0)


class TestEpochLength:
    def test_clamped_at_one(self):
        # epsilon = 0.25 makes the raw schedule exactly 1 at i = 1
        assert epoch_length(1, NoiseParams.from_p(0.25)) == 1

    def test_first_epoch_small_epsilon(self):
        # epsilon = 0.1: raw value 6.25 rounds up to 7
        assert epoch_length(1, NoiseParams.from_p(0.4)) == 7

    def test_eighth_epoch(self):
        # 6.25 * 8^(-2/3) = 1.5625 rounds up to 2
        assert epoch_length(8, NoiseParams.from_p(0.4)) == 2

    def test_nonincreasing_and_eventually_one(self):
        for p in (0.1, 0.25, 0.4, 0.45):
            noise = NoiseParams.from_p(p)
            lengths = [epoch_length(i, noise) for i in range(1, 4001)]
            assert all(a >= b for a, b in zip(lengths, lengths[1:]))
            assert lengths[-1] == 1

    def test_partial_sums_growth_order(self):
        # ratio of the true partial sum to max(f^(1/3) eps^-2, f) stays
        # within [0.2, 5] once f is large enough for the order to show
        for eps in (0.25, 0.1, 0.05):
            noise = NoiseParams.from_p(0.5 - eps)
            for f in (10_000, 100_000):
                i = np.arange(1, f + 1, dtype=np.float64)
                lengths = np.ceil(np.maximum(eps**-2 / 16.0 * i ** (-2.0 / 3.0), 1.0))
                sample = [epoch_length(j, noise) for j in (1, 2, 3, f // 2, f)]
                assert sample == [int(lengths[j - 1]) for j in (1, 2, 3, f // 2, f)]
                total = float(lengths.sum())
                closed = max(f ** (1.0 / 3.0) * eps**-2, float(f))
                assert 0.2 <= total / closed <= 5.0

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            epoch_length(0, NoiseParams.from_p(0.3))
