"""Weight state: updates, normalization, log-total bookkeeping, posteriors."""

import math
from fractions import Fraction

import numpy as np
import pytest

from noisysearch.mathcore import Distribution, DomainError, NoiseParams
from noisysearch.weights import (
    CompatibleSet,
    apply_multipliers,
    bayesian_update,
    heaviest,
    init_from_distribution,
    init_uniform,
    is_heavy,
    log2_rest,
)


class TestInit:
    def test_uniform_four(self):
        st = init_uniform(4)
        assert st.relative == pytest.approx([0.25, 0.25, 0.25, 0.25])
        assert st.log2_total == 0.0
        assert st.step == 0

    def test_single_element(self):
        assert init_uniform(1).relative == pytest.approx([1.0])

    def test_thirds(self):
        st = init_uniform(3)
        assert st.relative == pytest.approx(np.full(3, 1 / 3), abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            init_uniform(0)

    def test_from_distribution_passthrough(self):
        st = init_from_distribution(Distribution(np.array([0.5, 0.25, 0.25])))
        assert st.relative == pytest.approx([0.5, 0.25, 0.25])
        assert st.log2_total == 0.0

    def test_from_distribution_floors_zeros(self):
        st = init_from_distribution(Distribution(np.array([1.0, 0.0])))
        assert st.relative[1] == pytest.approx(1e-12, rel=1e-3)
        assert st.relative[0] == pytest.approx(1.0 - 1e-12, rel=1e-9)
        assert st.relative.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(st.relative > 0.0)

    def test_from_uniform_matches_init_uniform(self):
        a = init_from_distribution(Distribution.uniform(5))
        b = init_uniform(5)
        assert a.relative == pytest.approx(b.relative, abs=1e-15)


class TestBayesianUpdate:
    def test_hand_computed_split(self):
        # 0.25*(0.75, 0.75, 0.25, 0.25) renormalized by its sum 0.5
        st = init_uniform(4)
        comp = CompatibleSet(np.array([True, True, False, False]))
        new = bayesian_update(st, comp, NoiseParams.from_p(0.25))
        assert new.relative == pytest.approx([0.375, 0.375, 0.125, 0.125], abs=1e-12)
        assert new.log2_total == pytest.approx(-1.0, abs=1e-12)
        assert new.step == 1

    def test_full_set_scales_uniformly(self):
        st = init_uniform(5)
        noise = NoiseParams.from_p(0.3)
        new = bayesian_update(st, CompatibleSet.full(5), noise)
        assert new.relative == pytest.approx(st.relative)
        assert new.log2_total == pytest.approx(math.log2(0.7), abs=1e-12)

    def test_empty_set_scales_uniformly(self):
        st = init_uniform(5)
        noise = NoiseParams.from_p(0.3)
        new = bayesian_update(st, CompatibleSet.empty(5), noise)
        assert new.relative == pytest.approx(st.relative)
        assert new.log2_total == pytest.approx(math.log2(0.3), abs=1e-12)

    def test_ratio_preservation(self):
        rng = np.random.default_rng(10)
        noise = NoiseParams.from_p(0.1)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            rel = rng.uniform(0.01, 1.0, size=n)
            st = init_from_distribution(Distribution.from_weights(rel))
            mask = rng.integers(0, 2, size=n).astype(bool)
            new = bayesian_update(st, CompatibleSet(mask), noise)
            for u in range(n):
                for v in range(u + 1, n):
                    if mask[u] == mask[v]:
                        before = st.relative[u] / st.relative[v]
                        after = new.relative[u] / new.relative[v]
                        assert after == pytest.approx(before, rel=1e-9)

    def test_log_total_step_bounds(self):
        rng = np.random.default_rng(11)
        noise = NoiseParams.from_p(0.35)
        st = init_uniform(9)
        for _ in range(300):
            mask = rng.integers(0, 2, size=9).astype(bool)
            new = bayesian_update(st, CompatibleSet(mask), noise)
            change = new.log2_total - st.log2_total
            assert math.log2(noise.p) - 1e-12 <= change <= math.log2(1.0 - noise.p) + 1e-12
            st = new

    def test_strict_positivity_and_normalization(self):
        rng = np.random.default_rng(12)
        noise = NoiseParams.from_p(0.25)
        st = init_uniform(6)
        for _ in range(1000):
            mask = rng.integers(0, 2, size=6).astype(bool)
            st = bayesian_update(st, CompatibleSet(mask), noise)
            assert np.all(st.relative > 0.0)
            assert abs(float(st.relative.sum()) - 1.0) <= 1e-9


class TestHeaviest:
    def test_plain_argmax(self):
        st = init_from_distribution(Distribution(np.array([0.1, 0.7, 0.2])))
        assert heaviest(st) == 1

    def test_uniform_tie_break(self):
        assert heaviest(init_uniform(4)) == 0

    def test_two_way_tie(self):
        st = init_from_distribution(Distribution(np.array([0.4, 0.4, 0.2])))
        assert heaviest(st) == 0


class TestIsHeavy:
    def test_above(self):
        st = init_from_distribution(Distribution(np.array([0.6, 0.4])))
        assert is_heavy(st, 0, 0.5)

    def test_boundary_is_inclusive(self):
        st = init_from_distribution(Distribution(np.array([0.5, 0.5])))
        assert is_heavy(st, 0, 0.5)

    def test_below(self):
        st = init_from_distribution(Distribution(np.array([0.3, 0.7])))
        assert not is_heavy(st, 0, 0.5)

    def test_threshold_domain(self):
        st = init_uniform(2)
        with pytest.raises(DomainError):
            is_heavy(st, 0, 1.5)


class TestLog2Rest:
    def test_mass_outside_the_heaviest(self):
        st = bayesian_update(
            init_from_distribution(Distribution(np.array([0.5, 0.25, 0.25]))),
            CompatibleSet.singleton(3, 0),
            NoiseParams.from_p(0.25),
        )
        expected = math.log2(st.relative[1] + st.relative[2]) + st.log2_total
        assert log2_rest(st.relative, st.log2_total) == pytest.approx(expected, abs=1e-12)

    def test_a_rest_far_below_the_top_is_summed_to_full_precision(self):
        # 50 masses of about 1e-12 beside a top near 1: the total less the
        # top keeps only the few bits of the rest that the top's rounding
        # left, about 1e-6 relative off
        rng = np.random.default_rng(12)
        small = rng.uniform(0.5e-12, 1.5e-12, size=50)
        row = np.concatenate([small[:20], [1.0 - small.sum()], small[20:]])
        rest = math.fsum(small)
        assert math.isclose(2.0 ** log2_rest(row, 0.0), rest, rel_tol=1e-12)
        assert math.isclose(log2_rest(row, 7.5), math.log2(rest) + 7.5, rel_tol=1e-12)

    def test_point_mass_has_no_rest(self):
        assert log2_rest(np.array([0.0, 1.0, 0.0]), 3.0) == float("-inf")


class TestApplyMultipliers:
    def test_three_way_update(self):
        st = init_uniform(3)
        new = apply_multipliers(st, np.array([0.75, 0.5, 0.25]))
        assert new.relative == pytest.approx([0.5, 1 / 3, 1 / 6], abs=1e-12)
        assert new.log2_total == pytest.approx(math.log2(0.5), abs=1e-12)

    def test_rejects_annihilation(self):
        st = init_uniform(2)
        with pytest.raises(DomainError):
            apply_multipliers(st, np.zeros(2))


def exact_posterior(prior, compat_history, p):
    """Independent posterior oracle: enumerate error patterns exactly.

    For each hypothesis v and each of the 2^t error patterns, a pattern is
    consistent with the received answers iff it errs exactly at the steps
    whose compatible set excludes v. Sums pattern probabilities in exact
    rational arithmetic, then conditions.
    """
    t = len(compat_history)
    n = len(prior)
    pf = Fraction(p).limit_denominator(10**12)
    joint = []
    for v in range(n):
        acc = Fraction(0)
        for pattern in range(2**t):
            consistent = True
            for step, mask in enumerate(compat_history):
                erred = bool((pattern >> step) & 1)
                if erred == bool(mask[v]):
                    consistent = False
                    break
            if consistent:
                errs = bin(pattern).count("1")
                acc += pf**errs * (1 - pf) ** (t - errs)
        joint.append(Fraction(prior[v]).limit_denominator(10**12) * acc)
    total = sum(joint)
    return [float(j / total) for j in joint]


class TestPosteriorEquivalence:
    """Relative weights equal the exact conditional target probabilities."""

    def test_small_instance_enumeration(self):
        rng = np.random.default_rng(20)
        noise = NoiseParams.from_p(0.25)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            t = int(rng.integers(1, 9))
            prior = [Fraction(1, n)] * n
            st = init_uniform(n)
            history = []
            for _ in range(t):
                mask = rng.integers(0, 2, size=n).astype(bool)
                st = bayesian_update(st, CompatibleSet(mask), noise)
                history.append(mask)
            expected = exact_posterior(prior, history, noise.p)
            assert st.relative == pytest.approx(expected, abs=1e-9)

    def test_nonuniform_prior(self):
        noise = NoiseParams.from_p(0.1)
        prior_masses = np.array([0.5, 0.25, 0.125, 0.125])
        st = init_from_distribution(Distribution(prior_masses))
        rng = np.random.default_rng(21)
        history = []
        for _ in range(8):
            mask = rng.integers(0, 2, size=4).astype(bool)
            st = bayesian_update(st, CompatibleSet(mask), noise)
            history.append(mask)
        expected = exact_posterior([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)], history, noise.p)
        assert st.relative == pytest.approx(expected, abs=1e-9)


class TestCompatibleSet:
    def test_constructors(self):
        assert CompatibleSet.singleton(4, 2).members == {2}
        assert CompatibleSet.complement_of(4, 1).members == {0, 2, 3}
        assert CompatibleSet.full(3).size == 3
        assert CompatibleSet.empty(3).size == 0

    def test_members_roundtrip(self):
        cs = CompatibleSet(np.isin(np.arange(6), [5, 1, 3]))
        assert cs.members == {1, 3, 5}
        assert cs.size == 3
