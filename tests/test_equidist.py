"""Tests for cone-hull membership, rational approximation, and the greedy
Cesaro equidistribution constructions."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import widthlab.equidist as eq
from widthlab._fsio import json_text
from oracles import (
    FractionSimplex,
    condition_i_predicate,
    condition_ii_violator,
    defect_program,
    equivalence_harness,
    fractions,
    integer_phase_one,
    random_instance,
    reference_greedy_trace,
    save_instance,
)


def fm(*vals):
    return eq.FiniteMeasure(np.array(vals, dtype=float))


def fam(*measures):
    return eq.MeasureFamily(members=tuple(measures))


class TestFiniteMeasure:
    def test_total_mass(self):
        assert fm(1.0, 2.5, 0.0).total_mass == 3.5
        assert fm(1.0, 2.5, 0.0).n == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fm(1.0, -0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            fm(1.0, np.nan)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            eq.FiniteMeasure(np.array([]))

    def test_rejects_infinite_total_mass(self):
        # Without a RuntimeWarning, which the suite turns into an error.
        with pytest.raises(ValueError, match="finite total mass"):
            fm(1e308, 1e308)
        assert fm(1e308, 0.0).total_mass == 1e308


class TestMeasureFamily:
    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="non-empty"):
            eq.MeasureFamily(members=())

    def test_rejects_mixed_ground_sets(self):
        with pytest.raises(ValueError, match="ground set"):
            fam(fm(1.0, 0.0), fm(1.0, 0.0, 0.0))

    def test_family_size_cap(self):
        members = tuple(fm(1.0, float(j)) for j in range(eq.MAX_FAMILY + 1))
        assert len(eq.MeasureFamily(members=members[:-1]).members) == eq.MAX_FAMILY
        with pytest.raises(ValueError, match=f"family size capped at {eq.MAX_FAMILY}"):
            eq.MeasureFamily(members=members)

    def test_structure_validation(self):
        base = (fm(1.0, 0.0),)
        with pytest.raises(ValueError, match="mass bounds"):
            eq.FamilyStructure(base=base, mass_bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="mass bounds"):
            eq.FamilyStructure(base=base, mass_bounds=(0.0, 1.0))
        with pytest.raises(ValueError, match="non-empty"):
            eq.FamilyStructure(base=(), mass_bounds=(0.5, 1.0))


class TestConeHullMembership:
    def test_ray_membership(self):
        cert = eq.cone_hull_membership(fm(3.0, 3.0), fam(fm(1.0, 1.0)))
        assert cert.verdict == "member"
        assert cert.coefficients == ((0, 3.0),)

    def test_conic_combination(self):
        cert = eq.cone_hull_membership(fm(2.0, 5.0), fam(fm(1.0, 0.0), fm(0.0, 1.0)))
        assert cert.verdict == "member"
        assert cert.coefficients == ((0, 2.0), (1, 5.0))

    def test_ray_non_member(self):
        mu0 = fm(1.0, 2.0)
        ray = fm(1.0, 1.0)
        cert = eq.cone_hull_membership(mu0, fam(ray))
        assert cert.verdict == "non_member"
        f = cert.separating_f
        assert float(f @ mu0.weights) > 0.0
        assert float(f @ ray.weights) <= 1e-12
        # Exhaustive check over the one-dimensional cone {t (1,1) : t >= 0}:
        # the sup distance to (1,2) is minimized at t = 1.5 with value 1/2.
        ts = np.linspace(0.0, 4.0, 4001)
        dists = np.max(np.abs(ts[:, None] * ray.weights - mu0.weights), axis=1)
        assert np.min(dists) == pytest.approx(0.5, abs=1e-9)

    def test_member_reconstruction_is_exact(self):
        m1, m2 = fm(1.0, 0.5, 0.0), fm(0.0, 1.0, 2.0)
        mu0 = eq.FiniteMeasure(2.0 * m1.weights + 0.5 * m2.weights)
        cert = eq.cone_hull_membership(mu0, fam(m1, m2))
        assert cert.verdict == "member"
        recon = np.zeros(3)
        for j, coeff in cert.coefficients:
            recon += coeff * (m1, m2)[j].weights
        assert np.max(np.abs(recon - mu0.weights)) == 0.0

    def test_issued_coefficients_are_nearest_doubles(self):
        # The exact check holds for x = (1/3, 1/3); the issued floats are
        # their nearest doubles, which reconstruct the target only to a
        # rounding error because 1/3 is not dyadic.
        cert = eq.cone_hull_membership(fm(1.0, 1.0), fam(fm(3.0, 0.0), fm(0.0, 3.0)))
        assert cert.verdict == "member"
        third = float(Fraction(1, 3))
        assert cert.coefficients == ((0, third), (1, third))
        assert 3 * Fraction(third) - 1 == Fraction(-1, 2**54)

    def test_middle_spike_non_member(self):
        # The end constraints force x = (1, 1), which overshoots the middle.
        cert = eq.cone_hull_membership(
            fm(1.0, 1.0, 1.0), fam(fm(1.0, 1.0, 0.0), fm(0.0, 1.0, 1.0))
        )
        assert cert.verdict == "non_member"
        f = cert.separating_f
        assert float(f @ np.array([1.0, 1.0, 1.0])) > 0.0
        assert float(f @ np.array([1.0, 1.0, 0.0])) <= 1e-12
        assert float(f @ np.array([0.0, 1.0, 1.0])) <= 1e-12

    def test_tolerance_slack(self):
        base = fm(1.0, 0.5, 0.0)
        nudged = eq.FiniteMeasure(base.weights + np.array([1e-12, 0.0, 0.0]))
        assert (
            eq.cone_hull_membership(nudged, fam(base), tol=1e-9).verdict == "member"
        )
        assert (
            eq.cone_hull_membership(nudged, fam(base), tol=1e-15).verdict
            == "non_member"
        )

    def test_zero_target_is_member(self):
        cert = eq.cone_hull_membership(fm(0.0, 0.0), fam(fm(1.0, 2.0)))
        assert cert.verdict == "member"
        assert cert.coefficients == ()

    def test_degenerate_family_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            eq.cone_hull_membership(fm(1.0, 1.0), fam(fm(0.0, 0.0), fm(0.0, 0.0)))

    def test_argument_validation(self):
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                eq.cone_hull_membership(fm(1.0, 2.0), fam(fm(1.0, 1.0)), tol=tol)
        with pytest.raises(ValueError, match="ground set"):
            eq.cone_hull_membership(fm(1.0, 1.0), fam(fm(1.0)))
        with pytest.raises(ValueError, match="capped"):
            eq.cone_hull_membership(
                eq.FiniteMeasure(np.ones(65)),
                eq.MeasureFamily(members=(eq.FiniteMeasure(np.ones(65)),)),
            )

    def test_scale_equivariance(self):
        m1, m2 = fm(1.0, 0.25, 0.5), fm(0.0, 1.0, 0.75)
        member = eq.FiniteMeasure(1.5 * m1.weights + 2.0 * m2.weights)
        non_member = fm(0.0, 0.0, 1.0)
        for mu0, expected in ((member, "member"), (non_member, "non_member")):
            plain = eq.cone_hull_membership(mu0, fam(m1, m2)).verdict
            assert plain == expected
            scaled_target = eq.FiniteMeasure(4.0 * mu0.weights)
            assert eq.cone_hull_membership(scaled_target, fam(m1, m2)).verdict == expected
            scaled_family = fam(
                eq.FiniteMeasure(0.5 * m1.weights), eq.FiniteMeasure(2.0 * m2.weights)
            )
            assert eq.cone_hull_membership(mu0, scaled_family).verdict == expected


class TestConditionI:
    def test_vacuous_true(self):
        mu0 = fm(1.0, 1.0)
        assert condition_i_predicate(mu0, fam(fm(1.0, 0.0)), np.array([1.0, 1.0]))

    def test_holds_on_member_instances(self):
        m1, m2 = fm(1.0, 0.0, 0.5), fm(0.25, 1.0, 0.0)
        mu0 = eq.FiniteMeasure(m1.weights + 2.0 * m2.weights)
        family = fam(m1, m2)
        rng = np.random.default_rng(11)
        tested = 0
        for _ in range(50):
            f = rng.standard_normal(3)
            if float(f @ mu0.weights) >= 0.0:
                f = -f
            if float(f @ mu0.weights) >= 0.0:
                continue
            tested += 1
            assert condition_i_predicate(mu0, family, f)
        assert tested > 10

    def test_detects_failure_off_members(self):
        # f is negative on the target but positive on the only member.
        assert not condition_i_predicate(
            fm(0.0, 1.0), fam(fm(1.0, 0.0)), np.array([1.0, -1.0])
        )

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="dimension"):
            condition_i_predicate(fm(1.0, 1.0), fam(fm(1.0, 1.0)), np.ones(3))


class TestConditionIIViolator:
    def test_annihilates_target_and_positive_on_family(self):
        mu0 = fm(1.0, 2.0)
        ray = fm(1.0, 1.0)
        cert = eq.cone_hull_membership(mu0, fam(ray))
        f0 = condition_ii_violator(mu0, cert.separating_f)
        assert abs(float(f0 @ mu0.weights)) <= 1e-12
        assert float(f0 @ ray.weights) > 0.0

    def test_zero_mass_error(self):
        with pytest.raises(ValueError, match="positive mass"):
            condition_ii_violator(fm(0.0, 0.0), np.array([1.0, -1.0]))


class TestRationalApproximation:
    def test_dyadic_pair(self):
        result = eq.rational_approximation([0.5, 0.5], 0.1)
        assert result.d == 2
        assert result.numerators == (1, 1)

    def test_thirds(self):
        result = eq.rational_approximation([1.0 / 3.0, 2.0 / 3.0], 1e-6)
        assert result.d == 3
        assert result.numerators == (1, 2)

    def test_pi_quarter_bound(self):
        alphas = (np.pi / 4.0, 1.0 - np.pi / 4.0)
        result = eq.rational_approximation(alphas, 1e-4)
        for a, c in zip(alphas, result.numerators):
            assert abs(a - c / result.d) < 5e-5

    def test_positive_numerators_for_tiny_alpha(self):
        result = eq.rational_approximation([1e-3], 0.5)
        assert result.numerators[0] >= 1
        assert abs(1e-3 - result.numerators[0] / result.d) < 0.5

    def test_subnormal_alpha(self):
        # The clamp to numerator 1 meets the bound from d = 10 on, however
        # small alpha is; 1 / alpha itself overflows.  1/10 - alpha is below
        # the double 0.1, which exceeds 1/10 by about 5.6e-18, although in
        # doubles it rounds to 0.1 itself.
        result = eq.rational_approximation([5e-324], 0.1)
        assert (result.d, result.numerators) == (10, (1,))

    def test_bound_is_decided_exactly(self):
        # The double 0.3 is 3/10 - 1.11e-17 (to three digits), which rounds
        # to 0.3 itself in doubles; no d up to the cap comes within 1e-17.
        assert Fraction(3, 10) - Fraction(0.3) > Fraction(1e-17)
        with pytest.raises(ValueError, match=r"eps = 1e-17 .* above 100,000,000"):
            eq.rational_approximation([0.3], 1e-17)
        result = eq.rational_approximation([0.3], 2e-17)
        assert (result.d, result.numerators) == (10, (3,))

    @staticmethod
    def reference(alphas, eps):
        """Smallest d whose nearest positive numerators meet the bound, by
        Fraction arithmetic."""
        exact = [Fraction(a) for a in alphas]
        bound = Fraction(eps) / len(alphas)
        d = 1
        while True:
            c = [max(round(a * d), 1) for a in exact]
            if all(abs(a - Fraction(ci, d)) < bound for a, ci in zip(exact, c)):
                return d, tuple(c)
            d += 1

    def test_matches_exact_reference_at_the_bound(self):
        # eps at the exact worst distance of a planted d0, rounded to a
        # double, and one ulp either side: the float sweep cannot see which
        # side of the bound d0 lies on.
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            alphas = rng.uniform(0.05, 1.0, size=n)
            if rng.integers(2):
                alphas = rng.integers(1, 64, size=n) / 64.0
            d0 = int(rng.integers(2, 60))
            worst = max(abs(Fraction(a) - Fraction(max(round(Fraction(a) * d0), 1), d0))
                        for a in alphas)
            eps = float(worst * n)
            for e in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)):
                result = eq.rational_approximation(alphas, float(e))
                assert (result.d, result.numerators) == self.reference(alphas, float(e))

    def test_sweep_stops_at_max_denominator(self):
        # 1/d >= 1e-8 stays 1e-8 from alpha = 1e-20, so no d up to the cap
        # meets eps = 1e-12; a bound met early is still returned.
        with pytest.raises(ValueError, match=r"eps = 1e-12 .* above 100,000,000"):
            eq.rational_approximation([1e-20], 1e-12)
        result = eq.rational_approximation([0.5], 1e-300)
        assert (result.d, result.numerators) == (2, (1,))

    @pytest.mark.parametrize("alphas, eps, d", [
        ([1e305, 1 / 2001], 2e-7, 2001),
        ([1e305, 0.3], 1e-6, 10),
    ])
    def test_overflowing_product_goes_to_the_exact_test(self, alphas, eps, d):
        # 1e305 * d is infinite in doubles from d = 1798 on, yet 1e305 is an
        # integer, so every d fits that coordinate exactly; the sweep must let
        # the infinite product through to the exact test, without a warning.
        result = eq.rational_approximation(alphas, eps)
        assert result.d == d
        assert all(abs(Fraction(a) - Fraction(c, d)) < Fraction(eps) / len(alphas)
                   for a, c in zip(alphas, result.numerators))

    @pytest.mark.parametrize("alphas", [[1e-20], [1e-20, 0.5, 0.25, 0.7]])
    def test_unreachable_eps_is_refused_before_the_sweep(self, alphas, monkeypatch):
        # Every numerator is at least 1, so a d that meets eps = 1e-12 has
        # 1/d < 1e-20 + 1e-12/N, about 1e12 / N: above the cap before any
        # denominator is swept or tested.
        def swept(*args, **kwargs):
            raise AssertionError("the denominator sweep ran")

        monkeypatch.setattr(eq, "_exact_numerators", swept)
        monkeypatch.setattr(np, "arange", swept)
        with pytest.raises(ValueError, match=r"eps = 1e-12 .* above 100,000,000"):
            eq.rational_approximation(alphas, 1e-12)

    @pytest.mark.parametrize("alphas, eps", [
        ([0.3], 1e-17), ([0.3, 0.5, 0.7, 0.11], 1e-17), ([0.3], 1e-300),
    ])
    def test_rounding_eps_is_refused_before_the_sweep(self, alphas, eps, monkeypatch):
        # No fraction of denominator up to the cap comes within eps/N of the
        # double 0.3 (3/10 misses it by 1.1e-17), so the least d at which that
        # coordinate alone meets the bound is past the cap, and eps is refused
        # before any denominator is swept or tested.
        def swept(*args, **kwargs):
            raise AssertionError("the denominator sweep ran")

        monkeypatch.setattr(eq, "_exact_numerators", swept)
        monkeypatch.setattr(np, "arange", swept)
        with pytest.raises(ValueError, match=rf"eps = {eps} .* above 100,000,000"):
            eq.rational_approximation(alphas, eps)

    @staticmethod
    def least_denominator(x, y):
        """The least d with some c / d in the open interval (x, y), by
        trying every d in turn."""
        d = 1
        while not Fraction(math.floor(x * d) + 1, d) < y:
            d += 1
        return d

    def test_least_denominator_matches_brute_force(self):
        rng = np.random.default_rng(29)
        intervals = [(Fraction(0), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2)),
                     (Fraction(2), Fraction(3)), (Fraction(5, 7), Fraction(8, 11))]
        for _ in range(300):
            x = Fraction(int(rng.integers(0, 200)), int(rng.integers(1, 60)))
            kind = int(rng.integers(3))
            if kind == 0:  # the lower end clamped at 0
                x = Fraction(0)
            if kind == 2:  # both ends fractions of small denominator
                y = x + Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 60)))
            else:
                y = x + Fraction(int(rng.integers(1, 1000)), int(rng.integers(1000, 10**6)))
            intervals.append((x, y))
        for x, y in intervals:
            got = eq._least_denominator(x.numerator, x.denominator, y.numerator,
                                        y.denominator)
            assert got == self.least_denominator(x, y), (x, y)

    @pytest.mark.parametrize("alphas", [[], [[0.5, 0.25]]])
    def test_alphas_must_be_a_vector(self, alphas):
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            eq.rational_approximation(alphas, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            eq.rational_approximation([0.5, 0.0], 0.1)
        with pytest.raises(ValueError, match="eps"):
            eq.rational_approximation([0.5], -1.0)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            eq.rational_approximation([0.5], float("inf"))

    def test_random_vectors_meet_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            alphas = rng.uniform(0.01, 1.0, size=n)
            eps = float(rng.choice([1e-2, 1e-3]))
            result = eq.rational_approximation(alphas, eps)
            assert all(c >= 1 for c in result.numerators)
            for a, c in zip(alphas, result.numerators):
                assert abs(a - c / result.d) < eps / n


class TestMembershipCertificate:
    @pytest.mark.parametrize("fields, message", [
        ({"verdict": "maybe"}, "unknown verdict 'maybe'"),
        ({"verdict": "member", "separating_f": (1.0,)}, "needs coefficients"),
        ({"verdict": "non_member", "coefficients": ((0, 1.0),)},
         "needs a separating functional"),
    ])
    def test_incomplete_certificate_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            eq.MembershipCertificate(**fields)

    def test_equal_non_members_compare_and_hash_equal(self):
        first, second = (eq.cone_hull_membership(fm(1.0, 2.0), fam(fm(1.0, 1.0)))
                         for _ in range(2))
        assert first.verdict == "non_member"
        assert type(first.separating_f) is tuple
        assert all(type(v) is float for v in first.separating_f)
        assert first == second and hash(first) == hash(second)


class TestEquidistTrace:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            eq.EquidistTrace(sequence=(0, 1), cesaro_errors=(0.5,))

    # A leading NaN makes min() return NaN, so the check must look further.
    @pytest.mark.parametrize("errors", [(float("nan"), -1.0), (0.5, float("nan"), -1e-300)])
    def test_negative_error_is_refused(self, errors):
        with pytest.raises(ValueError, match="nonnegative"):
            eq.EquidistTrace(sequence=(0,) * len(errors), cesaro_errors=errors)

    @pytest.mark.parametrize("errors", [(float("nan"),), (0.5, float("nan"), 0.0), ()])
    def test_nan_and_nonnegative_errors_pass(self, errors):
        eq.EquidistTrace(sequence=(0,) * len(errors), cesaro_errors=errors)


class TestCesaroSequence:
    def test_singleton_family_zero_error(self):
        mu0 = fm(2.0, 4.0, 2.0)
        trace = eq.cesaro_sequence(mu0, fam(mu0), 200)
        assert set(trace.sequence) == {0}
        assert max(trace.cesaro_errors) <= 1e-14

    def test_alternating_point_masses(self):
        trace = eq.cesaro_sequence(
            fm(1.0, 1.0), fam(fm(1.0, 0.0), fm(0.0, 1.0)), 10_000
        )
        assert trace.sequence[:6] == (0, 1, 0, 1, 0, 1)
        errors = np.array(trace.cesaro_errors)
        # Even steps balance exactly; odd step k deviates by 1/(2k).
        assert np.all(errors[1::2] == 0.0)
        assert errors[9998] == pytest.approx(1.0 / 19998.0, rel=1e-12)
        assert errors[-1] < 1e-3

    def test_non_member_error_mentions_certificate(self):
        with pytest.raises(ValueError, match="cone_hull_membership"):
            eq.cesaro_sequence(fm(1.0, 2.0), fam(fm(1.0, 1.0)), 10)

    def test_zero_mass_member_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            eq.cesaro_sequence(fm(1.0, 0.0), fam(fm(1.0, 0.0), fm(0.0, 0.0)), 10)

    def test_zero_mass_target_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            eq.cesaro_sequence(fm(0.0, 0.0), fam(fm(1.0, 0.0)), 10)

    def test_k_max_validation(self):
        with pytest.raises(ValueError, match="k_max"):
            eq.cesaro_sequence(fm(1.0, 1.0), fam(fm(1.0, 1.0)), 0)

    def test_random_member_converges(self):
        rng = np.random.default_rng(3)
        members = tuple(
            eq.FiniteMeasure(rng.integers(1, 16, size=5) / 16.0) for _ in range(4)
        )
        coeffs = rng.integers(1, 9, size=4) / 8.0
        mu0 = eq.FiniteMeasure(
            sum(c * m.weights for c, m in zip(coeffs, members))
        )
        trace = eq.cesaro_sequence(mu0, eq.MeasureFamily(members=members), 2000)
        assert trace.cesaro_errors[-1] < 5e-2
        assert len(trace.sequence) == 2000

    def test_normalized_mass_mean_is_exactly_one(self):
        # Each normalized member integrates the constant 1 to mass/mass = 1.0
        # exactly, so the Cesaro mean of those integrals is k/k = 1.0 exactly.
        members = (fm(1.0, 0.0, 2.0), fm(0.5, 0.25, 0.0))
        mu0 = eq.FiniteMeasure(members[0].weights + members[1].weights)
        trace = eq.cesaro_sequence(mu0, eq.MeasureFamily(members=members), 50)
        ones = [members[j].total_mass / members[j].total_mass for j in trace.sequence]
        for k in range(1, 51):
            assert float(np.sum(ones[:k])) / k == 1.0


class TestWeightedCesaroStructured:
    @staticmethod
    def structured(members, base, bounds):
        return eq.MeasureFamily(
            members=tuple(members),
            structure=eq.FamilyStructure(
                base=tuple(base), mass_bounds=bounds
            ),
        )

    def test_singleton_scaled_base(self):
        mu0 = fm(1.0, 3.0)
        scaled = eq.FiniteMeasure(0.5 * mu0.weights / mu0.total_mass)
        family = self.structured([mu0], [scaled], (0.25, 1.0))
        trace = eq.weighted_cesaro_structured(mu0, family, 200)
        assert max(trace.cesaro_errors) <= 1e-14

    def test_two_atom_mix(self):
        base = (fm(2.0, 0.0), fm(0.0, 1.0))
        mu0 = fm(2.0, 1.0)
        family = self.structured(base, base, (1.0, 2.0))
        trace = eq.weighted_cesaro_structured(mu0, family, 10_000)
        # Mass-weighted pairs (one of each) hit the target head-on.
        assert trace.cesaro_errors[1] == 0.0
        assert trace.cesaro_errors[-1] < 5e-2

    def test_unstructured_error(self):
        with pytest.raises(ValueError, match="structured"):
            eq.weighted_cesaro_structured(fm(1.0, 1.0), fam(fm(1.0, 1.0)), 10)

    def test_mass_bound_violation(self):
        base = (fm(0.03125, 0.0), fm(0.0, 1.0))
        family = self.structured(base, base, (0.5, 2.0))
        with pytest.raises(ValueError, match="outside"):
            eq.weighted_cesaro_structured(fm(1.0, 1.0), family, 10)

    def test_k_max_and_target_mass_checked(self):
        base = (fm(1.0, 0.0), fm(0.0, 1.0))
        family = self.structured(base, base, (0.5, 2.0))
        with pytest.raises(ValueError, match="k_max must be at least 1, got 0"):
            eq.weighted_cesaro_structured(fm(1.0, 1.0), family, 0)
        with pytest.raises(ValueError, match="target measure must have positive mass"):
            eq.weighted_cesaro_structured(fm(0.0, 0.0), family, 10)

    def test_outside_base_cone_error(self):
        base = (fm(1.0, 0.0),)
        family = self.structured(base, base, (0.5, 2.0))
        with pytest.raises(ValueError, match="cone_hull_membership"):
            eq.weighted_cesaro_structured(fm(0.0, 1.0), family, 10)

    @pytest.mark.parametrize("orbit", ["verified", "unverified"])
    def test_unit_masses_give_the_plain_sequence(self, orbit, monkeypatch):
        # With every base mass exactly 1.0, each weighted denominator is the
        # double k, so the weighted sequence is the plain one bit for bit:
        # on the alternation of point masses, whose blocks verify, and on a
        # sixteenth-dyadic family at n = m = 12 that verifies none.
        if orbit == "verified":
            base, mu0 = (fm(1.0, 0.0), fm(0.0, 1.0)), fm(1.0, 1.0)
        else:
            rng = np.random.default_rng(6)
            base = tuple(eq.FiniteMeasure(rng.multinomial(16, [1 / 12] * 12) / 16.0)
                         for _ in range(12))
            mu0 = eq.FiniteMeasure(
                (rng.integers(1, 9, size=12) / 8.0) @ np.stack([m.weights for m in base]))
        assert all(m.total_mass == 1.0 for m in base)
        outcomes = []
        evaluate = eq._verified_block

        def recording(guess, *args):
            result = evaluate(guess, *args)
            outcomes.append(result[0] == guess)
            return result

        monkeypatch.setattr(eq, "_verified_block", recording)
        family = self.structured(base, base, (1.0, 1.0))
        plain = eq.cesaro_sequence(mu0, family, 3000)
        weighted = eq.weighted_cesaro_structured(mu0, family, 3000)
        assert weighted.sequence == plain.sequence
        assert ([e.hex() for e in weighted.cesaro_errors]
                == [e.hex() for e in plain.cesaro_errors])
        assert any(outcomes) == (orbit == "verified")


class TestEquivalenceHarness:
    def test_small_run_has_no_inconsistencies(self):
        report = equivalence_harness(seed=7, trials=30, k_max=2000)
        assert report.passed
        assert report.inconsistencies == ()
        assert report.member_count + report.non_member_count == 30
        assert report.member_count > 0 and report.non_member_count > 0

    def test_deterministic(self):
        a = equivalence_harness(seed=12, trials=10, k_max=500)
        b = equivalence_harness(seed=12, trials=10, k_max=500)
        assert a == b

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trial"):
            equivalence_harness(seed=1, trials=0)

    def test_handbuilt_member_agreement(self):
        m1, m2 = fm(1.0, 1.0, 0.0), fm(0.0, 0.5, 1.0)
        mu0 = eq.FiniteMeasure(2.0 * m1.weights + 2.0 * m2.weights)
        family = fam(m1, m2)
        cert = eq.cone_hull_membership(mu0, family)
        assert cert.verdict == "member"
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = rng.standard_normal(3)
            if float(f @ mu0.weights) >= 0.0:
                f = -f
            assert condition_i_predicate(mu0, family, f)
        trace = eq.cesaro_sequence(mu0, family, 2000)
        assert trace.cesaro_errors[-1] < 5e-2

    def test_handbuilt_non_member_agreement(self):
        mu0 = fm(1.0, 2.0)
        ray = fm(1.0, 1.0)
        family = fam(ray)
        cert = eq.cone_hull_membership(mu0, family)
        assert cert.verdict == "non_member"
        f = cert.separating_f
        assert float(f @ mu0.weights) > 0.0 and float(f @ ray.weights) <= 1e-12
        f0 = condition_ii_violator(mu0, f)
        assert abs(float(f0 @ mu0.weights)) <= 1e-12
        assert float(f0 @ ray.weights) > 0.0
        with pytest.raises(ValueError):
            eq.cesaro_sequence(mu0, family, 10)


class TestInstanceIO:
    def test_round_trip_plain(self, tmp_path):
        path = str(tmp_path / "instance.json")
        mu0 = fm(1.0, 0.5, 0.25)
        family = fam(fm(1.0, 0.0, 0.0), fm(0.0, 1.0, 1.0))
        save_instance(path, mu0, family)
        loaded_mu0, loaded_family = eq.load_instance(path)
        np.testing.assert_array_equal(loaded_mu0.weights, mu0.weights)
        assert len(loaded_family.members) == 2
        assert loaded_family.structure is None

    def test_round_trip_structured(self, tmp_path):
        path = str(tmp_path / "instance.json")
        base = (fm(2.0, 0.0), fm(0.0, 1.0))
        family = eq.MeasureFamily(
            members=base,
            structure=eq.FamilyStructure(base=base, mass_bounds=(1.0, 2.0)),
        )
        save_instance(path, fm(2.0, 1.0), family)
        _, loaded = eq.load_instance(path)
        assert loaded.structure is not None
        assert loaded.structure.mass_bounds == (1.0, 2.0)
        np.testing.assert_array_equal(
            loaded.structure.base[0].weights, base[0].weights
        )

    def test_structure_written_as_base_and_mass_bounds(self, tmp_path):
        path = str(tmp_path / "instance.json")
        base = (fm(2.0, 0.0), fm(0.0, 1.0))
        family = eq.MeasureFamily(
            members=base, structure=eq.FamilyStructure(base=base, mass_bounds=(1.0, 2.0))
        )
        save_instance(path, fm(2.0, 1.0), family)
        written = open(path).read()
        assert set(json.loads(written)["structure"]) == {"W", "mass_bounds"}
        save_instance(path, *eq.load_instance(path))
        assert open(path).read() == written

    def test_structure_with_unread_multiplicity_bound_loads(self, tmp_path):
        # The layout the benchmark writes: the key is ignored like any other.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "n": 2, "mu0": [2.0, 1.0], "Y": [[2.0, 0.0], [0.0, 1.0]],
            "structure": {"W": [[2.0, 0.0], [0.0, 1.0]], "multiplicity_bound": 1,
                          "mass_bounds": [1.0, 2.0]},
        }))
        _, loaded = eq.load_instance(str(path))
        assert loaded.structure.mass_bounds == (1.0, 2.0)
        assert [list(m.weights) for m in loaded.structure.base] == [[2.0, 0.0], [0.0, 1.0]]

    def test_n_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "mu0": [1.0, 2.0], "Y": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="n="):
            eq.load_instance(str(path))

    @pytest.mark.parametrize(
        "payload",
        [
            [1.0, 2.0],
            {"n": 2.7, "mu0": [1.0, 2.0], "Y": [[1.0, 0.0]]},
            {"n": "2", "mu0": [1.0, 2.0], "Y": [[1.0, 0.0]]},
            {"n": True, "mu0": [1.0], "Y": [[1.0]]},
            {"n": 2, "mu0": [1.0, 2.0]},
            {"n": 2, "mu0": [1.0, 2.0], "Y": 5},
            {"n": 2, "mu0": [1.0, 2.0], "Y": [{"a": 1}]},
            {"n": 2, "mu0": [1.0, "2"], "Y": [[1.0, 0.0]]},
            {"n": 2, "mu0": [1.0, 2.0], "Y": [[1.0, 0.0]],
             "structure": {"W": 5, "mass_bounds": [1.0, 1.0]}},
            {"n": 2, "mu0": [1.0, 2.0], "Y": [[1.0, 0.0]],
             "structure": {"W": [[1.0, 0.0]], "multiplicity_bound": 1,
                           "mass_bounds": [2.0]}},
            {"n": 2, "mu0": [1.0, 2.0], "Y": [[1.0, 0.0]], "structure": [1]},
            {"n": 2, "mu0": [1.0, -2.0], "Y": [[1.0, 0.0]]},
        ],
    )
    def test_malformed_file_rejected_by_name(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^instance file {re.escape(str(path))}: "):
            eq.load_instance(str(path))

    def test_certificate_json(self):
        member = eq.cone_hull_membership(fm(3.0, 3.0), fam(fm(1.0, 1.0)))
        non_member = eq.cone_hull_membership(fm(1.0, 2.0), fam(fm(1.0, 1.0)))
        data = json.loads(json_text(member))
        assert data["verdict"] == "member"
        assert data["coefficients"] == [[0, 3.0]]
        assert data["separating_f"] is None
        data = json.loads(json_text(non_member))
        assert data["verdict"] == "non_member"
        assert data["coefficients"] is None
        assert len(data["separating_f"]) == 2
        assert all(type(v) is float for v in data["separating_f"])

    def test_trace_csv(self, tmp_path):
        trace = eq.cesaro_sequence(
            fm(1.0, 1.0), fam(fm(1.0, 0.0), fm(0.0, 1.0)), 5
        )
        path = str(tmp_path / "trace.csv")
        eq.write_trace_csv(trace, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "k,error"
        assert len(lines) == 6
        first_k, first_err = lines[1].split(",")
        assert int(first_k) == 1
        assert float(first_err) == trace.cesaro_errors[0]


# ---------------------------------------------------------------------------
# The integer tableau, the Farkas exit and the buffered greedy loop against
# the references in tests/oracles.py.
# ---------------------------------------------------------------------------


def recording(cls):
    """Subclass of a simplex class that logs its (row, column) pivots."""

    class Recording(cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.pivots = []

        def _pivot(self, row, col):
            self.pivots.append((row, col))
            super()._pivot(row, col)

    return Recording


class IntegerRecording(recording(eq._Simplex)):
    def _pivot(self, row, col):
        super()._pivot(row, col)
        assert self.det > 0


class ReferencePhaseOne(recording(FractionSimplex)):
    """The reference simplex, keeping its pivots and basis at the end of
    phase 1 (its first ``_minimize``)."""

    def _minimize(self, cost_of, width):
        super()._minimize(cost_of, width)
        if not hasattr(self, "phase_one"):
            self.phase_one = (list(self.pivots), list(self.basis))


def dyadic_lp(rng, kind):
    """A seeded dyadic feasibility system ``(columns, b)`` of the given family."""
    n = int(rng.integers(2, 17))
    m = int(rng.integers(2, 17))
    a = rng.integers(0, 16, size=(n, m)) / 2.0 ** int(rng.integers(0, 6))
    if kind == "rank_deficient":
        for j in range(2, m):
            if rng.random() < 0.5:
                a[:, j] = a[:, j - 1] + a[:, j - 2] / 2.0
    if kind == "redundant":
        for i in range(1, n):
            if rng.random() < 0.4:
                a[i] = a[int(rng.integers(0, i))]
    if kind == "infeasible":
        b = rng.integers(1, 17, size=n) / 16.0
    else:
        # A dyadic conic combination, so phase 1 reaches zero; on redundant
        # rows it ends with artificials in the basis at level zero.
        b = a @ (rng.integers(0, 5, size=m) / 4.0)
    cols = [fractions(a[:, j]) for j in range(m)]
    return cols, fractions(b)


def assert_same_phase_one(columns, b):
    """The integer tableau makes the reference's phase-1 pivots and returns
    its x and objective, and its duals where the system is infeasible."""
    reference = ReferencePhaseOne(columns, b, [Fraction(0)] * len(columns))
    (objective, x, y), integer = integer_phase_one(columns, b, IntegerRecording)
    reference_objective, reference_x, reference_y = reference.solve()
    assert (integer.pivots, integer.basis) == reference.phase_one
    assert (objective, x) == (reference_objective, reference_x)
    if objective > 0:
        assert y == reference_y
    return objective, reference.phase_one


class TestIntegerSimplex:
    @pytest.mark.parametrize("kind", ["plain", "infeasible", "rank_deficient", "redundant"])
    def test_matches_fraction_simplex(self, kind):
        rng = np.random.default_rng([17, ["plain", "infeasible", "rank_deficient",
                                          "redundant"].index(kind)])
        for _ in range(60):
            assert_same_phase_one(*dyadic_lp(rng, kind))

    def test_band_program_matches(self):
        rng = np.random.default_rng(23)
        feasible = []
        for _ in range(24):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            a = rng.integers(0, 16, size=(n, m)) / 16.0
            if rng.random() < 0.5:
                a[:, -1] = a[:, 0] + a[:, 1]
            b = rng.integers(1, 17, size=n) / 16.0
            cols = [fractions(a[:, j]) for j in range(m)]
            tol = float(rng.choice([1e-9, 1 / 16, 1 / 4]))
            image, scale = eq._integer_image([*a.T, b])
            image_b = image.pop()
            p, q = tol.as_integer_ratio()
            unit = max(scale, q)
            columns, rhs = eq._band_program(image, image_b, unit // scale, p * unit // q)
            # The image padded with zeros, unit slack columns, and the rhs of
            # the band on the rationals times max(L, q) for tol = p / q.
            exact_columns, exact_rhs = rational_band(fractions(b), cols, Fraction(tol))
            assert columns[:m] == [col + [0] * n for col in image]
            assert columns[m:] == [[int(v) for v in col] for col in exact_columns[m:]]
            assert rhs == [unit * v for v in exact_rhs]
            band = [list(map(Fraction, col)) for col in columns], list(map(Fraction, rhs))
            objective, pivots = assert_same_phase_one(*band)
            feasible.append(objective == 0)
            # Columns scaled, not rows: the pivots of the band on the rationals.
            rational = ReferencePhaseOne(exact_columns, exact_rhs,
                                         [Fraction(0)] * len(exact_columns))
            rational.solve()
            assert rational.phase_one == pivots
        assert any(feasible) and not all(feasible)


def rational_band(b, cols, tol):
    """Columns and rhs of the band program over the rationals, with slacks
    s, w >= 0: ``(A x)_i + s_i = b_i + tol`` and ``s_i + w_i = 2 tol``."""
    n = len(b)
    zero, one = Fraction(0), Fraction(1)
    columns = [col + [zero] * n for col in cols]
    columns += [[one if r in (i, n + i) else zero for r in range(2 * n)] for i in range(n)]
    columns += [[one if r == n + i else zero for r in range(2 * n)] for i in range(n)]
    return columns, [bi + tol for bi in b] + [2 * tol] * n


def planted_non_member(rng, n):
    """A family on which a planted sign vector is <= 0, and a target on
    which it is positive."""
    signs = np.ones(n)
    signs[rng.permutation(n)[: max(1, n // 2)]] = -1.0
    negative = np.flatnonzero(signs < 0)
    family = []
    for _ in range(n):
        row = rng.integers(0, 16, size=n) / 16.0
        excess = float(signs @ row)
        if excess > 0.0:
            row[rng.choice(negative)] += excess
        family.append(eq.FiniteMeasure(row + (row.sum() == 0.0)))
    mu0 = rng.integers(1, 17, size=n) / 16.0
    excess = float(signs @ mu0)
    if excess <= 0.0:
        mu0[np.flatnonzero(signs > 0)[0]] += 1.0 / 16.0 - excess
    return eq.FiniteMeasure(mu0), eq.MeasureFamily(members=tuple(family))


def planted_member(rng, n):
    """A full-rank dyadic family and a dyadic conic combination of it."""
    while True:
        rows = rng.integers(0, 16, size=(n, n)) / 16.0
        if np.linalg.matrix_rank(rows) == n:
            break
    coeffs = rng.integers(1, 9, size=n) / 8.0
    family = eq.MeasureFamily(members=tuple(eq.FiniteMeasure(r) for r in rows))
    return eq.FiniteMeasure(coeffs @ rows), family


def near_member(rng):
    """A dyadic conic combination with its weights moved by 1e-12 .. 1e-8."""
    n = int(rng.integers(2, 6))
    rows = rng.integers(0, 16, size=(int(rng.integers(1, 6)), n)) / 16.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    mu0 = (rng.integers(0, 9, size=len(rows)) / 8.0) @ rows
    shift = float(rng.choice([1e-12, 1e-10, 5e-10, 9e-10, 1.1e-9, 2e-9, 5e-9, 1e-8]))
    mu0 = np.maximum(mu0 + shift * rng.choice([-1.0, 0.0, 1.0], size=n), 0.0)
    family = eq.MeasureFamily(members=tuple(eq.FiniteMeasure(r) for r in rows))
    return eq.FiniteMeasure(mu0), family


def tall_near_member(rng, n, shift):
    """A tall eighth-dyadic family of n / 2 members on n points and a conic
    combination of it moved by ``shift`` in n / 4 coordinates, off its span."""
    rows = rng.integers(0, 9, size=(n // 2, n)) / 8.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    mu0 = (rng.integers(1, 9, size=n // 2) / 8.0) @ rows
    mu0[rng.permutation(n)[: n // 4]] += shift
    family = eq.MeasureFamily(members=tuple(eq.FiniteMeasure(r) for r in rows))
    return eq.FiniteMeasure(mu0), family


def exact_sign_conditions(f, mu0, family):
    pairing = sum(fi * bi for fi, bi in zip(f, fractions(mu0.weights)))
    return pairing > 0 and all(
        sum(fi * ci for fi, ci in zip(f, fractions(m.weights))) <= 0
        for m in family.members
    )


class TestFarkasExit:
    def test_bound_implies_reference_defect_above_tol(self):
        tol = 1e-9
        rng = np.random.default_rng(31)
        for _ in range(30):
            mu0, family = planted_non_member(rng, int(rng.integers(2, 9)))
            b = fractions(mu0.weights)
            cols = [fractions(m.weights) for m in family.members]
            (defect, _, y), _ = integer_phase_one(cols, b)
            assert defect > 0
            assert sum(fi * bi for fi, bi in zip(y, b)) == defect
            assert defect > Fraction(tol) * sum(abs(v) for v in y)
            assert exact_sign_conditions(y, mu0, family)
            t_min, _, _ = FractionSimplex(*defect_program(b, cols)).solve()
            assert t_min > Fraction(tol)
            # The certificate is the Farkas functional itself.
            cert = eq.cone_hull_membership(mu0, family, tol=tol)
            assert cert.verdict == "non_member"
            assert list(cert.separating_f) == [float(v) for v in y]

    @staticmethod
    def count_solves(monkeypatch):
        solves = []

        class Counting(eq._Simplex):
            def solve(self):
                solves.append(self.m)
                return super().solve()

        monkeypatch.setattr(eq, "_Simplex", Counting)
        return solves

    @staticmethod
    def nudged():
        """The instance of test_tolerance_slack: within tol of the cone, so
        the Farkas bound is at most tol and the band solve decides."""
        base = fm(1.0, 0.5, 0.0)
        return eq.FiniteMeasure(base.weights + np.array([1e-12, 0.0, 0.0])), fam(base)

    def test_near_member_reaches_band_program(self, monkeypatch):
        # One member on three points: the elimination runs first, finds the
        # system inconsistent and hands over.
        solves = self.count_solves(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        assert eq.cone_hull_membership(*self.nudged(), tol=1e-9).verdict == "member"
        assert (solves, eliminations) == ([3, 6], [1])

    def test_clear_non_member_skips_band_program(self, monkeypatch):
        # The tall system is inconsistent, so the elimination hands over to
        # one phase 1, whose Farkas bound clears tol.
        solves = self.count_solves(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        assert eq.cone_hull_membership(fm(1.0, 2.0), fam(fm(1.0, 1.0))).verdict == (
            "non_member"
        )
        assert (solves, eliminations) == ([2], [1])

    def test_forged_band_coefficients_are_refused(self, monkeypatch):
        # Coefficients from the band solve, over d * lift with
        # lift = max(L, q) / L for tol = p / q, are checked exactly against
        # the band before a member certificate is issued.
        mu0, family = self.nudged()
        _, scale = eq._integer_image([m.weights for m in family.members] + [mu0.weights])
        lift = max(scale, (1e-9).as_integer_ratio()[1]) // scale

        class Forging(eq._Simplex):
            def solve(self):
                objective, x, y, d = super().solve()
                if self.m == 6:
                    x[0] += (d * lift) >> 20  # about 2**-20 on the first coefficient
                return objective, x, y, d

        monkeypatch.setattr(eq, "_Simplex", Forging)
        with pytest.raises(ArithmeticError, match="member certificate"):
            eq.cone_hull_membership(mu0, family, tol=1e-9)

    @pytest.mark.parametrize("forge", ["flip_target_sign", "lift_a_member"])
    def test_forged_separating_functional_is_refused(self, monkeypatch, forge):
        # The phase-1 Farkas functional of a clear non-member is checked
        # exactly against the image before a non-member certificate is issued:
        # <f, b> > 0 and <f, col> <= 0 for every member column.
        mu0, family = fm(1.0, 2.0), fam(fm(1.0, 1.0))

        class Forging(eq._Simplex):
            def solve(self):
                objective, x, y, d = super().solve()
                if forge == "flip_target_sign":
                    y = [-v for v in y]
                else:
                    y = [v + d for v in y]  # now positive on the member (1, 1)
                return objective, x, y, d

        monkeypatch.setattr(eq, "_Simplex", Forging)
        with pytest.raises(ArithmeticError, match="separating functional"):
            eq.cone_hull_membership(mu0, family)

    def test_near_member_verdicts_match_reference_defect_program(self, monkeypatch):
        # Dyadic members nudged by 1e-12 .. 1e-8 on either side of tol; the
        # exact-dyadic random_instance draws almost never reach the band.
        solves = self.count_solves(monkeypatch)
        rng = np.random.default_rng(41)
        band_verdicts = set()
        for trial in range(60):
            mu0, family = near_member(rng)
            b = fractions(mu0.weights)
            cols = [fractions(m.weights) for m in family.members]
            t_min, _, _ = FractionSimplex(*defect_program(b, cols)).solve()
            expected = "member" if t_min <= Fraction(1e-9) else "non_member"
            solves.clear()
            verdict = eq.cone_hull_membership(mu0, family).verdict
            assert verdict == expected, trial
            if len(solves) == 2:
                band_verdicts.add(verdict)
        assert band_verdicts == {"member", "non_member"}

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_tall_band_member_matches_rational_band(self, monkeypatch, n):
        # Moved 1e-12 off the span: the band decides, and its coefficients
        # over d * lift are the rational band's solution.
        solves = self.count_solves(monkeypatch)
        issued = []
        certify = eq._member_certificate

        def recording(x, d, *args):
            issued.append([Fraction(v, d) for v in x])
            return certify(x, d, *args)

        monkeypatch.setattr(eq, "_member_certificate", recording)
        mu0, family = tall_near_member(np.random.default_rng([53, n]), n, 1e-12)
        cert = eq.cone_hull_membership(mu0, family)
        assert (cert.verdict, solves) == ("member", [n, 2 * n])
        cols = [fractions(m.weights) for m in family.members]
        columns, rhs = rational_band(fractions(mu0.weights), cols, Fraction(1e-9))
        _, x, _ = FractionSimplex(columns, rhs, [Fraction(0)] * len(columns)).solve()
        assert issued == [x[: len(cols)]]
        assert cert.coefficients == tuple((j, float(v)) for j, v in enumerate(x[: len(cols)]) if v)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_tall_band_non_member_separates_exactly(self, monkeypatch, n):
        # Moved 5e-9 off the span: some draws pass the Farkas bound and are
        # refused by the band, whose functional must separate exactly.
        solves = self.count_solves(monkeypatch)
        issued = []
        separate = eq._separating_certificate

        def recording(f, d, *args):
            issued.append([Fraction(v, d) for v in f])
            return separate(f, d, *args)

        monkeypatch.setattr(eq, "_separating_certificate", recording)
        rng = np.random.default_rng([59, n])
        banded = 0
        for _ in range(4):
            mu0, family = tall_near_member(rng, n, 5e-9)
            solves.clear()
            issued.clear()
            cert = eq.cone_hull_membership(mu0, family)
            assert cert.verdict == "non_member"
            (f,) = issued
            assert exact_sign_conditions(f, mu0, family)
            assert list(cert.separating_f) == [float(v) for v in f]
            banded += solves == [n, 2 * n]
        assert banded

    def test_verdicts_match_reference_defect_program(self):
        rng = np.random.default_rng(37)
        for trial in range(40):
            mu0, family = random_instance(rng)
            b = fractions(mu0.weights)
            cols = [fractions(m.weights) for m in family.members]
            t_min, _, _ = FractionSimplex(*defect_program(b, cols)).solve()
            expected = "member" if t_min <= Fraction(1e-9) else "non_member"
            assert eq.cone_hull_membership(mu0, family).verdict == expected, trial


def phase_one_route(mu0, family, tol=1e-9):
    """Verdict, coefficients and separating functional from phase 1 on the
    integer tableau, then the band solve where the Farkas bound is at most
    tol: the route of every query that the elimination does not decide."""
    b = fractions(mu0.weights)
    cols = [fractions(m.weights) for m in family.members]
    (defect, x, y), _ = integer_phase_one(cols, b)
    exact_tol = Fraction(tol)
    if defect > 0:
        if defect > exact_tol * sum(abs(v) for v in y):
            return "non_member", None, [float(v).hex() for v in y]
        (excess, x, y), _ = integer_phase_one(*rational_band(b, cols, exact_tol))
        if excess > 0:
            return "non_member", None, [float(v).hex() for v in y[: mu0.n]]
    coefficients = [(j, float(v).hex()) for j, v in enumerate(x[: len(cols)]) if v != 0]
    return "member", coefficients, None


def certificate_bits(cert):
    coefficients = cert.coefficients
    f = cert.separating_f
    return (
        cert.verdict,
        None if coefficients is None else [(j, c.hex()) for j, c in coefficients],
        None if f is None else [float(v).hex() for v in f],
    )


def sweep_instance(rng, shape, target):
    """A seeded dyadic family of the given shape and a target of the given
    kind: a member with positive or with some zero coefficients, a random
    target (on a tall family almost always outside its cone) or a member
    nudged by 1e-12 .. 1e-8."""
    n = int(rng.integers(2, 9))
    m = {"square": n, "rank_deficient": n, "tall": int(rng.integers(1, n)),
         "wide": n + int(rng.integers(1, 5))}[shape]
    rows = rng.integers(0, 16, size=(m, n)) / 16.0
    if shape == "rank_deficient":
        rows[-1] = rows[0] + rows[-2] / 2.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    coeffs = rng.integers(1, 9, size=m) / 8.0
    if target == "zeros":
        coeffs[rng.permutation(m)[: max(1, m // 3)]] = 0.0
    mu0 = coeffs @ rows
    if target == "random":
        mu0 = rng.integers(0, 17, size=n) / 16.0
    if target == "near":
        shift = float(rng.choice([1e-12, 1e-10, 9e-10, 1.1e-9, 1e-8]))
        mu0 = np.maximum(mu0 + shift * rng.choice([-1.0, 0.0, 1.0], size=n), 0.0)
    family = eq.MeasureFamily(members=tuple(eq.FiniteMeasure(r) for r in rows))
    return eq.FiniteMeasure(mu0), family


def count_eliminations(monkeypatch):
    """Record the family size of each elimination ``cone_hull_membership`` runs."""
    calls = []
    eliminate = eq._eliminate

    def counting(columns, rhs):
        calls.append(len(columns))
        return eliminate(columns, rhs)

    monkeypatch.setattr(eq, "_eliminate", counting)
    return calls


class TestElimination:
    @staticmethod
    def member(rows, coeffs):
        rows = np.array(rows, dtype=float)
        family = eq.MeasureFamily(members=tuple(eq.FiniteMeasure(r) for r in rows))
        return eq.FiniteMeasure(np.array(coeffs) @ rows), family

    @pytest.mark.parametrize("rows, coeffs", [
        # square, tall (3 members on 5 points), and square with zero coefficients
        ([[1, 0.5, 0, 0], [0, 1, 0.25, 0], [0, 0, 1, 0.75], [0.5, 0, 0, 1]],
         [0.5, 1.25, 2.0, 0.125]),
        ([[1, 0.5, 0, 0, 0.25], [0, 1, 0.25, 0, 0], [0, 0, 1, 0.75, 0.5]],
         [3.0, 0.25, 1.5]),
        ([[0.25, 0.5, 0, 0.75], [0, 1, 0.25, 0], [0.5, 0, 1, 0.75], [0.5, 0.25, 0, 1]],
         [0.0, 1.25, 0.0, 0.375]),
    ], ids=["square", "tall", "zero_coefficients"])
    def test_full_column_rank_member_runs_no_simplex(self, monkeypatch, rows, coeffs):
        solves = TestFarkasExit.count_solves(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        mu0, family = self.member(rows, coeffs)
        cert = eq.cone_hull_membership(mu0, family)
        assert cert.coefficients == tuple((j, c) for j, c in enumerate(coeffs) if c)
        assert (solves, eliminations) == ([], [len(rows)])
        monkeypatch.undo()
        assert certificate_bits(cert) == phase_one_route(mu0, family)

    def test_planted_non_member_runs_one_elimination_then_one_solve(self, monkeypatch):
        solves = TestFarkasExit.count_solves(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        mu0, family = planted_non_member(np.random.default_rng(6), 6)
        assert eq.cone_hull_membership(mu0, family).verdict == "non_member"
        assert (solves, eliminations) == ([6], [6])

    def test_eliminate_cases(self):
        # Full rank, after a row swap: x = (1/3, 2/3) over d = |det A| = 9,
        # made positive although the last pivot is -9.
        assert eq._eliminate([[0, 3], [-3, 0]], [-2, 1]) == ([3, 6], 9)
        # A negative solution is returned; the caller rejects it.
        assert eq._eliminate([[1, 0], [0, 1]], [-1, 2]) == ([-1, 2], 1)
        # Short column rank, and an inconsistent tall system.
        assert eq._eliminate([[1, 2], [2, 4]], [3, 6]) is None
        assert eq._eliminate([[1, 1, 0]], [1, 1, 1]) is None
        assert eq._eliminate([[1, 1, 0]], [2, 2, 0]) == ([2], 1)

    @pytest.mark.parametrize("shape", ["square", "tall", "rank_deficient", "wide"])
    def test_matches_phase_one_route_bit_for_bit(self, monkeypatch, shape):
        # Decided by the elimination: it ran, and no simplex did.  Only
        # full-column-rank families (square and tall draws) can be.
        solves = TestFarkasExit.count_solves(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        rng = np.random.default_rng([43, ["square", "tall", "rank_deficient", "wide"].index(shape)])
        verdicts, eliminated = set(), 0
        for trial in range(96):
            target = ("positive", "zeros", "random", "near")[trial % 4]
            mu0, family = sweep_instance(rng, shape, target)
            solves.clear()
            eliminations.clear()
            cert = eq.cone_hull_membership(mu0, family)
            verdicts.add(cert.verdict)
            eliminated += eliminations != [] and solves == []
            solves.clear()
            assert certificate_bits(cert) == phase_one_route(mu0, family), (trial, target)
        assert verdicts == {"member", "non_member"}
        assert (eliminated > 0) == (shape in ("square", "tall"))


class TestCapSizes:
    def test_planted_member_at_caps(self):
        rng = np.random.default_rng(64)
        mu0, family = planted_member(rng, eq.MAX_GROUND_SET)
        assert len(family.members) == eq.MAX_FAMILY
        cert = eq.cone_hull_membership(mu0, family)
        assert cert.verdict == "member"
        recon = [Fraction(0)] * mu0.n
        for j, coeff in cert.coefficients:
            assert coeff > 0.0
            recon = [r + Fraction(coeff) * w
                     for r, w in zip(recon, fractions(family.members[j].weights))]
        assert recon == fractions(mu0.weights)

    def test_planted_non_member_at_32(self):
        rng = np.random.default_rng(32)
        mu0, family = planted_non_member(rng, 32)
        cert = eq.cone_hull_membership(mu0, family)
        assert cert.verdict == "non_member"
        b = fractions(mu0.weights)
        cols = [fractions(m.weights) for m in family.members]
        (_, _, y), _ = integer_phase_one(cols, b)
        assert exact_sign_conditions(y, mu0, family)
        assert list(cert.separating_f) == [float(v) for v in y]


class TestGreedyTrace:
    @staticmethod
    def dyadic_instance(rng, m, n, weighted):
        """A member of a random dyadic family of m measures on n points, as
        (target, candidates, masses, weighted)."""
        family = rng.integers(0, 16, size=(m, n)) / 16.0 + 1.0 / 16.0
        mu0 = (rng.integers(1, 9, size=m) / 8.0) @ family
        masses = family.sum(axis=1)
        if weighted:
            return mu0 / mu0.sum(), family, masses, True
        return mu0 / mu0.sum(), family / masses[:, None], np.ones(m), False

    # (m, n): square families (named by n), then fewer and more members than
    # points, one member, and one point; the step's arrays are laid out (n, m).
    @pytest.mark.parametrize("m, n", [
        *(pytest.param(n, n, id=str(n)) for n in (2, 6, 20, 64)),
        *(pytest.param(m, n, id=f"{m}x{n}") for m, n in ((3, 7), (7, 3), (1, 5), (5, 1))),
    ])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_equals_reference(self, m, n, weighted):
        rng = np.random.default_rng([m, n, weighted])
        got, want = self.trace_both(self.dyadic_instance(rng, m, n, weighted), 3000)
        self.assert_bit_identical(got, want)

    # Instances whose float orbit repeats, as (target, candidates, masses,
    # weighted): the two-candidate alternation of point masses, its weighted
    # form with unequal masses, and a 1 : 2 split of two point masses.
    PERIODIC = {
        "alternating": ([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], False),
        "alternating-weighted": ([0.5, 0.5], [[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0], True),
        "one-two": ([1 / 3, 2 / 3], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], False),
    }

    @staticmethod
    def trace_both(instance, k_max):
        """The package's trace and the reference loop's, for one instance."""
        target, candidates, masses, weighted = (
            np.array(v, dtype=float) if isinstance(v, list) else v for v in instance
        )
        got = eq._greedy_trace(target, candidates, masses, k_max)
        return got, reference_greedy_trace(target, candidates, masses, k_max, weighted)

    @staticmethod
    def assert_bit_identical(got, want):
        assert got.sequence == want.sequence
        assert [e.hex() for e in got.cesaro_errors] == [e.hex() for e in want.cesaro_errors]

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Record each call of the block evaluator as (first step, guess,
        kept picks), optionally after ``alter(guess)`` rewrites the guess.
        The first step is read off the total mass, so it holds for unit
        masses only."""
        calls = []
        evaluate = eq._verified_block

        def recording(guess, running, total_mass, *args):
            guess = recording.alter(guess)
            result = evaluate(guess, running, total_mass, *args)
            calls.append((int(total_mass) + 1, bytes(guess), bytes(result[0])))
            return result

        recording.alter = lambda guess: guess
        recording.calls = calls
        monkeypatch.setattr(eq, "_verified_block", recording)
        return recording

    def test_orbit_without_repeats_takes_single_steps(self, blocks):
        # A dyadic member at n = m = 12 whose orbit repeats no window in
        # 2,000 steps: every step comes from the one-step loop.
        instance = self.dyadic_instance(np.random.default_rng(12), 12, 12, False)
        got, want = self.trace_both(instance, 2000)
        self.assert_bit_identical(got, want)
        assert not any(kept == guess for _, guess, kept in blocks.calls)

    @pytest.mark.parametrize("name", sorted(PERIODIC))
    def test_periodic_blocks_are_accepted(self, name, blocks):
        got, want = self.trace_both(self.PERIODIC[name], 10_000)
        self.assert_bit_identical(got, want)
        verified = sum(len(kept) for _, guess, kept in blocks.calls if kept == guess)
        # The fast path must run: all but the first few windows come from it.
        assert verified >= 9_800

    def test_rounded_orbit_with_hits_and_misses(self, blocks):
        # A dyadic member at n = m = 4 whose running sums round: its orbit
        # repeats in stretches, so blocks are both verified and cut.
        rng = np.random.default_rng(7)
        family = rng.integers(1, 9, size=(4, 4)) / 8.0
        mu0 = (rng.integers(1, 9, size=4) / 8.0) @ family
        candidates = family / family.sum(axis=1)[:, None]
        instance = (mu0 / mu0.sum(), candidates, np.ones(4), False)
        got, want = self.trace_both(instance, 10_000)
        self.assert_bit_identical(got, want)
        outcomes = {kept == guess for _, guess, kept in blocks.calls}
        assert outcomes == {True, False}

    @pytest.mark.parametrize("row", ["first", "interior", "last"])
    def test_wrong_guess_is_cut_at_its_row(self, row, blocks):
        # Every guess is made wrong at one row; the evaluator must keep the
        # rows before it plus that row's true pick, and the trace must not move.
        def alter(guess):
            at = {"first": 0, "interior": len(guess) // 2, "last": len(guess) - 1}[row]
            altered = bytearray(guess)
            altered[at] ^= 1
            alter.rows.append(at)
            return altered

        alter.rows = []
        blocks.alter = alter
        got, want = self.trace_both(self.PERIODIC["alternating"], 3000)
        self.assert_bit_identical(got, want)
        assert blocks.calls
        for (k, guess, kept), at in zip(blocks.calls, alter.rows):
            assert len(kept) == at + 1
            assert kept[:at] == guess[:at] and kept[at] != guess[at]
            assert kept == bytes(want.sequence[k - 1 : k + at])

    def test_block_cut_by_k_max(self, blocks):
        k_max = 100
        got, want = self.trace_both(self.PERIODIC["alternating"], k_max)
        self.assert_bit_identical(got, want)
        k, guess, kept = blocks.calls[-1]
        assert kept == guess
        assert k - 1 + len(guess) == k_max

    @pytest.mark.parametrize("k_max", [1, 2, 31, 32, 33, 63, 64, 65])
    def test_k_max_around_two_windows(self, k_max, blocks):
        # The first window is looked up after 2 * _WINDOW = 64 steps, so
        # below that no block runs, and at 65 one block of one step does.
        got, want = self.trace_both(self.PERIODIC["alternating"], k_max)
        self.assert_bit_identical(got, want)
        assert [len(guess) for _, guess, _ in blocks.calls] == ([1] if k_max == 65 else [])

    def test_ties_take_the_lowest_index(self, blocks):
        # Candidates 1 and 2 are the same measure, so every step that picks
        # one of them is a tie, which the batch must break as the loop does.
        instance = ([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [1.0] * 3, False)
        got, want = self.trace_both(instance, 3000)
        self.assert_bit_identical(got, want)
        assert 2 not in got.sequence
        assert blocks.calls

    @pytest.mark.parametrize("weighted", [False, True])
    def test_largest_family_and_ground_set(self, weighted, blocks):
        # n = m = 64 point masses against the uniform target: period 64, and
        # blocks capped at 2**15 / 64**2 = 8 steps.
        n = eq.MAX_FAMILY
        instance = ([1.0 / n] * n, np.eye(n), np.ones(n), weighted)
        got, want = self.trace_both(instance, 2000)
        self.assert_bit_identical(got, want)
        assert got.sequence[:n] == tuple(range(n))
        assert blocks.calls
        assert max(len(guess) for _, guess, _ in blocks.calls) == 8
