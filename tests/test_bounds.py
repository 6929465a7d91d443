import math

import numpy as np
import pytest
from scipy.special import betainc

from anglebound import bounds
from anglebound.bounds import (
    asymptotic_envelope,
    cardinality_bound,
    eta_of_theta,
    f_fraction,
    sin_half_theta_d,
    theta_d,
)
from anglebound.errors import OutOfRange


def f1_closed(eta):
    return 0.5 - eta / math.pi


def f2_closed(eta):
    return 0.5 * (1.0 - math.cos(math.pi / 2 - eta))


def f3_closed(eta):
    x = math.pi / 2 - eta
    return (x / 2 - math.sin(2 * x) / 4) / (math.pi / 2)


class TestThetaD:
    def test_known_values(self):
        assert theta_d(1) == pytest.approx(math.pi, abs=1e-15)
        assert theta_d(2) == pytest.approx(2 * math.pi / 3, abs=1e-15)
        assert theta_d(3) == pytest.approx(1.9106332362490186, abs=1e-15)

    def test_strictly_decreasing_toward_half_pi(self):
        vals = [theta_d(d) for d in range(1, 60)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > math.pi / 2 for v in vals)

    def test_rejects_bad_d(self):
        with pytest.raises(OutOfRange):
            theta_d(0)
        with pytest.raises(OutOfRange):
            theta_d(2.5)

    def test_sin_half_theta_identity(self):
        for d in range(1, 30):
            assert sin_half_theta_d(d) == pytest.approx(math.sin(theta_d(d) / 2), abs=1e-15)


class TestEtaOfTheta:
    def test_d1_is_half_theta(self):
        for theta in [0.3, 1.0, 2.0, 3.0]:
            assert eta_of_theta(theta, 1) == pytest.approx(theta / 2, abs=1e-15)

    def test_at_theta_d_gives_right_angle(self):
        for d in [1, 2, 5, 9]:
            assert eta_of_theta(theta_d(d), d) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_d2_right_angle_value(self):
        assert eta_of_theta(math.pi / 2, 2) == pytest.approx(0.9553166181245093, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            eta_of_theta(0.0, 2)
        with pytest.raises(OutOfRange):
            eta_of_theta(theta_d(2) + 1e-6, 2)


class TestFFraction:
    @pytest.mark.parametrize("d,closed", [(1, f1_closed), (2, f2_closed), (3, f3_closed)])
    def test_matches_closed_forms(self, d, closed):
        for eta in np.linspace(0.0, math.pi / 2, 50):
            got = f_fraction(d, float(eta))
            assert got == pytest.approx(closed(eta), abs=1e-10)

    def test_eta_zero_is_half(self):
        for d in [1, 2, 3, 7, 25, 80]:
            assert f_fraction(d, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_d3_spot_value_from_antiderivative(self):
        x = math.pi / 2 - 0.5
        expected = (x / 2 - math.sin(2 * x) / 4) / (math.pi / 2)
        assert f_fraction(3, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_matches_incomplete_beta_identity(self):
        # int_0^x sin^(d-1) = B(sin^2 x; d/2, 1/2) / 2, so
        # f_d(eta) = betainc(d/2, 1/2, cos^2 eta) / 2.
        # The grid reaches within 1e-6 of pi/2, where f is small and a
        # quadrature of the integral loses digits.
        etas = [*np.linspace(1e-3, math.pi / 2 - 1e-3, 60), math.pi / 2 - 1e-6]
        for d in [*range(1, 21), 40, 90, 200, 1000]:
            for eta in map(float, etas):
                expected = betainc(d / 2, 0.5, math.cos(eta) ** 2) / 2
                assert f_fraction(d, eta) == pytest.approx(expected, rel=1e-11), (d, eta)

    @pytest.mark.parametrize("d", [10**4, 10**5, 10**6])
    def test_large_d_against_mpmath(self, d):
        # Near cos^2 eta = 1 - 1/d both the lgamma difference and the
        # continued fraction's 1 + d_(2m+1) terms once lost log10(d) digits.
        # The grid stops where f is about exp(-500), well above underflow.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for eta in map(float, np.geomspace(1e-4, math.sqrt(1000.0 / d), 15)):
                x = mpmath.cos(mpmath.mpf(eta)) ** 2
                expected = mpmath.betainc(d / 2, 0.5, 0, x, regularized=True) / 2
                assert abs(f_fraction(d, eta) / expected - 1) <= 1e-12, (d, eta)

    def test_term_cap_raises_instead_of_returning(self, monkeypatch):
        monkeypatch.setattr(bounds, "CF_MAX_TERMS", 3)
        with pytest.raises(RuntimeError, match=r"d=17, eta=1\.0 did not converge in 3 terms"):
            f_fraction(17, 1.0)

    def test_strictly_decreasing_in_eta(self):
        grid = np.arange(0.0, 1.5001, 0.1)
        for d in [1, 2, 3, 5, 10]:
            vals = [f_fraction(d, float(e)) for e in grid]
            diffs = np.diff(vals)
            assert np.all(diffs < 0)

    def test_strictly_decreasing_in_d(self):
        for eta in [0.2, 0.8, 1.2]:
            vals = [f_fraction(d, eta) for d in range(1, 21)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_eta(self):
        with pytest.raises(OutOfRange):
            f_fraction(2, -0.1)
        with pytest.raises(OutOfRange):
            f_fraction(2, math.pi / 2 + 0.1)


class TestCardinalityBound:
    def test_sharp_planar_values(self):
        assert cardinality_bound(1e-9, 2).bound == pytest.approx(2.0, abs=1e-9)
        assert cardinality_bound(math.pi / 3, 2).bound == pytest.approx(3.0, abs=1e-9)
        assert cardinality_bound(math.pi / 2, 2).bound == pytest.approx(4.0, abs=1e-9)

    def test_planar_boundary_gives_six_formula_only(self):
        rep = cardinality_bound(2 * math.pi / 3, 2)
        assert rep.bound == pytest.approx(6.0, abs=1e-9)
        assert rep.theorem_applicable is False

    def test_right_angle_in_three_dims(self):
        rep = cardinality_bound(math.pi / 2, 3)
        assert 10.85 <= rep.bound <= 10.95
        assert rep.theorem_applicable is True

    def test_bound_nondecreasing_in_dimension(self):
        vals = [cardinality_bound(1.7, D).bound for D in range(2, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_does_not_contradict_hypercube(self):
        for D in range(2, 11):
            assert cardinality_bound(math.pi / 2, D).bound >= 2**D - 1e-6

    def test_bound_exceeds_the_cube_wherever_the_theorem_applies(self):
        # The cube's 2^D vertices have every angle at most pi/2 < theta, so the
        # theorem's bound must exceed 2^D: a cross-check of f_fraction against
        # a construction. The closest ratio is about 1.0017, at D = 2, 90.15 deg.
        ratios = []
        for D in range(2, 40):
            for k in range(1, 201):
                theta = math.pi / 2 + (theta_d(D) - math.pi / 2) * k / 201
                rep = cardinality_bound(theta, D)
                assert rep.theorem_applicable, (D, theta)
                ratios.append(rep.bound / 2**D)
        assert min(ratios) > 1.0
        assert min(ratios) == pytest.approx(1.0017, abs=1e-4)

    def test_invariants_of_report(self):
        rep = cardinality_bound(1.2, 4)
        assert rep.bound == 1.0 / rep.f_value
        assert rep.eta == eta_of_theta(1.2, 3)

    def test_rejects_theta_beyond_formula_domain(self):
        with pytest.raises(OutOfRange):
            cardinality_bound(theta_d(1) + 1e-6, 2)
        with pytest.raises(OutOfRange):
            cardinality_bound(2.0, 5)  # theta_4 = 1.823 < 2.0


class TestAsymptoticEnvelope:
    def test_small_values(self):
        assert asymptotic_envelope(2) == pytest.approx(2 * (math.pi / 2) ** 3 * 2, rel=1e-12)
        assert asymptotic_envelope(3) == pytest.approx(
            2 * (math.pi / 2) ** 5 * 3**1.5, rel=1e-12)

    def test_envelope_dominates_right_angle_bound(self):
        for d in range(2, 41):
            bound = 1.0 / f_fraction(d, eta_of_theta(math.pi / 2, d))
            assert bound <= 1.5 * asymptotic_envelope(d)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            asymptotic_envelope(10_000)

    def test_rejects_small_d(self):
        with pytest.raises(OutOfRange):
            asymptotic_envelope(1)

