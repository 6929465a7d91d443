"""Closed-form cardinality bounds.

For an ambient dimension D and a maximum-angle cap theta, the bound is
1 / f_d(eta_d(theta)) with d = D - 1, where f_d(eta) is the fraction of the
unit sphere S^d covered by a circular cone's polar (normal) directions:

    f_d(eta) = int_0^{pi/2 - eta} sin^(d-1) t dt / int_0^pi sin^(d-1) t dt
             = I_{cos^2 eta}(d/2, 1/2) / 2

with I the regularized incomplete beta function (DLMF 8.17), evaluated by
its continued fraction. All angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRange, check_int

# Continued-fraction stop test |step - 1| and term cap. With the switch to
# the complement below, no d <= 10^8 needs more than 320 terms at any eta.
CF_TOL = 1e-15
CF_MAX_TERMS = 1000
_TINY = 1e-300
# a = d/2 from which log Gamma(a + 1/2)/Gamma(a) comes from its expansion.
_LGAMMA_SWITCH = 25.0
# Rounding slack at the end of a domain: theta up to this past pi, eta past
# [0, pi/2] and sin(theta/2) / sin(theta_d/2) past 1 count as that end, and
# theta within this below theta_D counts as theta_D, outside the theorem.
EDGE_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    theta: float
    ambient_dim: int
    eta: float
    f_value: float
    bound: float
    theorem_applicable: bool


def theta_d(d: int) -> float:
    """arccos(-1/d): strictly decreasing in d, in (pi/2, pi] for d >= 1."""
    d = check_int(d, "d must be a positive integer, got {!r}", 1)
    return math.acos(-1.0 / d)


def sin_half_theta_d(d: int) -> float:
    """sin(theta_d / 2) = sqrt((d+1) / (2d))."""
    d = check_int(d, "d must be a positive integer, got {!r}", 1)
    return math.sqrt((d + 1.0) / (2.0 * d))


def eta_of_theta(theta: float, d: int) -> float:
    """Cap half-angle eta_d(theta) = arcsin(sin(theta/2) / sin(theta_d/2)).

    Defined for 0 < theta <= theta_d; equals theta/2 when d = 1 and pi/2 at
    theta = theta_d.
    """
    s = sin_half_theta_d(d)
    if not theta > 0.0:
        raise OutOfRange(f"theta must be positive, got {theta}")
    if theta > math.pi + EDGE_TOL:
        raise OutOfRange(f"theta must lie in (0, pi], got {theta}")
    eta = _cap_radius(theta, s)
    if eta is None:
        raise OutOfRange(
            f"theta={theta:.12g} exceeds theta_d={2.0 * math.asin(s):.12g} for d={d}"
        )
    return eta


def _cap_radius(x: float, s: float) -> float | None:
    """asin(sin(x/2) / s) for s = sin(theta_d/2): eta_d(x), which is also
    Dekster's cap radius for geodesic diameter x; None where the ratio
    passes 1 by more than EDGE_TOL."""
    ratio = math.sin(0.5 * x) / s
    return None if ratio > 1.0 + EDGE_TOL else math.asin(min(ratio, 1.0))


def _beta_cf(a: float, b: float, x: float, xc: float, d: int, eta: float) -> float:
    """Continued fraction of I_x(a, b) (DLMF 8.17.22) by the modified Lentz method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times the returned value, which is
    1 / (1 + d_1 / (1 + d_2 / (1 + ...))). It is evaluated in its odd
    contraction, with denominators 1 + d_2m + d_2m+1, so that 1 + d_2m+1 can
    be formed without cancellation: for b <= 1 from xc = 1 - x, computed
    directly by the caller. Near x = 1 that term is of order m/a, and forming
    it from x cost about log10(a) digits.
    """
    # m = 0: 1 + d_1 and d_1; b <= 1 makes every term of the xc form nonnegative.
    h = (1.0 - b + (a + b) * xc) / (a + 1.0) if b <= 1.0 else 1.0 - (a + b) * x / (a + 1.0)
    d_odd = -(a + b) * x / (a + 1.0)
    c, dd = h, 0.0
    for m in range(1, CF_MAX_TERMS + 1):
        q, r = (a + m) * (a + b + m), (a + 2 * m) * (a + 2 * m + 1)
        if b <= 1.0:
            one_plus_odd = ((2 * m + 1 - b) * a + m * (3 * m + 2 - b) + q * xc) / r
        else:
            one_plus_odd = 1.0 - q * x / r
        d_even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        num, den = -d_odd * d_even, d_even + one_plus_odd
        d_odd = -q * x / r
        dd = den + num * dd
        dd = 1.0 / (dd if abs(dd) > _TINY else _TINY)
        c = den + num / c
        c = c if abs(c) > _TINY else _TINY
        step = c * dd
        h *= step
        if abs(step - 1.0) < CF_TOL:
            return 1.0 / h
    raise RuntimeError(f"sphere fraction: continued fraction for d={d}, eta={eta!r} "
                       f"did not converge in {CF_MAX_TERMS} terms")


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) / Gamma(a).

    Above the switch the difference of two lgamma values, each of size
    a log a, would lose that many digits; the large-a expansion (DLMF 5.11.13)
    is truncated after the z^-7 term, whose successor is at most 4.4e-16 there.
    """
    if a < _LGAMMA_SWITCH:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    w = 1.0 / (a * a)
    return 0.5 * math.log(a) - (0.125 - w * (1.0 / 192 - w * (1.0 / 640 - w * 17.0 / 14336))) / a


def f_fraction(d: int, eta: float) -> float:
    """Fraction of S^d polar to a cone of half-angle eta: I_{cos^2 eta}(d/2, 1/2) / 2.

    The prefactor cos^d(eta) sin(eta) / B(d/2, 1/2) is taken in logs, so it
    underflows gracefully for large d. Below cos^2 eta = (a+1)/(a+3/2), with
    a = d/2, the fraction runs on I_{cos^2 eta}(a, 1/2) directly; above it,
    on the complement I_{sin^2 eta}(1/2, a), with sin^2 eta computed directly.
    """
    d = check_int(d, "d must be a positive integer, got {!r}", 1)
    if not -EDGE_TOL <= eta <= 0.5 * math.pi + EDGE_TOL:
        raise OutOfRange(f"eta must lie in [0, pi/2], got {eta}")
    eta = min(max(eta, 0.0), 0.5 * math.pi)
    if eta == 0.0:
        return 0.5
    if eta == 0.5 * math.pi:
        return 0.0
    a = 0.5 * d
    cos_e, sin_e = math.cos(eta), math.sin(eta)
    x, y = cos_e * cos_e, sin_e * sin_e
    # d log cos(eta) would carry d times the rounding error of cos(eta).
    log_cos = 0.5 * math.log1p(-y) if y < 0.5 else math.log(cos_e)
    log_pref = (_log_gamma_ratio(a) - math.lgamma(0.5)
                + d * log_cos + math.log(sin_e))
    pref = math.exp(log_pref)
    if x < (a + 1.0) / (a + 1.5):
        return 0.5 * pref * _beta_cf(a, 0.5, x, y, d, eta) / a
    return 0.5 - pref * _beta_cf(0.5, a, y, x, d, eta)


def cardinality_bound(theta: float, ambient_dim: int) -> BoundReport:
    """Upper bound 1 / f_d(eta_d(theta)) on |A| for A in R^D with angles <= theta.

    Uses d = D - 1. The bound is rigorous for 0 < theta < theta_D; for
    theta in [theta_D, theta_(D-1)] the formula still evaluates and is
    reported with theorem_applicable = False.
    """
    D = check_int(ambient_dim, "ambient_dim must be an integer >= 2, got {!r}", 2)
    d = D - 1
    eta = eta_of_theta(theta, d)
    f = f_fraction(d, eta)
    bound = 1.0 / f if f > 0.0 else math.inf
    # Strict hypothesis theta < theta_D; values within EDGE_TOL of the threshold
    # count as the boundary so that e.g. theta = 2*pi/3 at D = 2 is flagged.
    return BoundReport(
        theta=float(theta),
        ambient_dim=D,
        eta=eta,
        f_value=f,
        bound=bound,
        theorem_applicable=bool(theta < theta_d(D) - EDGE_TOL),
    )


def asymptotic_envelope(d: int) -> float:
    """Growth envelope 2 (pi/2)^(2d-1) d^(d/2) of the right-angle bound in dimension d."""
    d = check_int(d, "d must be an integer >= 2, got {!r}", 2)
    log_val = math.log(2.0) + (2 * d - 1) * math.log(0.5 * math.pi) + 0.5 * d * math.log(d)
    if log_val > math.log(1.7976931348623157e308):
        raise OverflowError(f"envelope exceeds float range at d={d}")
    return math.exp(log_val)
