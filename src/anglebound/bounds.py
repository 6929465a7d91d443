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

from .errors import OutOfRange

# Continued-fraction stop test |step - 1| and term cap. With the switch to
# the complement below, no d <= 10^8 needs more than 320 terms at any eta.
CF_TOL = 1e-15
CF_MAX_TERMS = 1000
_TINY = 1e-300


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
    if int(d) != d or d < 1:
        raise OutOfRange(f"d must be a positive integer, got {d!r}")
    return math.acos(-1.0 / d)


def sin_half_theta_d(d: int) -> float:
    """sin(theta_d / 2) = sqrt((d+1) / (2d))."""
    if int(d) != d or d < 1:
        raise OutOfRange(f"d must be a positive integer, got {d!r}")
    return math.sqrt((d + 1.0) / (2.0 * d))


def eta_of_theta(theta: float, d: int) -> float:
    """Cap half-angle eta_d(theta) = arcsin(sin(theta/2) / sin(theta_d/2)).

    Defined for 0 < theta <= theta_d; equals theta/2 when d = 1 and pi/2 at
    theta = theta_d.
    """
    s = sin_half_theta_d(d)
    if not theta > 0.0:
        raise OutOfRange(f"theta must be positive, got {theta}")
    if theta > math.pi + 1e-12:
        raise OutOfRange(f"theta must lie in (0, pi], got {theta}")
    ratio = math.sin(0.5 * theta) / s
    if ratio > 1.0 + 1e-12:
        raise OutOfRange(
            f"theta={theta:.12g} exceeds theta_d={2.0 * math.asin(s):.12g} for d={d}"
        )
    return math.asin(min(ratio, 1.0))


def _beta_cf(a: float, b: float, x: float, d: int, eta: float) -> float:
    """Continued fraction of I_x(a, b) (DLMF 8.17.22) by the modified Lentz method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times the returned value.
    """
    c, dd = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    dd = 1.0 / (dd if abs(dd) > _TINY else _TINY)
    h = dd
    for m in range(1, CF_MAX_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            dd = 1.0 + num * dd
            dd = 1.0 / (dd if abs(dd) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            step = c * dd
            h *= step
        if abs(step - 1.0) < CF_TOL:
            return h
    raise RuntimeError(f"sphere fraction: continued fraction for d={d}, eta={eta!r} "
                       f"did not converge in {CF_MAX_TERMS} terms")


def f_fraction(d: int, eta: float) -> float:
    """Fraction of S^d polar to a cone of half-angle eta: I_{cos^2 eta}(d/2, 1/2) / 2.

    The prefactor cos^d(eta) sin(eta) / B(d/2, 1/2) is taken in logs, so it
    underflows gracefully for large d. Below cos^2 eta = (a+1)/(a+3/2), with
    a = d/2, the fraction runs on I_{cos^2 eta}(a, 1/2) directly; above it,
    on the complement I_{sin^2 eta}(1/2, a), with sin^2 eta computed directly.
    """
    if int(d) != d or d < 1:
        raise OutOfRange(f"d must be a positive integer, got {d!r}")
    d = int(d)
    if eta < -1e-12 or eta > 0.5 * math.pi + 1e-12:
        raise OutOfRange(f"eta must lie in [0, pi/2], got {eta}")
    eta = min(max(eta, 0.0), 0.5 * math.pi)
    if eta == 0.0:
        return 0.5
    if eta == 0.5 * math.pi:
        return 0.0
    a = 0.5 * d
    cos_e, sin_e = math.cos(eta), math.sin(eta)
    x, y = cos_e * cos_e, sin_e * sin_e
    log_pref = (math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5)
                + d * math.log(cos_e) + math.log(sin_e))
    pref = math.exp(log_pref)
    if x < (a + 1.0) / (a + 1.5):
        return 0.5 * pref * _beta_cf(a, 0.5, x, d, eta) / a
    return 0.5 - pref * _beta_cf(0.5, a, y, d, eta)


def cardinality_bound(theta: float, ambient_dim: int) -> BoundReport:
    """Upper bound 1 / f_d(eta_d(theta)) on |A| for A in R^D with angles <= theta.

    Uses d = D - 1. The bound is rigorous for 0 < theta < theta_D; for
    theta in [theta_D, theta_(D-1)] the formula still evaluates and is
    reported with theorem_applicable = False.
    """
    D = ambient_dim
    if int(D) != D or D < 2:
        raise OutOfRange(f"ambient_dim must be an integer >= 2, got {D!r}")
    D = int(D)
    d = D - 1
    eta = eta_of_theta(theta, d)
    f = f_fraction(d, eta)
    bound = 1.0 / f if f > 0.0 else math.inf
    # Strict hypothesis theta < theta_D; values within 1e-12 of the threshold
    # count as the boundary so that e.g. theta = 2*pi/3 at D = 2 is flagged.
    return BoundReport(
        theta=float(theta),
        ambient_dim=D,
        eta=eta,
        f_value=f,
        bound=bound,
        theorem_applicable=bool(theta < theta_d(D) - 1e-12),
    )


def asymptotic_envelope(d: int) -> float:
    """Growth envelope 2 (pi/2)^(2d-1) d^(d/2) of the right-angle bound in dimension d."""
    if int(d) != d or d < 2:
        raise OutOfRange(f"d must be an integer >= 2, got {d!r}")
    d = int(d)
    log_val = math.log(2.0) + (2 * d - 1) * math.log(0.5 * math.pi) + 0.5 * d * math.log(d)
    if log_val > math.log(1.7976931348623157e308):
        raise OverflowError(f"envelope exceeds float range at d={d}")
    return math.exp(log_val)
