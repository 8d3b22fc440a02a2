"""Invariant bridge between the AdS and sphere sectors.

The one-winding family is labelled by rescaled frequency pairs (e, f) and
(a, b) with f^2 - e^2 = 1 = b^2 - a^2.  Matching the worldsheet gauge
invariants (mu^2, mubar^2, cosh alpha, cos beta) computed on either sector
leaves (f, b) as coordinates on the isometry invariants cosh 2theta = b f - b^2 + 1
and cos 2theta_s = f^2 - b f - 1.  Each sector writes the invariants in one form,
with sign s = +1, (x, r, c) = (f, e, cosh 2theta) on AdS and s = -1,
(x, r, c) = (b, a, cos 2theta_s) on the sphere:

    mu^2 = (n^2/4)(x - s)(x + c),   mubar^2 = (n^2/4)(x + s)(x - c),
    cosh alpha (AdS) and cos beta (sphere) = r / sqrt(r^2 + 1 - c^2).

The cross identities 4 mu mubar cosh alpha = E^2 and 4 mu mubar cos beta = A^2
(E = n e, A = n a) let the induced metric and feasibility_general's current matching
work in products, finite on the b = 1 edge where mu mubar = 0 and the ratios are not.
The relations, the two sides and the band margins (_band_margins) take floats (through
math) or arrays (scan_region, once per grid), bit for bit alike.  Each input check is written
once: the winding rule _winding, the number rule _numbers, the family point SimpleFamilyPoint.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .algebra import DegenerateConfigurationError, ValidationError


class RegionError(ValidationError):
    """(f, b) point lies outside the admissible region."""


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _band_margins(f, b):
    """(f - 1, b - 1, f - b, 2 - (f^2 - b f)), on floats or elementwise on arrays.

    The last is 1 - cos 2theta_s, negative above f_max(b) and nan or -inf where f^2 overflows.
    The closed band 1 <= b <= f <= f_max(b) is where every margin is >= 0, the string chart's
    open band where the last three are > 0.
    """
    return f - 1.0, b - 1.0, f - b, 2.0 - (f * f - b * f)


def admissible(f, b):
    """Check 1 <= b <= f <= (b + sqrt(b^2 + 8)) / 2, naming the first negative band margin."""
    if not (math.isfinite(f) and math.isfinite(b)):
        return Admissibility(False, "non-finite input")
    reasons = ("f < 1", "b < 1", "f < b (cosh2theta < 1)",
               "cos2theta_s out of range (f^2 - b f - 2 > 0)")
    for margin, reason in zip(_band_margins(f, b), reasons):
        if not margin >= 0.0:  # with f and b finite, only the last margin can overflow
            return Admissibility(False, reason if math.isfinite(margin) else "f^2 overflows")
    return Admissibility(True)


def _root(x, where=True):
    """sqrt(max(0, x)) where `where` holds, else nan; math on floats, which is faster there."""
    if isinstance(x, np.ndarray):
        return np.where(where, np.sqrt(np.fmax(0.0, x)), np.nan)
    return math.sqrt(max(0.0, x)) if where else math.nan


def _winding(w, name, positive=False):
    """w as an int, under the one winding rule: ValidationError unless w is an integral real
    number (not a bool or a string; 3.0 counts) of size at most 1.8e308, the largest a float
    holds, and at least 1 where `positive`."""
    least = 1 if positive else -sys.float_info.max
    if (isinstance(w, bool) or not isinstance(w, numbers.Real)
            or not least <= w <= sys.float_info.max or int(w) != w):
        raise ValidationError(f"winding {name} must be " + (
            "a positive integer below 1.8e308" if positive else "an integer"))
    return int(w)


def _numbers(value, name):
    """A JSON number (or lists and objects of them) as floats; bool, str or null raise by name."""
    if isinstance(value, dict):
        return {k: _numbers(v, f"{name}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [_numbers(v, f"{name}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number")
    return float(value)


def check_winding(n):
    """n as an int; ValidationError unless it is a positive winding."""
    return _winding(n, "n", positive=True)


def check_windings(m, n, m_s, n_s):
    """The four windings as ints; ValidationError unless windings with even m - n, m_s - n_s."""
    m, n, m_s, n_s = map(_winding, (m, n, m_s, n_s), ("m", "n", "m_s", "n_s"))
    if (m - n) % 2:
        raise ValidationError(f"m - n = {m - n} is odd (windings must share parity)")
    if (m_s - n_s) % 2:
        raise ValidationError(f"m_s - n_s = {m_s - n_s} is odd")
    return m, n, m_s, n_s


def f_max(b):
    """Upper edge of the band, where cos 2theta_s reaches +1: the largest admissible float f."""
    f = 0.5 * (b + math.sqrt(b * b + 8.0))
    while _band_margins(f, b)[-1] < 0.0:
        f = math.nextafter(f, -math.inf)
    while _band_margins(math.nextafter(f, math.inf), b)[-1] >= 0.0:
        f = math.nextafter(f, math.inf)
    return f


class FamilyRelations(namedtuple("FamilyRelations", (
        "f", "b", "e2", "a2", "e", "a", "E", "F", "A", "B", "lam", "rho", "lam_s", "rho_s",
        "cosh2theta", "cos2theta_s", "m", "n", "m_s", "n_s"))):
    """Everything the one-winding family fixes at (f, b, n); see family_relations."""

    __slots__ = ()


def family_relations(f, b, n):
    """The one-winding family at (f, b) and winding n, written once.

    e^2 = f^2 - 1, a^2 = b^2 - 1, (E, F, A, B) = n (e, f, a, b),
    lam, rho = (E +- F)/2, lam_s, rho_s = (A + B)/2, (B - A)/2, the two angle
    invariants of the module docstring and the windings m = -n, m_s = n_s = n.
    No admissibility check: scans tabulate points outside the band too.
    """
    e2 = f * f - 1.0
    a2 = b * b - 1.0
    e = _root(e2)
    a = _root(a2)
    E, F, A, B = n * e, n * f, n * a, n * b
    return FamilyRelations(
        f, b, e2, a2, e, a, E, F, A, B,
        0.5 * (E + F), 0.5 * (E - F), 0.5 * (A + B), 0.5 * (B - A),
        b * f - b * b + 1.0, f * f - b * f - 1.0, -n, n, n, n)


class SimpleFamilyPoint(FamilyRelations):
    """One-winding sector point, windings m_s = n_s = -m = n > 0: the validated family_relations.

    RegionError ("inadmissible (f, b): <reason>") unless (f, b) is admissible.
    """

    __slots__ = ()

    def __new__(cls, f, b, n=1):
        n = check_winding(n)
        ok = admissible(f, b)
        if not ok:
            raise RegionError(f"inadmissible (f, b): {ok.reason}")
        return super().__new__(cls, *family_relations(f, b, n))


def family_angles(cosh2theta, cos2theta_s):
    """theta >= 0 and theta_s in [0, pi/2], with the invariants clipped to their ranges."""
    return (0.5 * math.acosh(max(cosh2theta, 1.0)),
            0.5 * math.acos(min(1.0, max(-1.0, cos2theta_s))))


def family_tangent(rel):
    """(d/df, d/db) of lam, rho, lam_s, rho_s, cosh 2theta, cos 2theta_s, theta, theta_s: (8, 2).

    dlam/df = lam/e and drho/df = -rho/e (sphere: over a, in b); dtheta = dcosh2theta /
    (2 sinh 2theta), dtheta_s = -dcos2theta_s / (2 sin 2theta_s) with both sines factored
    through the edges f = b and f = f_max(b), where they and a = 0 raise.
    """
    f, b = rel.f, rel.b
    *_, gap, top = _band_margins(f, b)  # f - b and 1 - cos 2theta_s, >= 0 in the band
    sinh2t = math.sqrt(max(0.0, b * gap * (rel.cosh2theta + 1.0)))
    sin2ts = math.sqrt(max(0.0, top * f * gap))
    if not (rel.a > 0.0 and sinh2t > 0.0 and sin2ts > 0.0):
        raise DegenerateConfigurationError(
            "chart tangents diverge on the band edges b = 1, f = b and f = f_max(b)")
    d_c2t, d_c2ts = (b, f - 2.0 * b), (2.0 * f - b, -f)
    return np.array([(rel.lam / rel.e, 0.0), (-rel.rho / rel.e, 0.0),
                     (0.0, rel.lam_s / rel.a), (0.0, -rel.rho_s / rel.a), d_c2t, d_c2ts,
                     np.divide(d_c2t, 2.0 * sinh2t), np.divide(d_c2ts, -2.0 * sin2ts)])


def _sector_invariants(rel):
    """(mu^2, mubar^2, cosh alpha) of the AdS and (mu^2, mubar^2, cos beta) of the sphere sector.

    The one form of the module docstring; the ratio is nan where r = 0 or r^2 + 1 - c^2 <= 0.
    """
    out = []
    for s, x, r, r2, c in ((1.0, rel.f, rel.e, rel.e2, rel.cosh2theta),
                           (-1.0, rel.b, rel.a, rel.a2, rel.cos2theta_s)):
        denom = r2 + (1.0 - c * c)
        out.append((0.25 * rel.n * rel.n * (x - s) * (x + c),
                    0.25 * rel.n * rel.n * (x + s) * (x - c),
                    r / _root(denom, (denom > 0.0) & (r2 > 0.0))))
    return out


_POINT_FIELDS = tuple("n f b e a E F A B lam rho lam_s rho_s cosh2theta cos2theta_s".split())


@dataclass(frozen=True)
class InvariantBlock:
    """A family point's _POINT_FIELDS (read through), angles, invariants and degenerate flags."""

    point: SimpleFamilyPoint
    theta: float
    theta_s: float
    mu2: float
    mubar2: float
    mu: float
    mubar: float
    coshalpha: float
    cosbeta: float
    degenerate: tuple = ()

    def as_dict(self):
        return ({k: getattr(self.point, k) for k in _POINT_FIELDS}
                | {k.name: getattr(self, k.name) for k in fields(self)[1:]}
                | {"degenerate": list(self.degenerate)})


for _name in _POINT_FIELDS:
    setattr(InvariantBlock, _name, property(attrgetter(f"point.{_name}")))


def bridge(f, b, n=1):
    """Solve the invariant bridge at (f, b) for winding n >= 1.

    mu^2, mubar^2, cosh alpha from the AdS side of _sector_invariants, cos beta from the sphere
    side; degenerate boundary points carry flags instead of errors, so that scans traverse them.
    """
    point = SimpleFamilyPoint(f, b, n)
    c2ts = point.cos2theta_s
    (mu2, mubar2, coshalpha), (*_, cosbeta) = _sector_invariants(point)
    mu2, mubar2 = max(0.0, mu2), max(0.0, mubar2)
    flags = tuple(flag for flag, hit in (
        ("theta=0 (AdS center worldline)", f <= b),
        ("theta_s=0 (sphere circle)", c2ts >= 1.0 - 1e-15),
        ("theta_s=pi/2 (sphere circle)", c2ts <= -1.0 + 1e-15),
        ("mu*mubar=0 (alpha/beta undefined)", mu2 * mubar2 <= 1e-30)) if hit)
    return InvariantBlock(point, *family_angles(point.cosh2theta, c2ts), mu2, mubar2,
                          math.sqrt(mu2), math.sqrt(mubar2), coshalpha, cosbeta, flags)


def scan_region(f_range, b_range, n=1):
    """Tabulate admissibility and invariants over a rectangular (f, b) grid.

    f_range and b_range are (start, stop, count) with count >= 1.  Returns
    columns, f-major then b: 1-D arrays f, b, admissible (bool), cosh2theta,
    cos2theta_s, mu2, mubar2 (AdS side), coshalpha, cosbeta, each equal bit
    for bit to the float relations and bool(admissible) at its point.
    """
    check_winding(n)
    f_vals = _grid_values(f_range, "f")
    b_vals = _grid_values(b_range, "b")
    f = np.repeat(f_vals, b_vals.size)
    b = np.tile(b_vals, f_vals.size)
    ok = np.ones((f_vals.size, b_vals.size), dtype=bool)  # f-major, as f and b
    with np.errstate(over="ignore", invalid="ignore"):  # math overflows to inf silently too
        # on the outer grid, where f - 1 and b - 1 are one column and one row, not full arrays
        for margin in _band_margins(f_vals[:, None], b_vals):
            ok &= margin >= 0.0
        rel = family_relations(f, b, n)
        (mu2, mubar2, coshalpha), (*_, cosbeta) = _sector_invariants(rel)
    return {"f": f, "b": b, "admissible": ok.ravel(),
            "cosh2theta": rel.cosh2theta, "cos2theta_s": rel.cos2theta_s,
            "mu2": mu2, "mubar2": mubar2, "coshalpha": coshalpha, "cosbeta": cosbeta}


def _grid_values(rng, name):
    start, stop, count = rng
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"{name} grid bounds must be finite")
    count = int(count)
    if count < 1:
        raise ValidationError(f"empty {name} grid")
    if count == 1:
        return np.array([float(start)])
    if stop < start:
        raise ValidationError(f"{name} range must be monotone")
    return np.linspace(float(start), float(stop), count)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    residual: float
    mu2: float
    mubar2: float
    coshalpha: float
    cosbeta: float

    def __bool__(self):
        return self.feasible


# The constant design of _matching's equations, for (mu^2, mubar^2, p, q), and its pseudo-inverse
_MATCHING = np.array([row for p in np.eye(2) for row in
                      ((1.0, 1.0, *p), (1.0, 1.0, *-p), (1.0, -1.0, 0.0, 0.0))])
_MATCHING_PINV = np.linalg.pinv(_MATCHING)
_ROOT_MAX = math.sqrt(sys.float_info.max)
_FEASIBILITY_TOL = 1e-8  # feasibility_general's slack, relative to the frequencies


def _matching(lam, rho, m, n, c):
    """Least-squares (mu^2, mubar^2, p, q) of the six current-matching equations, and residuals.

    lam, rho, m, n and c are (AdS, sphere) arrays, as SolutionParams.matrices[:4] and
    solutions.theta_invariants give them.  With u, v = m/2, n/2 and P = p = 2 mu mubar cosh alpha
    on AdS, P = q = 2 mu mubar cos beta on the sphere, each sector reads
        lam^2 + rho^2 + 2 lam rho c        = mu^2 + mubar^2 + P
        u^2 + v^2 + 2 u v c                = mu^2 + mubar^2 - P
        lam u + rho v + (lam v + rho u) c  = mu^2 - mubar^2
    """
    u, v = 0.5 * m, 0.5 * n
    lhs = np.stack([lam * lam + rho * rho + 2.0 * lam * rho * c,
                    u * u + v * v + 2.0 * u * v * c,
                    lam * u + rho * v + (lam * v + rho * u) * c], axis=-1).ravel()
    x = _MATCHING_PINV @ lhs
    return x, _MATCHING @ x - lhs


def feasibility_general(m, n, m_s, n_s, lam, rho, lam_s, rho_s, cosh2theta, cos2theta_s):
    """Check whether a general winding sector admits consistent invariants.

    Solves the current matching of _matching for (mu^2, mubar^2, p, q).  Feasible means that
    the residual, mu^2, mubar^2 >= 0 and the products p >= 2 sqrt(mu^2 mubar^2) >= |q| hold
    to _FEASIBILITY_TOL max(1, lam^2 + rho^2, lam_s^2 + rho_s^2); cosh alpha = p / (2 mu mubar)
    and cos beta = q / (2 mu mubar) are nan where 2 mu mubar is within that slack.  The residual
    is a diagnostic, not a classification.  Every input must be finite with a finite square.
    """
    m, n, m_s, n_s = check_windings(m, n, m_s, n_s)
    args = dict(m=m, n=n, m_s=m_s, n_s=n_s, lam=lam, rho=rho, lam_s=lam_s, rho_s=rho_s,
                cosh2theta=cosh2theta, cos2theta_s=cos2theta_s)
    for name, value in args.items():
        if not abs(value) <= _ROOT_MAX:
            raise ValidationError(f"{name} must be finite, with a square below 1.8e308")
    slack = _FEASIBILITY_TOL * max(1.0, lam * lam + rho * rho, lam_s * lam_s + rho_s * rho_s)
    with np.errstate(over="ignore", invalid="ignore"):
        x, residuals = _matching(*np.array([(lam, lam_s), (rho, rho_s), (m, m_s), (n, n_s),
                                             (cosh2theta, cos2theta_s)], dtype=float))
    residual = float(np.max(np.abs(residuals)))
    if not residual < math.inf:
        raise ValidationError("the current-matching equations overflow")
    mu2, mubar2, p, q = x.tolist()
    prod = 2.0 * math.sqrt(max(mu2, 0.0)) * math.sqrt(max(mubar2, 0.0))
    feasible = (residual <= slack and min(mu2, mubar2) >= -slack
                and p >= prod - slack and prod >= abs(q) - slack)
    ratios = (p / prod, q / prod) if prod > slack else (math.nan, math.nan)
    return FeasibilityResult(feasible, residual, mu2, mubar2, *ratios)
