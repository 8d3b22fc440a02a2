"""Invariant bridge between the AdS and sphere sectors.

The one-winding family is labelled by rescaled frequency pairs (e, f) and
(a, b) with f^2 - e^2 = 1 = b^2 - a^2.  Matching the worldsheet gauge
invariants (mu^2, mubar^2, cosh alpha, cos beta) computed on either sector
leaves (f, b) as independent coordinates on the two-dimensional space of
isometry invariants:

    cosh 2theta   = b f - b^2 + 1
    cos 2theta_s  = f^2 - b f - 1
    mu^2    = (n^2/4)(f - 1)(f + cosh 2theta)  = (n^2/4)(b + 1)(b + cos 2theta_s)
    mubar^2 = (n^2/4)(f + 1)(f - cosh 2theta)  = (n^2/4)(b - 1)(b - cos 2theta_s)
    cosh alpha = e / sqrt(e^2 - sinh^2 2theta)
    cos beta   = a / sqrt(a^2 + sin^2 2theta_s)

together with the cross identities 4 mu mubar cosh alpha = E^2 and
4 mu mubar cos beta = A^2 (E = n e, A = n a).
The relations, the two sides and the band inequality take floats (through
math) or arrays (scan_region, once per grid), bit for bit alike.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import ValidationError


class RegionError(ValueError):
    """(f, b) point lies outside the admissible region."""


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def admissible(f, b):
    """Check 1 <= b <= f <= (b + sqrt(b^2 + 8)) / 2, naming the first violation."""
    if not (math.isfinite(f) and math.isfinite(b)):
        return Admissibility(False, "non-finite input")
    if f < 1.0:
        return Admissibility(False, "f < 1")
    if b < 1.0:
        return Admissibility(False, "b < 1")
    if f < b:
        return Admissibility(False, "f < b (cosh2theta < 1)")
    if _above_band(f, b):
        return Admissibility(False, "cos2theta_s out of range (f^2 - b f - 2 > 0)"
                             if math.isfinite(f * f) else "f^2 overflows")
    return Admissibility(True)


def _above_band(f, b):
    """f^2 - b f - 2 > 0 (cos 2theta_s > 1) or nan (f^2 overflows); elementwise on arrays."""
    q = f * f - b * f - 2.0
    return (q > 0.0) | (q != q)


def _root(x, where=True):
    """sqrt(max(0, x)) where `where` holds, else nan; math on floats, which is faster there."""
    if isinstance(x, np.ndarray):
        return np.where(where, np.sqrt(np.fmax(0.0, x)), np.nan)
    return math.sqrt(max(0.0, x)) if where else math.nan


def check_winding(n):
    """n as an int; ValidationError unless it is a positive integer."""
    if n < 1 or int(n) != n:
        raise ValidationError("winding n must be a positive integer")
    return int(n)


def check_windings(m, n, m_s, n_s):
    """The four windings as ints; ValidationError unless integral with even m - n, m_s - n_s."""
    for w, w_name in ((m, "m"), (n, "n"), (m_s, "m_s"), (n_s, "n_s")):
        if int(w) != w:
            raise ValidationError(f"winding {w_name} must be an integer")
    m, n, m_s, n_s = int(m), int(n), int(m_s), int(n_s)
    if (m - n) % 2:
        raise ValidationError(f"m - n = {m - n} is odd (windings must share parity)")
    if (m_s - n_s) % 2:
        raise ValidationError(f"m_s - n_s = {m_s - n_s} is odd")
    return m, n, m_s, n_s


def f_max(b):
    """Upper edge of the admissible band, where cos 2theta_s reaches +1."""
    return 0.5 * (b + math.sqrt(b * b + 8.0))


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


def family_angles(cosh2theta, cos2theta_s):
    """theta >= 0 and theta_s in [0, pi/2], with the invariants clipped to their ranges."""
    return (0.5 * math.acosh(max(cosh2theta, 1.0)),
            0.5 * math.acos(min(1.0, max(-1.0, cos2theta_s))))


def invariants_from_ads(f, b, n):
    """(mu^2, mubar^2, cosh alpha) from the AdS-sector current equations."""
    return _ads_invariants(family_relations(f, b, n))


def invariants_from_sphere(f, b, n):
    """(mu^2, mubar^2, cos beta) from the sphere-sector current equations.

    Uses the branch cos beta = a / sqrt(a^2 + sin^2 2theta_s), the one
    consistent with 4 mu mubar cos beta = A^2.
    """
    return _sphere_invariants(family_relations(f, b, n))


def _ads_invariants(rel):
    f, n, c2t, e2 = rel.f, rel.n, rel.cosh2theta, rel.e2
    mu2 = 0.25 * n * n * (f - 1.0) * (f + c2t)
    mubar2 = 0.25 * n * n * (f + 1.0) * (f - c2t)
    sinh2_2t = c2t * c2t - 1.0
    denom = e2 - sinh2_2t
    coshalpha = rel.e / _root(denom, (denom > 0.0) & (e2 > 0.0))
    return mu2, mubar2, coshalpha


def _sphere_invariants(rel):
    b, n, c2ts, a2 = rel.b, rel.n, rel.cos2theta_s, rel.a2
    mu2 = 0.25 * n * n * (b + 1.0) * (b + c2ts)
    mubar2 = 0.25 * n * n * (b - 1.0) * (b - c2ts)
    denom = a2 + (1.0 - c2ts * c2ts)
    cosbeta = rel.a / _root(denom, (denom > 0.0) & (a2 > 0.0))
    return mu2, mubar2, cosbeta


@dataclass(frozen=True)
class InvariantBlock:
    """Gauge-invariant data of a one-winding family point."""

    n: int
    f: float
    b: float
    e: float
    a: float
    E: float
    F: float
    A: float
    B: float
    lam: float
    rho: float
    lam_s: float
    rho_s: float
    cosh2theta: float
    cos2theta_s: float
    theta: float
    theta_s: float
    mu2: float
    mubar2: float
    mu: float
    mubar: float
    coshalpha: float
    cosbeta: float
    degenerate: tuple = field(default_factory=tuple)

    def as_dict(self):
        return {k.name: getattr(self, k.name) for k in fields(self)} | {
            "degenerate": list(self.degenerate)}


def bridge(f, b, n=1):
    """Solve the invariant bridge at (f, b) for winding n >= 1.

    Evaluates the AdS-side and sphere-side expressions independently and
    requires them to agree to 1e-12; degenerate boundary points are returned
    with flags instead of errors so that scans can traverse them.
    """
    n = check_winding(n)
    ok = admissible(f, b)
    if not ok:
        raise RegionError(ok.reason)

    rel = family_relations(f, b, n)
    c2ts = rel.cos2theta_s
    theta, theta_s = family_angles(rel.cosh2theta, c2ts)
    mu2_a, mubar2_a, coshalpha = _ads_invariants(rel)
    mu2_s, mubar2_s, cosbeta = _sphere_invariants(rel)
    gap = max(abs(mu2_a - mu2_s), abs(mubar2_a - mubar2_s))
    scale = max(1.0, abs(mu2_a), abs(mubar2_a))
    if gap > 1e-12 * scale:
        raise RegionError(f"AdS/sphere invariant mismatch {gap}")

    mu2 = max(0.0, mu2_a)
    mubar2 = max(0.0, mubar2_a)

    flags = []
    if f <= b:
        flags.append("theta=0 (AdS center worldline)")
    if c2ts >= 1.0 - 1e-15:
        flags.append("theta_s=0 (sphere circle)")
    if c2ts <= -1.0 + 1e-15:
        flags.append("theta_s=pi/2 (sphere circle)")
    if mu2 * mubar2 <= 1e-30:
        flags.append("mu*mubar=0 (alpha/beta undefined)")

    return InvariantBlock(
        n=n, f=f, b=b, e=rel.e, a=rel.a, E=rel.E, F=rel.F, A=rel.A, B=rel.B,
        lam=rel.lam, rho=rel.rho, lam_s=rel.lam_s, rho_s=rel.rho_s,
        cosh2theta=rel.cosh2theta, cos2theta_s=c2ts, theta=theta, theta_s=theta_s,
        mu2=mu2, mubar2=mubar2, mu=math.sqrt(mu2), mubar=math.sqrt(mubar2),
        coshalpha=coshalpha, cosbeta=cosbeta,
        degenerate=tuple(flags),
    )


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
    with np.errstate(over="ignore", invalid="ignore"):  # math overflows to inf silently too
        rel = family_relations(f, b, n)
        mu2, mubar2, coshalpha = _ads_invariants(rel)
        cosbeta = _sphere_invariants(rel)[2]
        ok = (f >= 1.0) & (b >= 1.0) & (f >= b) & ~_above_band(f, b)
    return {"f": f, "b": b, "admissible": ok,
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


def feasibility_general(m, n, m_s, n_s, lam, rho, lam_s, rho_s,
                        cosh2theta, cos2theta_s, tol=1e-8):
    """Check whether a general winding sector admits consistent invariants.

    Given windings and frequencies plus the angle invariants, the six
    current-matching equations are linear in (mu^2, mubar^2,
    2 mu mubar cosh alpha, 2 mu mubar cos beta).  Solves them in least
    squares and reports the residual together with the range constraints
    mu^2, mubar^2 >= 0, cosh alpha >= 1, |cos beta| <= 1.  The residual is a
    diagnostic, not a classification of the sector.
    """
    check_windings(m, n, m_s, n_s)

    lhs = np.array([
        lam ** 2 + rho ** 2 + 2.0 * lam * rho * cosh2theta,
        0.25 * (m ** 2 + n ** 2 + 2.0 * m * n * cosh2theta),
        0.5 * (lam * m + rho * n + (lam * n + rho * m) * cosh2theta),
        lam_s ** 2 + rho_s ** 2 + 2.0 * lam_s * rho_s * cos2theta_s,
        0.25 * (m_s ** 2 + n_s ** 2 + 2.0 * m_s * n_s * cos2theta_s),
        0.5 * (lam_s * m_s + rho_s * n_s + (lam_s * n_s + rho_s * m_s) * cos2theta_s),
    ])
    # unknowns x = (mu^2, mubar^2, 2 mu mubar cosh alpha, 2 mu mubar cos beta)
    design = np.array([
        [1.0, 1.0, 1.0, 0.0],
        [1.0, 1.0, -1.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ])
    x, *_ = np.linalg.lstsq(design, lhs, rcond=None)
    residual = float(np.max(np.abs(design @ x - lhs)))
    mu2, mubar2, p, q = (float(v) for v in x)

    prod = 2.0 * math.sqrt(max(mu2, 0.0) * max(mubar2, 0.0))
    if prod <= tol:
        coshalpha = math.nan
        cosbeta = math.nan
        in_range = abs(p) <= tol and abs(q) <= tol
    else:
        coshalpha = p / prod
        cosbeta = q / prod
        in_range = coshalpha >= 1.0 - tol and abs(cosbeta) <= 1.0 + tol
    feasible = residual <= tol and mu2 >= -tol and mubar2 >= -tol and in_range
    return FeasibilityResult(feasible, residual, mu2, mubar2, coshalpha, cosbeta)
