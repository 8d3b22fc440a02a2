"""Noether currents and conserved isometry charges.

Left/right currents L_a = (d_a g) g^{-1}, R_a = g^{-1} d_a g and their
sigma-averages L, R (the conserved charges), in closed form and by
quadrature.  For generic windings the averages collapse onto the solution
directions,

    L = (lam + rho cosh 2theta) l,      R = (lam cosh 2theta + rho) r,

and similarly with cos 2theta_s on the sphere; the coefficients are the
left/right Casimir magnitudes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import SECTOR_ALGEBRAS, AdsAlgebraElement, SphereAlgebraElement, _adjugate, inner
from .solutions import theta_invariants

_EYE2 = np.eye(2)


def _conj_by_unit_exp(cos_t, sin_t, mid, unit):
    """exp(t*u) M exp(-t*u) for u*u = -I, vectorized over the phase arrays."""
    c = np.asarray(cos_t)[..., None, None]
    s = np.asarray(sin_t)[..., None, None]
    um = unit @ mid
    mu = mid @ unit
    umu = um @ unit
    return c * c * mid + c * s * (um - mu) - s * s * umu


@dataclass(frozen=True)
class SectorCurrents:
    """Current matrices of one sector at fixed (tau, sigma)."""

    L_tau: np.ndarray
    L_sig: np.ndarray
    R_tau: np.ndarray
    R_sig: np.ndarray


def current_matrices(sol, tau, sigma):
    """Closed-form current matrices, broadcast over tau / sigma arrays.

    Returns (ads, sphere) SectorCurrents holding raw 2x2 matrices with the
    broadcast shape of tau x sigma in the leading axes.
    """
    return _current_matrices(sol.matrices, tau, sigma)


def _current_matrices(sectors, tau, sigma):
    """current_matrices on raw sectors (lam, rho, m, n, l, r, x0) of 2x2 arrays."""
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)

    def sector(lam, rho, m, n, lmat, rmat, g0):
        g0inv = _adjugate(g0)
        th_l = lam * tau + 0.5 * m * sigma
        th_r = rho * tau + 0.5 * n * sigma
        mid_l = g0 @ rmat @ g0inv
        mid_r = g0inv @ lmat @ g0
        conj_l = _conj_by_unit_exp(np.cos(th_l), np.sin(th_l), mid_l, lmat)
        conj_r = _conj_by_unit_exp(np.cos(th_r), -np.sin(th_r), mid_r, rmat)
        return SectorCurrents(
            L_tau=lam * lmat + rho * conj_l,
            L_sig=0.5 * m * lmat + 0.5 * n * conj_l,
            R_tau=lam * conj_r + rho * rmat,
            R_sig=0.5 * m * conj_r + 0.5 * n * rmat,
        )

    return tuple(sector(*raw) for raw in sectors)


def currents(sol, tau, sigma):
    """Currents at a worldsheet point as algebra elements."""
    out = []
    for cls, cur in zip(SECTOR_ALGEBRAS, current_matrices(sol, float(tau), float(sigma))):
        out.append(SectorCurrents(*map(cls.from_matrix,
                                       (cur.L_tau, cur.L_sig, cur.R_tau, cur.R_sig))))
    return tuple(out)


@dataclass(frozen=True)
class ChargeSet:
    """Conserved charge vectors with their Casimir magnitudes."""

    L: AdsAlgebraElement
    R: AdsAlgebraElement
    L_s: SphereAlgebraElement
    R_s: SphereAlgebraElement
    m_L: float
    m_R: float
    m_L_s: float
    m_R_s: float


    @property
    def vectors(self):
        return self.L, self.R, self.L_s, self.R_s


def _charge_set(*vectors):
    """ChargeSet of (L, R, L_s, R_s); each Casimir is m^2 = -tr(q q)/2 = -sign <q q>."""
    return ChargeSet(*vectors, *(math.sqrt(max(0.0, -q.sign * inner(q, q))) for q in vectors))


def charge_gap(a, b):
    """Largest coefficient difference between two charge sets over (L, R, L_s, R_s)."""
    return max(float(np.max(np.abs(u.coeffs - v.coeffs))) for u, v in zip(a.vectors, b.vectors))


def charges_numeric(sol, tau=0.0, quad_points=None):
    """Charges by trapezoidal quadrature of the tau-currents over sigma.

    The integrands are trigonometric polynomials in sigma, so the uniform
    periodic trapezoid rule is exact once quad_points exceeds the bandwidth;
    below the bound 4(|m|+|n|+|m_s|+|n_s|)+16 a warning is emitted.  The
    default is the larger of 256 and that bound.
    """
    n_min = 4 * (abs(sol.m) + abs(sol.n) + abs(sol.m_s) + abs(sol.n_s)) + 16
    if quad_points is None:
        quad_points = max(256, n_min)
    if quad_points < n_min:
        warnings.warn(f"quad_points={quad_points} below recommended {n_min}; "
                      "quadrature may lose spectral accuracy", stacklevel=2)
    sigmas = np.linspace(0.0, 2.0 * math.pi, quad_points, endpoint=False)
    out = []
    for cls, cur in zip(SECTOR_ALGEBRAS, current_matrices(sol, float(tau), sigmas)):
        out += [cls.from_matrix(cur.L_tau.mean(axis=0)), cls.from_matrix(cur.R_tau.mean(axis=0))]
    return _charge_set(*out)


def charges_analytic(sol):
    """Charges in closed form.

    For m != 0 the sigma-average projects the left integrand onto l with
    weight cosh 2theta (and likewise for n and r); a vanishing winding makes
    the integrand constant, in which case the exact constant matrix is used
    instead.  Both branches agree with the quadrature for valid solutions.
    """
    def charge(freq_own, freq_other, winding, own_mat, conj_mat, invariant, wrap):
        # own contribution + averaged (or constant) conjugated partner
        if winding != 0:
            return wrap(freq_own * own_mat + freq_other * invariant * own_mat)
        return wrap(freq_own * own_mat + freq_other * conj_mat)

    out = []
    for cls, (lam, rho, m, n, l, r, x), c2 in zip(SECTOR_ALGEBRAS, sol.matrices,
                                                  theta_invariants(sol)):
        xinv, wrap = _adjugate(x), cls.from_matrix
        out += [charge(lam, rho, m, l, x @ r @ xinv, c2, wrap),
                charge(rho, lam, n, r, xinv @ l @ x, c2, wrap)]
    return _charge_set(*out)


def charge_coefficients(charge_set, sol):
    """Signed coefficients of the charges along the solution directions.

    For the generic (nonzero winding) case L = c_L l etc.; the Casimir
    magnitudes are |c|.
    """
    return tuple(-q.sign * inner(q, v.element) for q, v in zip(
        charge_set.vectors, (sol.lhat, sol.rhat, sol.lhat_s, sol.rhat_s)))
