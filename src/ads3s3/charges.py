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

from .algebra import AdsAlgebraElement, SphereAlgebraElement, inner
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
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)

    def sector(lam, rho, m, n, lmat, rmat, g0, g0inv):
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

    ads = sector(sol.lam, sol.rho, sol.m, sol.n,
                 sol.lhat.matrix, sol.rhat.matrix,
                 sol.g0.matrix, sol.g0.inverse().matrix)
    sph = sector(sol.lam_s, sol.rho_s, sol.m_s, sol.n_s,
                 sol.lhat_s.matrix, sol.rhat_s.matrix,
                 sol.h0.matrix, sol.h0.inverse().matrix)
    return ads, sph


def currents(sol, tau, sigma):
    """Currents at a worldsheet point as algebra elements."""
    ads, sph = current_matrices(sol, float(tau), float(sigma))
    wrap_a = AdsAlgebraElement.from_matrix
    wrap_s = SphereAlgebraElement.from_matrix
    return (
        SectorCurrents(wrap_a(ads.L_tau), wrap_a(ads.L_sig),
                       wrap_a(ads.R_tau), wrap_a(ads.R_sig)),
        SectorCurrents(wrap_s(sph.L_tau), wrap_s(sph.L_sig),
                       wrap_s(sph.R_tau), wrap_s(sph.R_sig)),
    )


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


def _charge_set(L, R, L_s, R_s):
    return ChargeSet(
        L=L, R=R, L_s=L_s, R_s=R_s,
        m_L=math.sqrt(max(0.0, -inner(L, L))),
        m_R=math.sqrt(max(0.0, -inner(R, R))),
        m_L_s=math.sqrt(max(0.0, inner(L_s, L_s))),
        m_R_s=math.sqrt(max(0.0, inner(R_s, R_s))),
    )


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
    ads, sph = current_matrices(sol, float(tau), sigmas)
    return _charge_set(
        AdsAlgebraElement.from_matrix(ads.L_tau.mean(axis=0)),
        AdsAlgebraElement.from_matrix(ads.R_tau.mean(axis=0)),
        SphereAlgebraElement.from_matrix(sph.L_tau.mean(axis=0)),
        SphereAlgebraElement.from_matrix(sph.R_tau.mean(axis=0)),
    )


def charges_analytic(sol):
    """Charges in closed form.

    For m != 0 the sigma-average projects the left integrand onto l with
    weight cosh 2theta (and likewise for n and r); a vanishing winding makes
    the integrand constant, in which case the exact constant matrix is used
    instead.  Both branches agree with the quadrature for valid solutions.
    """
    c2t, c2ts = theta_invariants(sol)
    g0, g0inv = sol.g0.matrix, sol.g0.inverse().matrix
    h0, h0inv = sol.h0.matrix, sol.h0.inverse().matrix

    def charge(freq_own, freq_other, winding, own_mat, conj_mat, invariant, wrap):
        # own contribution + averaged (or constant) conjugated partner
        if winding != 0:
            return wrap(freq_own * own_mat + freq_other * invariant * own_mat)
        return wrap(freq_own * own_mat + freq_other * conj_mat)

    L = charge(sol.lam, sol.rho, sol.m, sol.lhat.matrix,
               g0 @ sol.rhat.matrix @ g0inv, c2t, AdsAlgebraElement.from_matrix)
    R = charge(sol.rho, sol.lam, sol.n, sol.rhat.matrix,
               g0inv @ sol.lhat.matrix @ g0, c2t, AdsAlgebraElement.from_matrix)
    L_s = charge(sol.lam_s, sol.rho_s, sol.m_s, sol.lhat_s.matrix,
                 h0 @ sol.rhat_s.matrix @ h0inv, c2ts, SphereAlgebraElement.from_matrix)
    R_s = charge(sol.rho_s, sol.lam_s, sol.n_s, sol.rhat_s.matrix,
                 h0inv @ sol.lhat_s.matrix @ h0, c2ts, SphereAlgebraElement.from_matrix)
    return _charge_set(L, R, L_s, R_s)


def charge_coefficients(charge_set, sol):
    """Signed coefficients of the charges along the solution directions.

    For the generic (nonzero winding) case L = c_L l etc.; the Casimir
    magnitudes are |c|.
    """
    return (
        -inner(charge_set.L, sol.lhat.element),
        -inner(charge_set.R, sol.rhat.element),
        inner(charge_set.L_s, sol.lhat_s.element),
        inner(charge_set.R_s, sol.rhat_s.element),
    )
