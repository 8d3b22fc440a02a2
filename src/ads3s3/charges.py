"""Noether currents and conserved isometry charges.

Left/right currents L_a = (d_a g) g^{-1}, R_a = g^{-1} d_a g and their
sigma-averages L, R (the conserved charges), in closed form and by
quadrature.  For generic windings the averages collapse onto the solution
directions,

    L = (lam + rho cosh 2theta) l,      R = (lam cosh 2theta + rho) r,

and similarly with cos 2theta_s on the sphere; the coefficients are the
left/right Casimir magnitudes.  The closed-form currents read the phases
and the field product of solutions, not its derivative kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SECTOR_ALGEBRAS, AdsAlgebraElement, SphereAlgebraElement, _adjugate, inner
from .solutions import _periodic_sigmas, _phase_product, _phases, theta_invariants


@dataclass(frozen=True)
class SectorCurrents:
    """Current matrices of one sector at fixed (tau, sigma)."""

    L_tau: np.ndarray
    L_sig: np.ndarray
    R_tau: np.ndarray
    R_sig: np.ndarray


def current_matrices(sol, tau, sigma):
    """Closed-form current matrices, broadcast over tau / sigma arrays.

    Each conjugates a direction by one factor, exp(th u) M exp(-th u) =
    (c I + s u) M (c I - s u).  Returns (ads, sphere) SectorCurrents of raw
    2x2 matrices with the broadcast shape of tau x sigma in the leading axes.
    """
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = []
    for lam, rho, m, n, lmat, rmat, g0 in sol.matrices:
        g0inv = _adjugate(g0)
        c_l, s_l, c_r, s_r = _phases(lam, rho, m, n, tau, sigma)
        conj_l = _phase_product(c_l, s_l, c_l, -s_l, lmat, g0 @ rmat @ g0inv, lmat)
        conj_r = _phase_product(c_r, -s_r, c_r, s_r, rmat, g0inv @ lmat @ g0, rmat)
        out.append(SectorCurrents(
            L_tau=lam * lmat + rho * conj_l,
            L_sig=0.5 * m * lmat + 0.5 * n * conj_l,
            R_tau=lam * conj_r + rho * rmat,
            R_sig=0.5 * m * conj_r + 0.5 * n * rmat,
        ))
    return tuple(out)


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


def charges_numeric(sol, tau=0.0):
    """Charges by trapezoidal quadrature of the tau-currents over sigma.

    The nodes of _periodic_sigmas from 256 up make it exact at any winding.
    """
    sigmas = _periodic_sigmas(256, sol.m, sol.n, sol.m_s, sol.n_s)
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
