"""Noether currents and conserved isometry charges.

Left/right currents L_a = (d_a g) g^{-1}, R_a = g^{-1} d_a g and their
sigma-averages L, R (the conserved charges), in closed form and by
quadrature, exact on 2^k sigma-nodes for k distinct windings (charges_numeric).  For
generic windings the averages collapse onto the solution directions,

    L = (lam + rho cosh 2theta) l,      R = (lam cosh 2theta + rho) r,

and similarly with cos 2theta_s on the sphere; the coefficients are the
left/right Casimir magnitudes.  The closed-form currents read the phases and field
product of solutions, both sectors at once.  Currents and charges are projected by _project,
never re-checked: raw coefficient rows that verify_solution and the charges command read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (SECTOR_ALGEBRAS, AdsAlgebraElement, SphereAlgebraElement, _adjugate,
                      _check_finite, _dot)
from .solutions import (_on_points, _periodic_sigmas, _phase_product, _phases, _unstack,
                        theta_invariants)

_ROW_ALGEBRAS = (AdsAlgebraElement, AdsAlgebraElement, SphereAlgebraElement, SphereAlgebraElement)


@dataclass(frozen=True)
class SectorCurrents:
    """Current matrices of one sector at fixed (tau, sigma)."""

    L_tau: np.ndarray
    L_sig: np.ndarray
    R_tau: np.ndarray
    R_sig: np.ndarray


def _currents(sectors, tau, sigma):
    """current_matrices of stacked sectors (SolutionParams.matrices), sector axis first."""
    tau, sigma, lam, rho, m, n, lmat, rmat, g0 = _on_points(sectors, tau, sigma)
    g0inv = _adjugate(g0)
    c_l, s_l, c_r, s_r = _phases(lam, rho, m, n, tau, sigma)
    conj_l = _phase_product(c_l, s_l, c_l, -s_l, lmat, g0 @ rmat @ g0inv, lmat)
    conj_r = _phase_product(c_r, -s_r, c_r, s_r, rmat, g0inv @ lmat @ g0, rmat)
    lam, rho, u, v = (a[..., None, None] for a in (lam, rho, 0.5 * m, 0.5 * n))
    return SectorCurrents(L_tau=lam * lmat + rho * conj_l, L_sig=u * lmat + v * conj_l,
                          R_tau=lam * conj_r + rho * rmat, R_sig=u * conj_r + v * rmat)


def current_matrices(sol, tau, sigma):
    """Closed-form current matrices, broadcast over tau / sigma arrays.

    Each conjugates a direction by one factor, exp(th u) M exp(-th u) =
    (c I + s u) M (c I - s u).  Returns (ads, sphere) SectorCurrents of raw
    2x2 matrices with the broadcast shape of tau x sigma in the leading axes.
    """
    cur = vars(_currents(sol.matrices, tau, sigma)).values()
    return tuple(SectorCurrents(*arrays) for arrays in zip(*map(_unstack, cur)))


def currents(sol, tau, sigma):
    """Currents at a worldsheet point as algebra elements."""
    pairs = zip(SECTOR_ALGEBRAS, current_matrices(sol, float(tau), float(sigma)))
    return tuple(SectorCurrents(*(cls(cls._project(m).real) for m in vars(cur).values()))
                 for cls, cur in pairs)


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


def _casimirs(coeffs):
    """Casimir magnitudes of the rows (L, R, L_s, R_s): m^2 = -tr(q q)/2 = -sign <q q>."""
    return [math.sqrt(max(0.0, -c.sign * _dot(c, q, q))) for c, q in zip(_ROW_ALGEBRAS, coeffs)]


def _coefficients(coeffs, sol):
    """Signed coefficients -sign <q, v> of the rows (L, R, L_s, R_s) along the directions v."""
    return tuple(-cls.sign * _dot(cls, q, v.coeffs) for cls, q, v in zip(
        _ROW_ALGEBRAS, coeffs, (sol.lhat, sol.rhat, sol.lhat_s, sol.rhat_s)))


def _charge_set(coeffs):
    """ChargeSet of the rows (L, R, L_s, R_s) with their _casimirs."""
    return ChargeSet(*(cls(row) for cls, row in zip(_ROW_ALGEBRAS, coeffs)), *_casimirs(coeffs))


def charge_gap(a, b):
    """Largest coefficient difference between two charge sets over (L, R, L_s, R_s)."""
    return max(float(np.max(np.abs(u.coeffs - v.coeffs))) for u, v in zip(a.vectors, b.vectors))


def _sigma_mean_coeffs(cur):
    """Charge rows (L, R, L_s, R_s) per tau row of _currents over tau x the sigma-nodes.

    Each current carries only e^0 and the e^{+-i w sigma} of its winding w, which the nodes cancel.
    """
    means = _unstack(np.array([cur.L_tau, cur.R_tau]).mean(axis=-3).swapaxes(0, 1))
    out = np.concatenate([cls._project(m.transpose(2, 3, 0, 1)).real.T
                          for cls, m in zip(SECTOR_ALGEBRAS, means)], axis=1)
    _check_finite(out, "algebra coefficients")
    return out


def _numeric_coeffs(sol, tau=0.0):
    """_sigma_mean_coeffs at one tau."""
    sigmas = _periodic_sigmas(sol.m, sol.n, sol.m_s, sol.n_s)
    return _sigma_mean_coeffs(_currents(sol.matrices, [[float(tau)]], sigmas))[0]


def charges_numeric(sol, tau=0.0):
    """Charges as tau-current means over the sigma-nodes: the ChargeSet of _numeric_coeffs."""
    return _charge_set(_numeric_coeffs(sol, tau))


def _analytic_coeffs(sol):
    """Closed-form charge rows (L, R, L_s, R_s), projected onto each sector's basis.

    For m != 0 the sigma-average projects the left integrand onto l with
    weight cosh 2theta (and likewise for n and r); a vanishing winding makes
    the integrand constant, in which case the exact constant matrix is used
    instead.  Both branches agree with the quadrature for valid solutions.
    """
    lam, rho, m, n, l, r, x = sol.matrices
    xinv, c2 = _adjugate(x), np.array(theta_invariants(sol))
    sides = []
    # own contribution + averaged (or, at zero winding, constant) partner, both sectors at once
    for own, other, winding, mat, conj in ((lam, rho, m, l, (x, r, xinv)),
                                           (rho, lam, n, r, (xinv, l, x))):
        partner = (other * c2)[:, None, None] * mat
        for k in np.nonzero(winding == 0)[0]:
            partner[k] = other[k] * (conj[0][k] @ conj[1][k] @ conj[2][k])
        sides.append(_unstack(own[:, None, None] * mat + partner))
    out = np.array([cls._project(side[k]).real
                    for k, cls in enumerate(SECTOR_ALGEBRAS) for side in sides])
    _check_finite(out, "algebra coefficients")
    return out


def charges_analytic(sol):
    """Charges in closed form: the ChargeSet of _analytic_coeffs."""
    return _charge_set(_analytic_coeffs(sol))


def charge_coefficients(charge_set, sol):
    """Signed coefficients of the charges along the solution directions.

    For the generic (nonzero winding) case L = c_L l etc.; the Casimir
    magnitudes are |c|.
    """
    return _coefficients([q.coeffs for q in charge_set.vectors], sol)
