"""Suite-wide settings and shared reference helpers.

Property tests draw their examples deterministically (derandomize) and keep
no example database, so every run of the suite checks the same cases.

The *_per_sector helpers are the field kernels written one sector at a time, on
real AdS and complex sphere 2x2 arrays: the references that the sector-stacked
kernels of solutions, charges and geometry must equal entry for entry.
invariants_per_sector writes out each sector's own invariant formulas, the reference
for the one signed form of bridge._sector_invariants.

A failing property makes hypothesis import hypothesis.extra._patching, whose
import chain raises a DeprecationWarning (mypy_extensions); under the
suite's filterwarnings = error that aborted the session, so the module is
imported once here with that warning ignored.
"""

import warnings

from hypothesis import settings

import numpy as np

from ads3s3.algebra import SECTOR_SIGNS, _adjugate
from ads3s3.bridge import _root
from ads3s3.charges import SectorCurrents, current_matrices
from ads3s3.geometry import InducedMetric, _SectorResiduals, _metric, _trace_half
from ads3s3.solutions import _phase_orders, _phase_product, _phases

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("suite", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("suite")


def induced_metric_currents(sol, tau=0.0, sigma=0.0):
    """Exact induced metric from the closed-form currents f_ab = <R_a R_b>.

    The reference the battery's metric_gap is compared with: the currents of
    current_matrices, not the derivative kernel, through the one metric relation.
    """
    ads, sph = (_metric(cur.R_tau, cur.R_sig, sign) for sign, cur in
                zip(SECTOR_SIGNS, current_matrices(sol, float(tau), float(sigma))))
    return InducedMetric(ads=ads, sphere=sph)


def raw_sectors(sol):
    """Per sector (lam, rho, m, n, l, r, x0), the directions and x0 as their own 2x2 arrays."""
    return [(lam, rho, m, n, l.matrix, r.matrix, x0.matrix)
            for lam, rho, m, n, l, r, x0 in sol.sectors]


def evaluate_matrices_per_sector(sol, tau, sigma):
    """(g, h) of solutions.evaluate_matrices, one sector at a time."""
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return tuple(_phase_product(*_phases(lam, rho, m, n, tau, sigma), lmat, x0, rmat)
                 for lam, rho, m, n, lmat, rmat, x0 in raw_sectors(sol))


def derivatives_per_sector(sol, taus, sigmas):
    """Per sector (g^{-1}, g_tau, g_sig, g_tautau, g_sigsig) of solutions._derivatives."""
    tau = np.asarray(taus, dtype=float)
    sigma = np.asarray(sigmas, dtype=float)
    out = []
    for lam, rho, m, n, lmat, rmat, x0 in raw_sectors(sol):
        g, g_l, g_r, g_lr = _phase_product(*_phase_orders(lam, rho, m, n, tau, sigma),
                                           lmat, x0, rmat)
        u, v = 0.5 * m, 0.5 * n
        out.append((_adjugate(g), lam * g_l + rho * g_r, u * g_l + v * g_r,
                    2.0 * lam * rho * g_lr - (lam * lam + rho * rho) * g,
                    2.0 * u * v * g_lr - (u * u + v * v) * g))
    return out


def current_matrices_per_sector(sol, tau, sigma):
    """(ads, sphere) SectorCurrents of charges.current_matrices, one sector at a time."""
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = []
    for lam, rho, m, n, lmat, rmat, g0 in raw_sectors(sol):
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


def residuals_per_sector(sol, taus, sigmas):
    """(ads, sphere) residuals of geometry._sector_residuals, one sector at a time."""
    out, sectors = [], derivatives_per_sector(sol, taus, sigmas)
    for sign, (inv, gt, gs, gtt, gss) in zip(SECTOR_SIGNS, sectors):
        rt, rs, w = inv @ gt, inv @ gs, inv @ (gtt - gss)
        j, jbar = inv @ (0.5 * (gt + gs)), inv @ (0.5 * (gt - gs))
        dbar = 2.0 * _trace_half(j, 0.25 * w - jbar @ j)
        chi, bar = 0.5 * (rt + rs), 0.5 * (rt - rs)
        out.append(_SectorResiduals(
            eom=np.max(np.abs(w - rt @ rt + rs @ rs), axis=(-2, -1)),
            chirality=np.hypot(dbar.real, dbar.imag),
            chi=sign * _trace_half(chi, chi).real, bar=sign * _trace_half(bar, bar).real,
            metric=_metric(rt, rs, sign)))
    return out


def invariants_per_sector(rel):
    """(AdS, sphere) of bridge._sector_invariants: (mu^2, mubar^2, cosh alpha), (.., cos beta)."""
    f, b, n, c2t, c2ts = rel.f, rel.b, rel.n, rel.cosh2theta, rel.cos2theta_s
    sinh2_2t = c2t * c2t - 1.0
    denom = rel.e2 - sinh2_2t
    ads = (0.25 * n * n * (f - 1.0) * (f + c2t), 0.25 * n * n * (f + 1.0) * (f - c2t),
           rel.e / _root(denom, (denom > 0.0) & (rel.e2 > 0.0)))
    denom = rel.a2 + (1.0 - c2ts * c2ts)
    sphere = (0.25 * n * n * (b + 1.0) * (b + c2ts), 0.25 * n * n * (b - 1.0) * (b - c2ts),
              rel.a / _root(denom, (denom > 0.0) & (rel.a2 > 0.0)))
    return ads, sphere
