"""Numerical verification of the worldsheet geometry.

Induced metrics f_ab = <(g^{-1} d_a g)(g^{-1} d_b g)> per sector, conformal
gauge residuals, equation-of-motion residuals and mean curvatures.  All
derivatives are central differences with a fixed step (default 1e-4, error
O(h^2)); Richardson extrapolation is available where the sharper constancy
checks need O(h^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DegenerateConfigurationError, ads_dot
from .charges import charges_analytic, charges_numeric, current_matrices
from .solutions import embedding_surface, evaluate_matrices

DEFAULT_STEP = 1e-4


def _inv2(m):
    """Inverse of a det-1 2x2 matrix stack via the adjugate."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def _trace_half(a, b):
    """<A B> = tr(AB)/2, batched."""
    return 0.5 * np.einsum("...ij,...ji->...", a, b)


def _maurer_cartan(sol, tau, sigma, h, richardson=False):
    """(g^{-1} d_tau g, g^{-1} d_sig g) for both sectors at one point."""

    def deriv(step):
        g_tp, h_tp = evaluate_matrices(sol, tau + step, sigma)
        g_tm, h_tm = evaluate_matrices(sol, tau - step, sigma)
        g_sp, h_sp = evaluate_matrices(sol, tau, sigma + step)
        g_sm, h_sm = evaluate_matrices(sol, tau, sigma - step)
        inv = 0.5 / step
        return ((g_tp - g_tm) * inv, (g_sp - g_sm) * inv,
                (h_tp - h_tm) * inv, (h_sp - h_sm) * inv)

    dg_t, dg_s, dh_t, dh_s = deriv(h)
    if richardson:
        dg_t2, dg_s2, dh_t2, dh_s2 = deriv(0.5 * h)
        dg_t = (4.0 * dg_t2 - dg_t) / 3.0
        dg_s = (4.0 * dg_s2 - dg_s) / 3.0
        dh_t = (4.0 * dh_t2 - dh_t) / 3.0
        dh_s = (4.0 * dh_s2 - dh_s) / 3.0
    g, hm = evaluate_matrices(sol, tau, sigma)
    ginv, hinv = _inv2(g), _inv2(hm)
    return (ginv @ dg_t, ginv @ dg_s), (hinv @ dh_t, hinv @ dh_s)


@dataclass(frozen=True)
class InducedMetric:
    """Symmetric 2x2 induced metrics of the two projections, indices (tau, sigma)."""

    ads: np.ndarray
    sphere: np.ndarray


def induced_metric_numeric(sol, tau, sigma, h_step=DEFAULT_STEP, richardson=False):
    """Induced metric from central-difference derivatives at one point."""
    if not 1e-6 <= h_step <= 1e-3:
        raise ValueError("h_step outside the supported range [1e-6, 1e-3]")
    (rt, rs), (rt_s, rs_s) = _maurer_cartan(sol, float(tau), float(sigma),
                                            h_step, richardson)
    ads = np.array([[_trace_half(rt, rt), _trace_half(rt, rs)],
                    [_trace_half(rs, rt), _trace_half(rs, rs)]])
    sph = -np.array([[_trace_half(rt_s, rt_s), _trace_half(rt_s, rs_s)],
                     [_trace_half(rs_s, rt_s), _trace_half(rs_s, rs_s)]]).real
    return InducedMetric(ads=ads, sphere=sph)


def induced_metric_analytic(inv):
    """Induced metric from an InvariantBlock.

        f_tt = -2 mu mubar cosh(a) - mu^2 - mubar^2   f_ts = mubar^2 - mu^2
        f_ss =  2 mu mubar cosh(a) - mu^2 - mubar^2
    and the sphere analogue with cos(b) and flipped signs.
    """
    mm = inv.mu * inv.mubar
    s = inv.mu2 + inv.mubar2
    off = inv.mubar2 - inv.mu2
    ads = np.array([[-2.0 * mm * inv.coshalpha - s, off],
                    [off, 2.0 * mm * inv.coshalpha - s]])
    sph = np.array([[s + 2.0 * mm * inv.cosbeta, -off],
                    [-off, s - 2.0 * mm * inv.cosbeta]])
    return InducedMetric(ads=ads, sphere=sph)


def induced_metric_currents(sol, tau=0.0, sigma=0.0):
    """Exact induced metric from the closed-form currents f_ab = <R_a R_b>."""
    ads, sph = current_matrices(sol, float(tau), float(sigma))
    f_ads = np.array([[_trace_half(ads.R_tau, ads.R_tau), _trace_half(ads.R_tau, ads.R_sig)],
                      [_trace_half(ads.R_sig, ads.R_tau), _trace_half(ads.R_sig, ads.R_sig)]])
    f_sph = -np.array([[_trace_half(sph.R_tau, sph.R_tau), _trace_half(sph.R_tau, sph.R_sig)],
                       [_trace_half(sph.R_sig, sph.R_tau), _trace_half(sph.R_sig, sph.R_sig)]]).real
    return InducedMetric(ads=f_ads, sphere=f_sph)


@dataclass(frozen=True)
class GaugeResidual:
    """Conformal-gauge residuals and the per-sector chiral invariants."""

    chiral: float
    antichiral: float
    mu2_ads: float
    mu2_sphere: float
    mubar2_ads: float
    mubar2_sphere: float


def gauge_residual(sol, tau, sigma, h_step=DEFAULT_STEP):
    """Chiral and antichiral gauge conditions at a point.

    chiral  = <(g^{-1} d g)^2> + <(h^{-1} d h)^2>   with d = (d_tau + d_sig)/2
    and the d-bar analogue; both vanish on gauge-consistent solutions.  The
    per-sector values give mu^2 and mubar^2 read off each projection.
    """
    (rt, rs), (rt_s, rs_s) = _maurer_cartan(sol, float(tau), float(sigma), h_step)
    chi_g = _trace_half(0.5 * (rt + rs), 0.5 * (rt + rs))
    bar_g = _trace_half(0.5 * (rt - rs), 0.5 * (rt - rs))
    chi_h = -_trace_half(0.5 * (rt_s + rs_s), 0.5 * (rt_s + rs_s)).real
    bar_h = -_trace_half(0.5 * (rt_s - rs_s), 0.5 * (rt_s - rs_s)).real
    return GaugeResidual(
        chiral=float(chi_g + chi_h),
        antichiral=float(bar_g + bar_h),
        mu2_ads=float(-chi_g), mu2_sphere=float(chi_h),
        mubar2_ads=float(-bar_g), mubar2_sphere=float(bar_h),
    )


def _stencil(sol, tau, sigma, h):
    """5x5 worldsheet stencil of g and h around (tau, sigma)."""
    offs = h * np.arange(-2.0, 3.0)
    return evaluate_matrices(sol, tau + offs[:, None], sigma + offs[None, :])


def eom_residual(sol, tau, sigma, h_step=DEFAULT_STEP):
    """Max-norm residual of d_tau(g^{-1} d_tau g) - d_sig(g^{-1} d_sig g).

    Nested central differences on a 5x5 stencil; exact solutions leave pure
    O(h^2) discretization error.  Returns (ads, sphere) residuals.
    """
    tau, sigma, h = float(tau), float(sigma), float(h_step)
    g5, h5 = _stencil(sol, tau, sigma, h)

    def residual(grid):
        inv = _inv2(grid)
        scale = 0.5 / h

        def k_tau(i, j):
            return inv[i, j] @ ((grid[i + 1, j] - grid[i - 1, j]) * scale)

        def k_sig(i, j):
            return inv[i, j] @ ((grid[i, j + 1] - grid[i, j - 1]) * scale)

        res = (k_tau(3, 2) - k_tau(1, 2)) * scale - (k_sig(2, 3) - k_sig(2, 1)) * scale
        return float(np.max(np.abs(res)))

    return residual(g5), residual(h5)


def chirality_residual(sol, tau, sigma, h_step=DEFAULT_STEP):
    """Residual of the chirality conditions: |d-bar <(g^{-1} d g)^2>| per sector."""
    tau, sigma, h = float(tau), float(sigma), float(h_step)
    g5, h5 = _stencil(sol, tau, sigma, h)

    def chiral_value(grid, i, j):
        inv = _inv2(grid[i, j])
        scale = 0.5 / h
        dt = (grid[i + 1, j] - grid[i - 1, j]) * scale
        ds = (grid[i, j + 1] - grid[i, j - 1]) * scale
        d = inv @ (0.5 * (dt + ds))
        return _trace_half(d, d)

    def residual(grid):
        dbar = 0.5 * ((chiral_value(grid, 3, 2) - chiral_value(grid, 1, 2))
                      - (chiral_value(grid, 2, 3) - chiral_value(grid, 2, 1))) * (0.5 / h)
        return float(abs(dbar))

    return residual(g5), residual(h5)


def mean_curvatures(inv):
    """Mean curvatures (H, H_s) = (-coth 2theta, cot 2theta_s) of the projections."""
    if inv.theta <= 1e-12:
        raise DegenerateConfigurationError("theta = 0: AdS projection degenerates")
    ts = inv.theta_s
    if min(abs(ts), abs(ts - 0.5 * math.pi)) <= 1e-12:
        raise DegenerateConfigurationError(
            "theta_s in {0, pi/2}: sphere projection degenerates")
    H = -math.cosh(2.0 * inv.theta) / math.sinh(2.0 * inv.theta)
    H_s = math.cos(2.0 * ts) / math.sin(2.0 * ts)
    return H, H_s


@dataclass(frozen=True)
class VerificationReport:
    """Residual battery for one parameter set, with pass thresholds."""

    eom: float
    gauge_chiral: float
    gauge_antichiral: float
    chirality: float
    periodicity: float
    embedding: float
    metric_spread: float
    metric_gap: float
    charge_gap: float
    thresholds: dict
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {
            "eom": self.eom,
            "gauge_chiral": self.gauge_chiral,
            "gauge_antichiral": self.gauge_antichiral,
            "chirality": self.chirality,
            "periodicity": self.periodicity,
            "embedding": self.embedding,
            "metric_spread": self.metric_spread,
            "metric_gap": self.metric_gap,
            "charge_gap": self.charge_gap,
            "thresholds": dict(self.thresholds),
            "failures": list(self.failures),
            "ok": self.ok,
        }


DEFAULT_THRESHOLDS = {
    "eom": 1e-6,
    "gauge_chiral": 1e-6,
    "gauge_antichiral": 1e-6,
    "chirality": 1e-6,
    "periodicity": 1e-10,
    "embedding": 1e-12,
    "metric_spread": 1e-8,
    "metric_gap": 1e-6,
    "charge_gap": 1e-10,
}


def verify_solution(sol, h_step=DEFAULT_STEP, grid=(4, 8), quad_points=256,
                    thresholds=None, rng_seed=0):
    """Run the full residual battery over a worldsheet probe grid.

    Checks equations of motion, gauge conditions, chirality, closure under
    sigma -> sigma + 2pi, embedding constraints, constancy of the induced
    metric (Richardson-extrapolated derivatives), agreement of the numeric
    metric with the closed-form current metric, and quadrature vs analytic
    charges.  Thresholds can be overridden per key.
    """
    tol = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        tol.update(thresholds)
    n_tau, n_sig = int(grid[0]), int(grid[1])
    if n_tau < 1 or n_sig < 1:
        raise ValueError("verification grid must be at least 1x1")
    taus = np.linspace(0.0, 1.5, n_tau)
    sigmas = np.linspace(0.0, 2.0 * math.pi, n_sig, endpoint=False)

    # periodicity and embedding constraints over the full grid
    g_a, h_a = evaluate_matrices(sol, taus[:, None], sigmas[None, :])
    g_b, h_b = evaluate_matrices(sol, taus[:, None], sigmas[None, :] + 2.0 * math.pi)
    periodicity = max(float(np.max(np.abs(g_a - g_b))), float(np.max(np.abs(h_a - h_b))))
    y, x = embedding_surface(sol, taus, sigmas)
    embedding = max(float(np.max(np.abs(ads_dot(y, y) + 1.0))),
                    float(np.max(np.abs(np.einsum("...i,...i->...", x, x) - 1.0))))

    # pointwise residuals on a few probe points
    rng = np.random.default_rng(rng_seed)
    probes = [(float(t), float(s))
              for t, s in zip(rng.uniform(0.0, 1.5, 4), rng.uniform(0.0, 2.0 * math.pi, 4))]
    probes.append((0.0, 0.0))
    eom = gauge_c = gauge_a = chir = 0.0
    for t, s in probes:
        ra, rs = eom_residual(sol, t, s, h_step)
        eom = max(eom, ra, rs)
        gr = gauge_residual(sol, t, s, h_step)
        gauge_c = max(gauge_c, abs(gr.chiral))
        gauge_a = max(gauge_a, abs(gr.antichiral))
        ca, cs = chirality_residual(sol, t, s, h_step)
        chir = max(chir, ca, cs)

    # metric constancy and numeric-vs-analytic agreement
    ref = induced_metric_currents(sol)
    mats_ads, mats_sph = [], []
    gap = 0.0
    for t, s in probes + [(1.1, 2.2), (0.3, 5.0)]:
        im = induced_metric_numeric(sol, t, s, h_step, richardson=True)
        mats_ads.append(im.ads)
        mats_sph.append(im.sphere)
        gap = max(gap, float(np.max(np.abs(im.ads - ref.ads))),
                  float(np.max(np.abs(im.sphere - ref.sphere))))
    spread = max(float(np.ptp(np.stack(mats_ads), axis=0).max()),
                 float(np.ptp(np.stack(mats_sph), axis=0).max()))

    # charge quadrature vs closed form, and tau-independence
    qa = charges_numeric(sol, tau=0.0, quad_points=quad_points)
    qb = charges_numeric(sol, tau=1.7, quad_points=quad_points)
    an = charges_analytic(sol)
    charge_gap = 0.0
    for num in (qa, qb):
        for va, vb in ((num.L, an.L), (num.R, an.R), (num.L_s, an.L_s), (num.R_s, an.R_s)):
            charge_gap = max(charge_gap, float(np.max(np.abs(va.coeffs - vb.coeffs))))

    values = {
        "eom": eom, "gauge_chiral": gauge_c, "gauge_antichiral": gauge_a,
        "chirality": chir, "periodicity": periodicity, "embedding": embedding,
        "metric_spread": spread, "metric_gap": gap, "charge_gap": charge_gap,
    }
    failures = tuple(k for k, v in values.items() if v > tol[k])
    return VerificationReport(thresholds=tol, failures=failures, **values)
