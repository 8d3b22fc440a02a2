"""Numerical verification of the worldsheet geometry.

Induced metrics f_ab = <(g^{-1} d_a g)(g^{-1} d_b g)> per sector, conformal
gauge residuals, equation-of-motion residuals and mean curvatures.

All derivatives are exact, from the one kernel solutions._derivatives, with no
step size.  One residual kernel, run once on both stacked sectors, serves the battery and
the point functions alike, and _metric is the one induced-metric relation.

DEFAULT_THRESHOLDS is the one table of the battery's checks and their pass thresholds;
verify_solution reports check -> value in its order, and one tol replaces every threshold.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra import (
    SECTOR_SIGNS,
    AdsGroupElement,
    DegenerateConfigurationError,
    SphereGroupElement,
    ValidationError,
    ads_dot,
)
from .charges import _analytic_coeffs, _currents, _sigma_mean_coeffs
from .solutions import _derivatives, _periodic_sigmas, evaluate_matrices

# verify_solution's probes: the draws of default_rng(0).uniform(0, 1.5, 4) in tau and
# .uniform(0, 2pi, 4) in sigma, the origin, then (1.1, 2.2) and (0.3, 5.0) for the metric
_PROBE_TAUS = np.array([0.9554425309821815, 0.40468007064580547, 0.061460285904292034,
                        0.02479145329279364, 0.0, 1.1, 0.3])
_PROBE_SIGMAS = np.array([5.109927617709579, 5.735012432197602, 3.811604993109835,
                          4.583562073612696, 0.0, 2.2, 5.0])
_SIGNS = np.array(SECTOR_SIGNS)  # to broadcast over the stacked sectors


def _trace_half(a, b):
    """<A B> = tr(AB)/2, batched."""
    return 0.5 * np.einsum("...ij,...ji->...", a, b)


def _metric(rt, rs, sign):
    """f_ab = <R_a R_b> over a, b in (tau, sigma), in the last two axes: one contraction.

    Contiguous stacked pairs keep every bit of four separate traces; a broadcast einsum does not.
    """
    pairs = (np.concatenate([a[..., None, :, :] for a in order], axis=-3)
             for order in ((rt, rt, rs, rs), (rt, rs, rt, rs)))
    return sign * _trace_half(*pairs).reshape(rt.shape[:-2] + (2, 2)).real


_SectorResiduals = namedtuple("_SectorResiduals", "eom chirality chi bar metric")


def _sector_residuals(sign, inv, gt, gs, gtt, gss):
    """Per-point residuals and induced metric of both _derivatives sectors, sector axis first.

    R_a = g^{-1} d_a g and W = g^{-1}(g_tt - g_ss) are formed once, and with
    d = (d_tau + d_sig)/2, J = g^{-1} d g and Jbar = g^{-1} d-bar g:
      eom        max-norm of d_tau R_t - d_sig R_s = W - R_t^2 + R_s^2
      chirality  |d-bar <J J>| = |2 <J, d-bar J>|, d-bar J = W/4 - Jbar J (no mixed derivative)
      chi, bar   the gauge invariants sign <J J> and sign <Jbar Jbar>, J = (R_t + R_s)/2
      metric     f_ab = <R_a R_b>
    The two forms of J round apart, and at windings of thousands that reaches the thresholds.
    """
    rt, rs, w = inv @ gt, inv @ gs, inv @ (gtt - gss)
    j, jbar = inv @ (0.5 * (gt + gs)), inv @ (0.5 * (gt - gs))
    dbar = 2.0 * _trace_half(j, 0.25 * w - jbar @ j)
    chi, bar = 0.5 * (rt + rs), 0.5 * (rt - rs)
    return _SectorResiduals(
        eom=np.max(np.abs(w - rt @ rt + rs @ rs), axis=(-2, -1)),
        chirality=np.hypot(dbar.real, dbar.imag),
        chi=sign * _trace_half(chi, chi).real, bar=sign * _trace_half(bar, bar).real,
        metric=_metric(rt, rs, sign[..., None, None]))


def _residuals(sol, taus, sigmas):
    """_sector_residuals at the points (taus, sigmas), from one _derivatives call."""
    derivs = _derivatives(sol.matrices, taus, sigmas)
    return _sector_residuals(_SIGNS.reshape((2,) + (1,) * (derivs[0].ndim - 3)), *derivs)


@dataclass(frozen=True)
class InducedMetric:
    """Symmetric 2x2 induced metrics of the two projections, indices (tau, sigma)."""

    ads: np.ndarray
    sphere: np.ndarray


def induced_metric_numeric(sol, tau, sigma):
    """Induced metric at one point from the field derivatives of _derivatives."""
    return InducedMetric(*_residuals(sol, [tau], [sigma]).metric[:, 0])


def induced_metric_analytic(inv):
    """Induced metric from an InvariantBlock, one sector form times the sector sign:

        sign [[-P - S, D], [D, P - S]],   S = mu^2 + mubar^2,   D = mubar^2 - mu^2,
    with P = E^2/2 = 2 mu mubar cosh(alpha) on AdS and A^2/2 = 2 mu mubar cos(beta) on the
    sphere by the cross identities, so it stays finite on the b = 1 edge where mu mubar = 0.
    """
    s = inv.mu2 + inv.mubar2
    off = inv.mubar2 - inv.mu2
    forms = (sign * np.array([[-p - s, off], [off, p - s]])
             for sign, p in zip(SECTOR_SIGNS, (0.5 * inv.E * inv.E, 0.5 * inv.A * inv.A)))
    return InducedMetric(*forms)


@dataclass(frozen=True)
class GaugeResidual:
    """Conformal-gauge residuals and the per-sector chiral invariants."""

    chiral: float
    antichiral: float
    mu2_ads: float
    mu2_sphere: float
    mubar2_ads: float
    mubar2_sphere: float


def gauge_residual(sol, tau, sigma):
    """Chiral and antichiral gauge conditions at a point.

    chiral  = <(g^{-1} d g)^2> + <(h^{-1} d h)^2>   with d = (d_tau + d_sig)/2
    and the d-bar analogue; both vanish on gauge-consistent solutions.  The
    per-sector values give mu^2 and mubar^2 read off each projection.
    """
    res = _residuals(sol, [tau], [sigma])
    (chi_g, chi_h), (bar_g, bar_h) = res.chi[:, 0].tolist(), res.bar[:, 0].tolist()
    return GaugeResidual(
        chiral=chi_g + chi_h, antichiral=bar_g + bar_h,
        mu2_ads=-chi_g, mu2_sphere=chi_h, mubar2_ads=-bar_g, mubar2_sphere=bar_h,
    )


def eom_residual(sol, tau, sigma):
    """Max-norm residual of d_tau(g^{-1} d_tau g) - d_sig(g^{-1} d_sig g).

    Exact derivatives, so exact solutions leave roundoff only.  Returns
    (ads, sphere) residuals.
    """
    return tuple(_residuals(sol, [tau], [sigma]).eom[:, 0].tolist())


def chirality_residual(sol, tau, sigma):
    """Residual of the chirality conditions: |d-bar <(g^{-1} d g)^2>| per sector."""
    return tuple(_residuals(sol, [tau], [sigma]).chirality[:, 0].tolist())


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
    """Residual battery: check -> value and check -> threshold, both in DEFAULT_THRESHOLDS order."""

    values: dict
    thresholds: dict

    @property
    def failures(self):
        return tuple(k for k, v in self.values.items() if v > self.thresholds[k])

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {**self.values, "thresholds": dict(self.thresholds),
                "failures": list(self.failures), "ok": self.ok}


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


def verify_solution(sol, grid=(4, 8), tol=None):
    """Run the full residual battery over a worldsheet probe grid.

    Checks equations of motion, gauge conditions and chirality at five probe
    points, closure under sigma -> sigma + 2pi and the embedding constraints
    over the grid, constancy of the induced metric at seven points and its
    agreement with the closed-form current metric, and quadrature vs analytic
    charges.  One evaluate_matrices, one _derivatives (exact) and one charges._currents call
    give every field, for both sectors at once.  Each gap compares independent computations
    on raw arrays: the metric of the derivatives against that of the closed-form currents at
    (0, 0), and their sigma-mean charge coefficients at tau = 0, 1.7 against the closed form
    of charges_analytic.  Each check passes at or below its threshold in DEFAULT_THRESHOLDS;
    a finite, positive tol replaces every threshold.
    """
    if tol is None:
        thresholds = dict(DEFAULT_THRESHOLDS)
    elif 0.0 < tol < math.inf:
        thresholds = dict.fromkeys(DEFAULT_THRESHOLDS, tol)
    else:
        raise ValidationError(f"tol = {tol} must be finite and positive")
    n_tau, n_sig = int(grid[0]), int(grid[1])
    if n_tau < 1 or n_sig < 1:
        raise ValidationError("verification grid must be at least 1x1")
    taus = np.linspace(0.0, 1.5, n_tau)
    sigmas = np.linspace(0.0, 2.0 * math.pi, n_sig, endpoint=False)

    # periodicity and embedding constraints over the full grid, from one evaluation
    g, h = evaluate_matrices(sol, taus[:, None, None], np.array([sigmas, sigmas + 2.0 * math.pi]))
    periodicity = max(float(np.abs(g[:, 0] - g[:, 1]).max()),
                      float(np.abs(h[:, 0] - h[:, 1]).max()))
    y, x = AdsGroupElement.embed(g[:, 0]), SphereGroupElement.embed(h[:, 0])
    embedding = max(float(np.abs(ads_dot(y, y) + 1.0).max()),
                    float(np.abs(np.einsum("...i,...i->...", x, x) - 1.0).max()))

    # residuals at the five probes; the metric also at the two points after them
    res = _residuals(sol, _PROBE_TAUS, _PROBE_SIGMAS)
    eom = float(res.eom[:, :5].max())
    chir = float(res.chirality[:, :5].max())
    gauge_c = float(np.abs(res.chi[0, :5] + res.chi[1, :5]).max())
    gauge_a = float(np.abs(res.bar[0, :5] + res.bar[1, :5]).max())

    # metric constancy and agreement with the currents at (0, 0), the first sigma-node
    cur = _currents(sol.matrices, [[0.0], [1.7]], _periodic_sigmas(sol.m, sol.n, sol.m_s, sol.n_s))
    reference = _metric(cur.R_tau[:, 0, :1], cur.R_sig[:, 0, :1], _SIGNS[:, None, None, None])
    gap = float(np.abs(res.metric - reference).max())
    spread = float(np.ptp(res.metric, axis=1).max())

    # charge quadratures at both taus vs closed form, and tau-independence
    quadrature = float(np.abs(_sigma_mean_coeffs(cur) - _analytic_coeffs(sol)).max())

    values = {
        "eom": eom, "gauge_chiral": gauge_c, "gauge_antichiral": gauge_a,
        "chirality": chir, "periodicity": periodicity, "embedding": embedding,
        "metric_spread": spread, "metric_gap": gap, "charge_gap": quadrature,
    }
    return VerificationReport(values, thresholds)
