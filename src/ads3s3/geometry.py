"""Numerical verification of the worldsheet geometry.

Induced metrics f_ab = <(g^{-1} d_a g)(g^{-1} d_b g)> per sector, conformal
gauge residuals, equation-of-motion residuals and mean curvatures.

All derivatives come from one stencil: a single evaluate_matrices call over
the offsets h*(-2..2) in tau and sigma around every probe point at once
gives, per sector, g^{-1} and the central differences (f(+h) - f(-h))/(2h)
along tau and sigma at the inner 3x3 points.  The equations of motion and
the chirality condition difference those once more; the gauge conditions
and the metric read the centre.  The error is O(h^2) with a fixed step
(default 1e-4); the metric checks use the same stencil at h/2 for
Richardson extrapolation, O(h^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SECTOR_SIGNS, DegenerateConfigurationError, ValidationError, _adjugate, ads_dot
from .charges import charge_gap, charges_analytic, charges_numeric, current_matrices
from .solutions import embedding_surface, evaluate_matrices

DEFAULT_STEP = 1e-4


def _trace_half(a, b):
    """<A B> = tr(AB)/2, batched."""
    return 0.5 * np.einsum("...ij,...ji->...", a, b)


def _metric(rt, rs, sign):
    """<R_a R_b> over a, b in (tau, sigma), stacked in the last two axes."""
    return sign * np.stack([np.stack([_trace_half(rt, rt), _trace_half(rt, rs)], axis=-1),
                            np.stack([_trace_half(rs, rt), _trace_half(rs, rs)], axis=-1)],
                           axis=-2).real


def _differences(sol, taus, sigmas, h):
    """The one stencil: g^{-1} and central differences around each point.

    A single evaluate_matrices call covers the offsets h*(-2..2) in tau and
    sigma around every (tau, sigma) pair.  Per sector it returns (inv, dt, ds)
    at the inner 3x3 points, each of shape (points, 3, 3, 2, 2), with the
    point itself at [:, 1, 1] and dt = (f(tau + h) - f(tau - h)) * (0.5/h).
    """
    h = float(h)
    offs = h * np.arange(-2.0, 3.0)
    tau = np.asarray(taus, dtype=float)[:, None, None] + offs[:, None]
    sigma = np.asarray(sigmas, dtype=float)[:, None, None] + offs
    scale = 0.5 / h
    return [(_adjugate(f[:, 1:4, 1:4]),
             (f[:, 2:, 1:4] - f[:, :3, 1:4]) * scale,
             (f[:, 1:4, 2:] - f[:, 1:4, :3]) * scale)
            for f in evaluate_matrices(sol, tau, sigma)]


def _eom(inv, dt, ds, h):
    """Max-norm of d_tau(g^{-1} d_tau g) - d_sig(g^{-1} d_sig g) per point."""
    scale = 0.5 / h
    k_tau, k_sig = inv @ dt, inv @ ds
    res = (k_tau[:, 2, 1] - k_tau[:, 0, 1]) * scale - (k_sig[:, 1, 2] - k_sig[:, 1, 0]) * scale
    return np.max(np.abs(res), axis=(-2, -1))


def _chirality(inv, dt, ds, h):
    """|d-bar <(g^{-1} d g)^2>| per point, d = (d_tau + d_sig)/2."""
    d = inv @ (0.5 * (dt + ds))
    c = _trace_half(d, d)
    dbar = 0.5 * ((c[:, 2, 1] - c[:, 0, 1]) - (c[:, 1, 2] - c[:, 1, 0])) * (0.5 / h)
    return np.hypot(dbar.real, dbar.imag)


def _chiral_invariants(stencil):
    """(chi, bar) per sector at each point: <(g^{-1} d g)^2> and its d-bar twin."""
    out = []
    for sign, (inv, dt, ds) in zip(SECTOR_SIGNS, stencil):
        rt, rs = inv[:, 1, 1] @ dt[:, 1, 1], inv[:, 1, 1] @ ds[:, 1, 1]
        chi, bar = 0.5 * (rt + rs), 0.5 * (rt - rs)
        out += [sign * _trace_half(chi, chi).real, sign * _trace_half(bar, bar).real]
    return out


def _metric_numeric(coarse, fine=None):
    """[ads, sphere] induced metrics at each point; fine at h/2 adds Richardson."""
    out = []
    for sign, (inv, dt, ds), half in zip(SECTOR_SIGNS, coarse, fine or (None, None)):
        dt, ds = dt[:, 1, 1], ds[:, 1, 1]
        if half is not None:
            dt = (4.0 * half[1][:, 1, 1] - dt) / 3.0
            ds = (4.0 * half[2][:, 1, 1] - ds) / 3.0
        out.append(_metric(inv[:, 1, 1] @ dt, inv[:, 1, 1] @ ds, sign))
    return out


@dataclass(frozen=True)
class InducedMetric:
    """Symmetric 2x2 induced metrics of the two projections, indices (tau, sigma)."""

    ads: np.ndarray
    sphere: np.ndarray


def induced_metric_numeric(sol, tau, sigma, h_step=DEFAULT_STEP, richardson=False):
    """Induced metric from central-difference derivatives at one point."""
    if not 1e-6 <= h_step <= 1e-3:
        raise ValueError("h_step outside the supported range [1e-6, 1e-3]")
    fine = _differences(sol, [tau], [sigma], 0.5 * h_step) if richardson else None
    ads, sph = _metric_numeric(_differences(sol, [tau], [sigma], h_step), fine)
    return InducedMetric(ads=ads[0], sphere=sph[0])


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
    ads, sph = (_metric(cur.R_tau, cur.R_sig, sign) for sign, cur in
                zip(SECTOR_SIGNS, current_matrices(sol, float(tau), float(sigma))))
    return InducedMetric(ads=ads, sphere=sph)


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
    chi_g, bar_g, chi_h, bar_h = (
        float(v[0]) for v in _chiral_invariants(_differences(sol, [tau], [sigma], h_step)))
    return GaugeResidual(
        chiral=chi_g + chi_h, antichiral=bar_g + bar_h,
        mu2_ads=-chi_g, mu2_sphere=chi_h, mubar2_ads=-bar_g, mubar2_sphere=bar_h,
    )


def eom_residual(sol, tau, sigma, h_step=DEFAULT_STEP):
    """Max-norm residual of d_tau(g^{-1} d_tau g) - d_sig(g^{-1} d_sig g).

    Nested central differences on the 5x5 stencil; exact solutions leave pure
    O(h^2) discretization error.  Returns (ads, sphere) residuals.
    """
    return tuple(float(_eom(*sector, float(h_step))[0])
                 for sector in _differences(sol, [tau], [sigma], h_step))


def chirality_residual(sol, tau, sigma, h_step=DEFAULT_STEP):
    """Residual of the chirality conditions: |d-bar <(g^{-1} d g)^2>| per sector."""
    return tuple(float(_chirality(*sector, float(h_step))[0])
                 for sector in _differences(sol, [tau], [sigma], h_step))


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


def verify_solution(sol, grid=(4, 8), thresholds=None):
    """Run the full residual battery over a worldsheet probe grid.

    Checks equations of motion, gauge conditions and chirality at five probe
    points, closure under sigma -> sigma + 2pi and the embedding constraints
    over the grid, constancy of the induced metric (Richardson-extrapolated
    derivatives) at seven points and its agreement with the closed-form
    current metric, and quadrature vs analytic charges.  Thresholds can be
    overridden per key of DEFAULT_THRESHOLDS, each finite and positive.
    """
    tol = dict(DEFAULT_THRESHOLDS)
    for key, value in (thresholds or {}).items():
        if key not in tol:
            raise ValidationError(f"unknown threshold {key!r}")
        if not 0.0 < value < math.inf:
            raise ValidationError(f"threshold {key} = {value} must be finite and positive")
        tol[key] = value
    n_tau, n_sig = int(grid[0]), int(grid[1])
    if n_tau < 1 or n_sig < 1:
        raise ValidationError("verification grid must be at least 1x1")
    taus = np.linspace(0.0, 1.5, n_tau)
    sigmas = np.linspace(0.0, 2.0 * math.pi, n_sig, endpoint=False)

    # periodicity and embedding constraints over the full grid
    g, h = evaluate_matrices(sol, taus[:, None, None],
                             np.stack([sigmas, sigmas + 2.0 * math.pi]))
    periodicity = max(float(np.max(np.abs(g[:, 0] - g[:, 1]))),
                      float(np.max(np.abs(h[:, 0] - h[:, 1]))))
    y, x = embedding_surface(sol, taus, sigmas)
    embedding = max(float(np.max(np.abs(ads_dot(y, y) + 1.0))),
                    float(np.max(np.abs(np.einsum("...i,...i->...", x, x) - 1.0))))

    # four random probes and the origin, then two more points for the metric
    rng = np.random.default_rng(0)
    pt_tau = np.concatenate([rng.uniform(0.0, 1.5, 4), [0.0, 1.1, 0.3]])
    pt_sig = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 4), [0.0, 2.2, 5.0]])
    coarse = _differences(sol, pt_tau, pt_sig, DEFAULT_STEP)
    fine = _differences(sol, pt_tau, pt_sig, 0.5 * DEFAULT_STEP)

    probes = [tuple(a[:5] for a in sector) for sector in coarse]
    eom = max(float(np.max(_eom(*sector, DEFAULT_STEP))) for sector in probes)
    chir = max(float(np.max(_chirality(*sector, DEFAULT_STEP))) for sector in probes)
    chi_g, bar_g, chi_h, bar_h = _chiral_invariants(probes)
    gauge_c = float(np.max(np.abs(chi_g + chi_h)))
    gauge_a = float(np.max(np.abs(bar_g + bar_h)))

    # metric constancy and numeric-vs-analytic agreement
    ref = induced_metric_currents(sol)
    ads, sph = _metric_numeric(coarse, fine)
    gap = max(float(np.max(np.abs(ads - ref.ads))), float(np.max(np.abs(sph - ref.sphere))))
    spread = max(float(np.ptp(ads, axis=0).max()), float(np.ptp(sph, axis=0).max()))

    # charge quadrature vs closed form, and tau-independence
    an = charges_analytic(sol)
    quadrature = max(charge_gap(charges_numeric(sol, tau=t), an) for t in (0.0, 1.7))

    values = {
        "eom": eom, "gauge_chiral": gauge_c, "gauge_antichiral": gauge_a,
        "chirality": chir, "periodicity": periodicity, "embedding": embedding,
        "metric_spread": spread, "metric_gap": gap, "charge_gap": quadrature,
    }
    failures = tuple(k for k, v in values.items() if v > tol[k])
    return VerificationReport(thresholds=tol, failures=failures, **values)
