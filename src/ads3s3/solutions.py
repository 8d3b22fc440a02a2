"""Particle-type string solutions and their canonical form.

A solution is a pair of group-valued worldsheet fields

    g(tau, sigma) = exp((lam tau + m sigma/2) l) g0 exp((rho tau + n sigma/2) r)
    h(tau, sigma) = exp((lam_s tau + m_s sigma/2) l_s) h0 exp((rho_s tau + n_s sigma/2) r_s)

with unit vectors l, r (timelike) and l_s, r_s, constant g0, h0, and
frequencies tied to the integer windings by 4 lam rho = m n,
4 lam_s rho_s = m_s n_s.  Same parity of m and n (and of m_s, n_s) closes
the string: sigma -> sigma + 2pi multiplies the factors by (-1)^m (-1)^n.
The field kernels on raw sectors live here: _phases, _phase_orders, _phase_product,
the exact derivatives of _derivatives and the sigma-nodes of _periodic_sigmas, each run once
on both sectors stacked in one complex array (SolutionParams.matrices): the real AdS entries
carry a zero imaginary part, so their products and sums keep the values of real arithmetic.
Inputs are checked by bridge: family points by SimpleFamilyPoint, windings by its one rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bridge import SimpleFamilyPoint, _numbers, _winding, check_windings, family_angles
from .algebra import (
    AdsGroupElement,
    DegenerateConfigurationError,
    SphereGroupElement,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    _adjugate,
    _check_finite_fields,
    adjoint,
    ads_basis,
    aligning_rotation,
    exp_algebra,
    sphere_basis,
)

RELATION_TOL = 1e-12

_T1 = ads_basis()[1]
_S2 = sphere_basis()[1]


@dataclass(frozen=True)
class SolutionParams:
    """Parameter chart of a particle-type solution.

    Plain container: group membership of g0, h0 and unit normalization of
    the direction vectors are enforced by their types and finite frequencies
    here, while the frequency relations and winding parity are checked by
    make_solution.  Keeping the container permissive lets verification
    commands evaluate deliberately invalid parameter sets and watch the
    residuals react.
    """

    lam: float
    rho: float
    m: int
    n: int
    lhat: UnitTimelikeVector
    rhat: UnitTimelikeVector
    g0: AdsGroupElement
    lam_s: float
    rho_s: float
    m_s: int
    n_s: int
    lhat_s: UnitSphereVector
    rhat_s: UnitSphereVector
    h0: SphereGroupElement

    def __post_init__(self):
        _check_finite_fields(self, ("lam", "rho", "lam_s", "rho_s"), "frequency ")

    @property
    def sectors(self):
        """(lam, rho, m, n, l, r, x0) of the AdS and of the sphere factor."""
        return ((self.lam, self.rho, self.m, self.n, self.lhat, self.rhat, self.g0),
                (self.lam_s, self.rho_s, self.m_s, self.n_s, self.lhat_s, self.rhat_s, self.h0))

    @cached_property
    def matrices(self):
        """lam, rho, m, n as (2,) arrays and l, r, x0 as (2, 2, 2) complex ones: (AdS, sphere).

        Derived once per instance (the fields are frozen) and shared, so read-only.
        """
        pairs = list(zip(*self.sectors))  # (AdS, sphere) of each of lam, rho, m, n, l, r, x0
        scalars = np.array(pairs[:4], dtype=float)
        mats = np.concatenate([v.matrix for pair in pairs[4:] for v in pair]).reshape(3, 2, 2, 2)
        scalars.flags.writeable = mats.flags.writeable = False
        return (*scalars, *mats)


def make_solution(lam, rho, m, n, lhat, rhat, g0,
                  lam_s, rho_s, m_s, n_s, lhat_s, rhat_s, h0):
    """Validated constructor enforcing the closed-string relations."""
    m, n, m_s, n_s = check_windings(m, n, m_s, n_s)
    sol = SolutionParams(lam, rho, m, n, lhat, rhat, g0,
                         lam_s, rho_s, m_s, n_s, lhat_s, rhat_s, h0)
    for suffix, (lam, rho, m, n, *_) in zip(("", "_s"), sol.sectors):
        if abs(4.0 * lam * rho - m * n) > RELATION_TOL * max(1.0, abs(m * n)):
            raise ValidationError(f"4 lam{suffix} rho{suffix} = {4.0 * lam * rho} differs "
                                  f"from m{suffix} n{suffix} = {m * n}")
    return sol


def _phases(lam, rho, m, n, tau, sigma):
    """(cos, sin) of th_l = lam tau + m sigma/2 and of th_r = rho tau + n sigma/2."""
    th_l = lam * tau + 0.5 * m * sigma
    th_r = rho * tau + 0.5 * n * sigma
    return np.cos(th_l), np.sin(th_l), np.cos(th_r), np.sin(th_r)


def _phase_orders(lam, rho, m, n, tau, sigma):
    """The (c_l, s_l, c_r, s_r) of _phases stacked in the orders (i, j) = 00, 10, 01, 11.

    Through _phase_product they give the terms A^(i) g0 B^(j) of phase-derivative
    orders i, j <= 1, as a phase derivative maps (c, s) to (-s, c).
    """
    c_l, s_l, c_r, s_r = _phases(lam, rho, m, n, tau, sigma)
    return (np.array([c_l, -s_l, c_l, -s_l]), np.array([s_l, c_l, s_l, c_l]),
            np.array([c_r, c_r, -s_r, -s_r]), np.array([s_r, s_r, c_r, c_r]))


def _phase_product(c_l, s_l, c_r, s_r, left_mat, g0_mat, right_mat):
    """(c_l I + s_l L) g0 (c_r I + s_r R) broadcast over phase arrays."""
    lg = left_mat @ g0_mat
    gr = g0_mat @ right_mat
    lgr = left_mat @ gr
    c_l, s_l, c_r, s_r = (np.asarray(a)[..., None, None] for a in (c_l, s_l, c_r, s_r))
    return c_l * c_r * g0_mat + c_l * s_r * gr + s_l * c_r * lg + s_l * s_r * lgr


def _on_points(matrices, tau, sigma):
    """tau, sigma as float arrays and SolutionParams.matrices with a unit axis per point axis."""
    tau, sigma = np.asarray(tau, dtype=float), np.asarray(sigma, dtype=float)
    lift = (slice(None),) + (None,) * max(tau.ndim, sigma.ndim)
    return (tau, sigma, *(a[lift] for a in matrices))


def _unstack(a):
    """(AdS, sphere) of a sector-stacked array; the AdS sector leaves through .real."""
    return a[0].real, a[1]


def _periodic_sigmas(*windings):
    """Every sum of distinct pi/|w| over the nonzero windings w: sigma-nodes with exact means.

    The mean of F(sigma) and F(sigma + pi/|w|) cancels e^{+-i w sigma}, and the library's
    sigma-averages (charges, string form) carry no frequency but 0 and their windings.
    """
    sigmas = np.zeros(1)
    for k in sorted({abs(w) for w in windings if w}):
        sigmas = np.concatenate([sigmas, sigmas + math.pi / k])
    return sigmas


def evaluate_matrices(sol, tau, sigma):
    """Raw worldsheet matrices g, h, broadcast over tau and sigma arrays.

    Unit timelike and unit su(2) directions both square to -I, so the
    exponentials reduce to cos/sin pairs and the product is assembled from
    four constant matrices.
    """
    tau, sigma, lam, rho, m, n, lmat, rmat, x0 = _on_points(sol.matrices, tau, sigma)
    return _unstack(_phase_product(*_phases(lam, rho, m, n, tau, sigma), lmat, x0, rmat))


def _derivatives(sectors, taus, sigmas):
    """g^{-1}, g_tau, g_sig, g_tautau, g_sigsig of stacked sectors (SolutionParams.matrices).

    Each has the sector axis first, then the points.  With A = c_l I + s_l L and
    B = c_r I + s_r R, the terms A^(i) g0 B^(j) of phase-derivative orders i, j <= 1
    come from one _phase_product call on the stacks of _phase_orders; A'' = -A and
    B'' = -B close Leibniz.  The order-0 term is evaluate_matrices' g bit for bit.
    """
    tau, sigma, lam, rho, m, n, lmat, rmat, x0 = _on_points(sectors, taus, sigmas)
    g, g_l, g_r, g_lr = _phase_product(*_phase_orders(lam, rho, m, n, tau, sigma),
                                       lmat, x0, rmat)
    lam, rho, u, v = (a[..., None, None] for a in (lam, rho, 0.5 * m, 0.5 * n))  # u, v: d th/d sig
    return (_adjugate(g), lam * g_l + rho * g_r, u * g_l + v * g_r,
            2.0 * lam * rho * g_lr - (lam * lam + rho * rho) * g,
            2.0 * u * v * g_lr - (u * u + v * v) * g)


def evaluate(sol, tau, sigma):
    """Worldsheet fields at a point, as validated group elements."""
    g, h = evaluate_matrices(sol, float(tau), float(sigma))
    return AdsGroupElement(g), SphereGroupElement(h)


def apply_isometry(sol, g_left=None, g_right=None, h_left=None, h_right=None):
    """Transform parameters under g -> g_L g g_R, h -> h_L h h_R.

    The direction vectors go to Ad_{g_L} l and Ad_{g_R^{-1}} r while the
    frequencies and windings are untouched, so that evaluating the returned
    parameters reproduces g_L g(tau, sigma) g_R pointwise; each is rebuilt by its angle chart.
    """
    g_left, g_right = (AdsGroupElement.identity() if g is None else g for g in (g_left, g_right))
    h_left, h_right = (SphereGroupElement.identity() if h is None else h for h in (h_left, h_right))

    def moved(g, vhat):
        unit = type(vhat)
        return unit(*unit._to_angles(adjoint(g, vhat.element).coeffs))

    return replace(
        sol, lhat=moved(g_left, sol.lhat), rhat=moved(g_right.inverse(), sol.rhat),
        g0=AdsGroupElement(g_left.matrix @ sol.g0.matrix @ g_right.matrix),
        lhat_s=moved(h_left, sol.lhat_s), rhat_s=moved(h_right.inverse(), sol.rhat_s),
        h0=SphereGroupElement(h_left.matrix @ sol.h0.matrix @ h_right.matrix))


def theta_invariants(sol):
    """(cosh 2theta, cos 2theta_s) from the isometry-invariant traces."""
    *_, l, r, x0 = sol.matrices
    return tuple((-0.5 * np.trace(l @ x0 @ r @ _adjugate(x0), axis1=-2, axis2=-1)).real.tolist())


@dataclass(frozen=True)
class CanonicalAngles:
    """Canonical-frame angles theta, theta_s plus the worldsheet phases."""

    theta: float
    theta_s: float
    lam: float
    rho: float
    m: int
    n: int
    lam_s: float
    rho_s: float
    m_s: int
    n_s: int


def ads_kak(g):
    """Decompose g = exp(p t0) exp(theta t1) exp(q t0) with theta >= 0."""
    y = g.embedding
    sh = math.hypot(y[2], y[3])
    theta = math.asinh(sh)
    eta = math.atan2(y[1], y[0])
    xi = math.atan2(y[3], y[2]) if sh > 1e-14 else 0.0
    return 0.5 * (eta + xi), theta, 0.5 * (eta - xi)


def sphere_kak(h):
    """Decompose h = exp(p s3) exp(theta_s s2) exp(q s3), theta_s in [0, pi/2]."""
    x = h.embedding
    st = math.hypot(x[0], x[1])
    ct = math.hypot(x[2], x[3])
    theta_s = math.atan2(st, ct)
    xi_s = math.atan2(x[2], x[3]) if ct > 1e-14 else 0.0
    eta_s = math.atan2(x[0], x[1]) if st > 1e-14 else 0.0
    return 0.5 * (xi_s + eta_s), theta_s, 0.5 * (xi_s - eta_s)


def canonicalizing_isometry(sol):
    """Isometry elements bringing sol to the canonical frame.

    Returns (g_L, g_R, h_L, h_R, theta, theta_s) such that the transformed
    solution has l = r = t0, l_s = r_s = s3, g0 = exp(theta t1) and
    h0 = exp(theta_s s2).
    """
    out = []
    for (*_, lhat, rhat, x0), kak in zip(sol.sectors, (ads_kak, sphere_kak)):
        a_l = aligning_rotation(lhat).inverse()
        a_r = aligning_rotation(rhat)
        p, angle, q = kak(a_l @ x0 @ a_r)
        e = type(lhat).reference()
        out.append((exp_algebra(e, -p) @ a_l, a_r @ exp_algebra(e, -q), angle))
    (g_left, g_right, theta), (h_left, h_right, theta_s) = out
    return g_left, g_right, h_left, h_right, theta, theta_s


def _canonical_frame(theta, theta_s):
    """The frame fields l = r = t0, l_s = r_s = s3, g0 = exp(theta t1), h0 = exp(theta_s s2)."""
    return dict(
        lhat=UnitTimelikeVector(),
        rhat=UnitTimelikeVector(),
        g0=exp_algebra(_T1, theta),
        lhat_s=UnitSphereVector(),
        rhat_s=UnitSphereVector(),
        h0=exp_algebra(_S2, theta_s),
    )


def canonical_form(sol):
    """Isometry-equivalent solution in the canonical frame.

    The frame fixes l = r = t0 and l_s = r_s = s3 with g0, h0 reduced to
    pure theta / theta_s factors; the residual worldsheet-translation gauge
    is fixed by zeroing the leftover rotation phases.
    """
    *_, theta, theta_s = canonicalizing_isometry(sol)
    canon = replace(sol, **_canonical_frame(theta, theta_s))
    angles = CanonicalAngles(theta, theta_s, sol.lam, sol.rho, sol.m, sol.n,
                             sol.lam_s, sol.rho_s, sol.m_s, sol.n_s)
    return canon, angles


def family_solution(f, b, n=1):
    """Canonical-frame solution of the one-winding family at (f, b), at the bridge angles."""
    # validated, and its relations hold by construction; 4 lam rho = m n cancels from b ~ 30 on
    pt = SimpleFamilyPoint(f, b, n)
    if pt.n * pt.n > sys.float_info.max:
        raise ValidationError("winding n is too large: m n = -n**2 is beyond 1.8e308")
    return SolutionParams(
        lam=pt.lam, rho=pt.rho, m=pt.m, n=pt.n,
        lam_s=pt.lam_s, rho_s=pt.rho_s, m_s=pt.m_s, n_s=pt.n_s,
        **_canonical_frame(*family_angles(pt.cosh2theta, pt.cos2theta_s)),
    )


def embedding_surface(sol, taus, sigmas):
    """Sampled embedding coordinates Y, X over a (tau, sigma) grid.

    Returns arrays of shape (len(taus), len(sigmas), 4) ordered
    (Y0', Y0, Y1, Y2) and (X1, X2, X3, X4).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    g, h = evaluate_matrices(sol, taus[:, None], sigmas[None, :])
    return AdsGroupElement.embed(g), SphereGroupElement.embed(h)


def winding_numbers(sol):
    """Winding counts of the sigma-cycle at tau = 0 in the (Y1, Y2) and (X3, X4) planes.

    Unwraps the polar angle along one sigma period; the step count keeps the
    fastest phase well below the Nyquist limit.  Raises when a projected
    radius collapses and the angle is undefined.
    """
    max_w = max(abs(sol.m), abs(sol.n), abs(sol.m_s), abs(sol.n_s), 1)
    sigmas = np.linspace(0.0, 2.0 * math.pi, int(max(64, 16 * max_w)) + 1)
    y, x = embedding_surface(sol, [0.0], sigmas)

    def unwrapped_count(u, v, label):
        radius = np.hypot(u, v)
        if np.min(radius) < 1e-8:
            raise DegenerateConfigurationError(
                f"{label} projection radius collapses; winding undefined")
        total = np.unwrap(np.arctan2(v, u))
        return int(round(abs(total[-1] - total[0]) / (2.0 * math.pi)))

    n_ads = unwrapped_count(y[0, :, 2], y[0, :, 3], "(Y1, Y2)")
    n_sph = unwrapped_count(x[0, :, 3], x[0, :, 2], "(X3, X4)")
    return n_ads, n_sph


def params_to_dict(sol):
    """JSON-friendly dict mirroring the SolutionParams fields."""
    g0 = sol.g0.matrix
    h0 = sol.h0.matrix
    return {
        "lam": sol.lam, "rho": sol.rho, "m": sol.m, "n": sol.n,
        "lhat": {"rapidity": sol.lhat.rapidity, "angle": sol.lhat.angle},
        "rhat": {"rapidity": sol.rhat.rapidity, "angle": sol.rhat.angle},
        "g0": [[g0[i, j] for j in range(2)] for i in range(2)],
        "lam_s": sol.lam_s, "rho_s": sol.rho_s, "m_s": sol.m_s, "n_s": sol.n_s,
        "lhat_s": {"polar": sol.lhat_s.polar, "azimuth": sol.lhat_s.azimuth},
        "rhat_s": {"polar": sol.rhat_s.polar, "azimuth": sol.rhat_s.azimuth},
        "h0": [[[h0[i, j].real, h0[i, j].imag] for j in range(2)] for i in range(2)],
    }


def params_from_dict(data, strict=True):
    """Rebuild SolutionParams from the JSON schema of params_to_dict.

    strict=False skips the frequency/parity relations (group validity is
    always enforced) so that verification can probe invalid parameters.
    Windings follow bridge's one winding rule in both modes; a fractional, non-finite or
    boolean one is rejected, not truncated; every other number must be a JSON number (_numbers).
    """
    try:
        num = {k: _numbers(data[k], k) for k in ("lam", "rho", "lhat", "rhat", "g0",
                                                 "lam_s", "rho_s", "lhat_s", "rhat_s", "h0")}
        kwargs = dict(
            lam=float(num["lam"]), rho=float(num["rho"]),
            m=_winding(data["m"], "m"), n=_winding(data["n"], "n"),
            lhat=UnitTimelikeVector(**num["lhat"]), rhat=UnitTimelikeVector(**num["rhat"]),
            g0=AdsGroupElement(np.array(num["g0"])),
            lam_s=float(num["lam_s"]), rho_s=float(num["rho_s"]),
            m_s=_winding(data["m_s"], "m_s"), n_s=_winding(data["n_s"], "n_s"),
            lhat_s=UnitSphereVector(**num["lhat_s"]), rhat_s=UnitSphereVector(**num["rhat_s"]),
            h0=SphereGroupElement(np.array([[complex(re, im) for re, im in row]
                                            for row in num["h0"]])),
        )
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed parameter file: {exc}") from exc
    if strict:
        return make_solution(**kwargs)
    return SolutionParams(**kwargs)
