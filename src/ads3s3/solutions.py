"""Particle-type string solutions and their canonical form.

A solution is a pair of group-valued worldsheet fields

    g(tau, sigma) = exp((lam tau + m sigma/2) l) g0 exp((rho tau + n sigma/2) r)
    h(tau, sigma) = exp((lam_s tau + m_s sigma/2) l_s) h0 exp((rho_s tau + n_s sigma/2) r_s)

with unit vectors l, r (timelike) and l_s, r_s, constant g0, h0, and
frequencies tied to the integer windings by 4 lam rho = m n,
4 lam_s rho_s = m_s n_s.  Same parity of m and n (and of m_s, n_s) closes
the string: sigma -> sigma + 2pi multiplies the factors by (-1)^m (-1)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bridge import FamilyRelations, admissible as _admissible, family_angles, family_relations
from .algebra import (
    AdsGroupElement,
    DegenerateConfigurationError,
    SphereGroupElement,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    adjoint,
    ads_basis,
    aligning_rotation,
    exp_algebra,
    sphere_basis,
)

RELATION_TOL = 1e-12

_T0, _T1, _T2 = ads_basis()
_S1, _S2, _S3 = sphere_basis()


@dataclass(frozen=True)
class SolutionParams:
    """Parameter chart of a particle-type solution.

    Plain container: group membership of g0, h0 and unit normalization of
    the direction vectors are enforced by their types, while the frequency
    relations and winding parity are checked by make_solution.  Keeping the
    container permissive lets verification commands evaluate deliberately
    invalid parameter sets and watch the residuals react.
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


def make_solution(lam, rho, m, n, lhat, rhat, g0,
                  lam_s, rho_s, m_s, n_s, lhat_s, rhat_s, h0):
    """Validated constructor enforcing the closed-string relations."""
    for w, w_name in ((m, "m"), (n, "n"), (m_s, "m_s"), (n_s, "n_s")):
        if int(w) != w:
            raise ValidationError(f"winding {w_name} must be an integer")
    m, n, m_s, n_s = int(m), int(n), int(m_s), int(n_s)
    if (m - n) % 2:
        raise ValidationError(f"m - n = {m - n} is odd (windings must share parity)")
    if (m_s - n_s) % 2:
        raise ValidationError(f"m_s - n_s = {m_s - n_s} is odd")
    if abs(4.0 * lam * rho - m * n) > RELATION_TOL * max(1.0, abs(m * n)):
        raise ValidationError(f"4 lam rho = {4.0 * lam * rho} differs from m n = {m * n}")
    if abs(4.0 * lam_s * rho_s - m_s * n_s) > RELATION_TOL * max(1.0, abs(m_s * n_s)):
        raise ValidationError(
            f"4 lam_s rho_s = {4.0 * lam_s * rho_s} differs from m_s n_s = {m_s * n_s}")
    return SolutionParams(lam, rho, m, n, lhat, rhat, g0,
                          lam_s, rho_s, m_s, n_s, lhat_s, rhat_s, h0)


def _phase_product(c_l, s_l, c_r, s_r, left_mat, g0_mat, right_mat):
    """(c_l I + s_l L) g0 (c_r I + s_r R) broadcast over phase arrays."""
    lg = left_mat @ g0_mat
    gr = g0_mat @ right_mat
    lgr = left_mat @ gr
    c_l = np.asarray(c_l)[..., None, None]
    s_l = np.asarray(s_l)[..., None, None]
    c_r = np.asarray(c_r)[..., None, None]
    s_r = np.asarray(s_r)[..., None, None]
    return c_l * c_r * g0_mat + c_l * s_r * gr + s_l * c_r * lg + s_l * s_r * lgr


def evaluate_matrices(sol, tau, sigma):
    """Raw worldsheet matrices g, h, broadcast over tau and sigma arrays.

    Unit timelike and unit su(2) directions both square to -I, so the
    exponentials reduce to cos/sin pairs and the product is assembled from
    four constant matrices.
    """
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    th_l = sol.lam * tau + 0.5 * sol.m * sigma
    th_r = sol.rho * tau + 0.5 * sol.n * sigma
    g = _phase_product(np.cos(th_l), np.sin(th_l), np.cos(th_r), np.sin(th_r),
                       sol.lhat.matrix, sol.g0.matrix, sol.rhat.matrix)
    th_ls = sol.lam_s * tau + 0.5 * sol.m_s * sigma
    th_rs = sol.rho_s * tau + 0.5 * sol.n_s * sigma
    h = _phase_product(np.cos(th_ls), np.sin(th_ls), np.cos(th_rs), np.sin(th_rs),
                       sol.lhat_s.matrix, sol.h0.matrix, sol.rhat_s.matrix)
    return g, h


def evaluate(sol, tau, sigma):
    """Worldsheet fields at a point, as validated group elements."""
    g, h = evaluate_matrices(sol, float(tau), float(sigma))
    return AdsGroupElement(g), SphereGroupElement(h)


def apply_isometry(sol, g_left=None, g_right=None, h_left=None, h_right=None):
    """Transform parameters under g -> g_L g g_R, h -> h_L h h_R.

    The direction vectors go to Ad_{g_L} l and Ad_{g_R^{-1}} r while the
    frequencies and windings are untouched, so that evaluating the returned
    parameters reproduces g_L g(tau, sigma) g_R pointwise.
    """
    g_left = g_left if g_left is not None else AdsGroupElement.identity()
    g_right = g_right if g_right is not None else AdsGroupElement.identity()
    h_left = h_left if h_left is not None else SphereGroupElement.identity()
    h_right = h_right if h_right is not None else SphereGroupElement.identity()

    def moved(vec_cls, g, vhat):
        return vec_cls.from_coeffs(adjoint(g, vhat.element).coeffs)

    return replace(
        sol,
        lhat=moved(UnitTimelikeVector, g_left, sol.lhat),
        rhat=moved(UnitTimelikeVector, g_right.inverse(), sol.rhat),
        g0=AdsGroupElement(g_left.matrix @ sol.g0.matrix @ g_right.matrix),
        lhat_s=moved(UnitSphereVector, h_left, sol.lhat_s),
        rhat_s=moved(UnitSphereVector, h_right.inverse(), sol.rhat_s),
        h0=SphereGroupElement(h_left.matrix @ sol.h0.matrix @ h_right.matrix),
    )


def theta_invariants(sol):
    """(cosh 2theta, cos 2theta_s) from the isometry-invariant traces."""
    g0, g0inv = sol.g0.matrix, sol.g0.inverse().matrix
    c2t = -0.5 * np.trace(sol.lhat.matrix @ g0 @ sol.rhat.matrix @ g0inv)
    h0, h0inv = sol.h0.matrix, sol.h0.inverse().matrix
    c2ts = -0.5 * np.trace(sol.lhat_s.matrix @ h0 @ sol.rhat_s.matrix @ h0inv)
    return float(c2t), float(c2ts.real)


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
    a_l = aligning_rotation(sol.lhat).inverse()
    a_r = aligning_rotation(sol.rhat)
    g0p = a_l @ sol.g0 @ a_r
    p, theta, q = ads_kak(g0p)
    g_left = exp_algebra(_T0, -p) @ a_l
    g_right = a_r @ exp_algebra(_T0, -q)

    b_l = aligning_rotation(sol.lhat_s).inverse()
    b_r = aligning_rotation(sol.rhat_s)
    h0p = b_l @ sol.h0 @ b_r
    p_s, theta_s, q_s = sphere_kak(h0p)
    h_left = exp_algebra(_S3, -p_s) @ b_l
    h_right = b_r @ exp_algebra(_S3, -q_s)
    return g_left, g_right, h_left, h_right, theta, theta_s


def canonical_form(sol):
    """Isometry-equivalent solution in the canonical frame.

    The frame fixes l = r = t0 and l_s = r_s = s3 with g0, h0 reduced to
    pure theta / theta_s factors; the residual worldsheet-translation gauge
    is fixed by zeroing the leftover rotation phases.
    """
    *_, theta, theta_s = canonicalizing_isometry(sol)
    canon = replace(
        sol,
        lhat=UnitTimelikeVector(),
        rhat=UnitTimelikeVector(),
        g0=exp_algebra(_T1, theta),
        lhat_s=UnitSphereVector(),
        rhat_s=UnitSphereVector(),
        h0=exp_algebra(_S2, theta_s),
    )
    angles = CanonicalAngles(theta, theta_s, sol.lam, sol.rho, sol.m, sol.n,
                             sol.lam_s, sol.rho_s, sol.m_s, sol.n_s)
    return canon, angles


class SimpleFamilyPoint(FamilyRelations):
    """One-winding sector point: windings m_s = n_s = -m = n > 0.

    The rescaled invariants (f, b) must lie in the admissible band
    b <= f <= (b + sqrt(b^2 + 8))/2 with f, b >= 1; the fields are those of
    bridge.family_relations.
    """

    __slots__ = ()

    def __new__(cls, f, b, n=1):
        if n < 1 or int(n) != n:
            raise ValidationError("winding n must be a positive integer")
        ok = _admissible(f, b)
        if not ok:
            raise ValidationError(f"inadmissible (f, b): {ok.reason}")
        return super().__new__(cls, *family_relations(f, b, n))


def family_solution(f, b, n=1, theta=None, theta_s=None):
    """Canonical-frame solution of the one-winding family at (f, b).

    theta and theta_s default to the bridge values; passing them explicitly
    skips the bridge (used for degenerate scans).
    """
    pt = SimpleFamilyPoint(f, b, n)
    if theta is None or theta_s is None:
        theta, theta_s = family_angles(pt.cosh2theta, pt.cos2theta_s)
    return make_solution(
        lam=pt.lam, rho=pt.rho, m=pt.m, n=pt.n,
        lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
        g0=exp_algebra(_T1, theta),
        lam_s=pt.lam_s, rho_s=pt.rho_s, m_s=pt.m_s, n_s=pt.n_s,
        lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
        h0=exp_algebra(_S2, theta_s),
    )


def embedding_surface(sol, taus, sigmas):
    """Sampled embedding coordinates Y, X over a (tau, sigma) grid.

    Returns arrays of shape (len(taus), len(sigmas), 4) ordered
    (Y0', Y0, Y1, Y2) and (X1, X2, X3, X4).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    g, h = evaluate_matrices(sol, taus[:, None], sigmas[None, :])
    y = np.stack([
        0.5 * (g[..., 0, 0] + g[..., 1, 1]),
        0.5 * (g[..., 0, 1] - g[..., 1, 0]),
        0.5 * (g[..., 0, 1] + g[..., 1, 0]),
        0.5 * (g[..., 0, 0] - g[..., 1, 1]),
    ], axis=-1)
    x = np.stack([
        h[..., 0, 1].imag,
        h[..., 0, 1].real,
        h[..., 0, 0].imag,
        h[..., 0, 0].real,
    ], axis=-1)
    return y, x


def winding_numbers(sol, tau=0.0, sigma_steps=None):
    """Winding counts of the sigma-cycle in the (Y1, Y2) and (X3, X4) planes.

    Unwraps the polar angle along one sigma period; the step count keeps the
    fastest phase well below the Nyquist limit.  Raises when a projected
    radius collapses and the angle is undefined.
    """
    max_w = max(abs(sol.m), abs(sol.n), abs(sol.m_s), abs(sol.n_s), 1)
    if sigma_steps is None:
        sigma_steps = max(64, 16 * max_w)
    sigmas = np.linspace(0.0, 2.0 * math.pi, int(sigma_steps) + 1)
    y, x = embedding_surface(sol, [tau], sigmas)

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
    """
    try:
        h0 = np.array([[complex(re, im) for re, im in row] for row in data["h0"]])
        kwargs = dict(
            lam=float(data["lam"]), rho=float(data["rho"]),
            m=int(data["m"]), n=int(data["n"]),
            lhat=UnitTimelikeVector(**{k: float(v) for k, v in data["lhat"].items()}),
            rhat=UnitTimelikeVector(**{k: float(v) for k, v in data["rhat"].items()}),
            g0=AdsGroupElement(np.array(data["g0"], dtype=float)),
            lam_s=float(data["lam_s"]), rho_s=float(data["rho_s"]),
            m_s=int(data["m_s"]), n_s=int(data["n_s"]),
            lhat_s=UnitSphereVector(**{k: float(v) for k, v in data["lhat_s"].items()}),
            rhat_s=UnitSphereVector(**{k: float(v) for k, v in data["rhat_s"].items()}),
            h0=SphereGroupElement(h0),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed parameter file: {exc}") from exc
    if strict:
        return make_solution(**kwargs)
    return SolutionParams(**kwargs)
