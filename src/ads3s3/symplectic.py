"""Particle and string phase spaces and their symplectic structure.

The particle phase space on the group manifolds is charted by the unit
directions of the left/right charges, the sphere Casimir m_s and one angle;
all four directions share one cyclic chart, w^2 = 1 + q (u^2 + v^2) with
q = +1 on the AdS hyperboloid and -1 on the sphere.  Its symplectic form
splits into coadjoint-orbit blocks,

    omega = m w_L + m w_R + m_s w_L^s + m_s w_R^s + dm_s ^ dchi,
    w_L = dl2 ^ dl1 / (2 l^0),    w_R = dr1 ^ dr2 / (2 r^0),

with m = sqrt(M^2 + m_s^2) fixed by the mass shell.  The sphere orbit
blocks carry the opposite relative orientation (w_L^s = dls_u ^ dls_v /
(2 ls_w) in a cyclic chart), which follows from the sign flip between the
sl(2,R) and su(2) structure constants; the orientation is pinned down
numerically in the test suite by differentiating the canonical 1-form
<R g^{-1} dg> directly.

The string phase space is the twelve-parameter solution chart
(l, r, l_s, r_s, f, b, phi1, phi2) with the presymplectic 1-form

    theta_j = (1/2pi) int dsigma [ <R_tau, V_j> + <R_tau^s, V_j^s> ],
    V_j = g^{-1} d_j g,   V_j^s = h^{-1} d_j h.

Chart coordinate fields commute, so the covariant-phase-space identity
d theta(X, Y) = X theta(Y) - Y theta(X) - theta([X, Y]) gives the form
sector by sector as

    omega_ij = <d_i R_tau, V_j> - <d_j R_tau, V_i> - <R_tau, [V_i, V_j]>,

with no step: one solution at the chart point and the exact tangents of its
inputs along the twelve chart directions give d_j g and d_j R_tau.  Its orbit
blocks reproduce the charge coefficients and its phase rows d(m_L - m_R), d(m_R^s - m_L^s);
only the 16 (f, b) x direction entries have no closed form here.

Validation happens at the boundary: chart points are validated types.  _raw_solution builds
one solution and its tangents as raw 2x2 arrays, with the chart conditions checked on them;
solution wraps it, the directions through their exact angle charts, and the form pushes them
through the sigma-nodes 0, pi/n of solutions._periodic_sigmas by the phase product of
solutions.  With m = -n, theta_j and omega_ij carry only e^0 and e^{+-i n sigma}, which the
two nodes cancel (<X_i, V_j>'s e^{+-2i n sigma} is symmetric).

Poisson brackets use {F, G} = -grad(F)^T omega^{-1} grad(G).  Each chart's
charges(x) is the vector Q of the twelve CHARGE_NAMES and orbit_coefficients(x)
that of its four Casimirs; their exact Jacobians charges_jacobian(x) and
orbit_coefficients_jacobian(x) give the whole table {Q_a, Q_b} from one solve,
which closes on BRACKET_STRUCTURE @ Q.  gradient() differences other chart
functions.  The global sign is fixed once by matching
{L_mu, L_nu} = -2 eps_{mu nu}^rho L_rho on the AdS left block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import _band_margins, check_winding, family_angles, family_relations, family_tangent
from .algebra import (
    EPS,
    EPS_MIXED,
    ETA,
    SECTOR_SIGNS,
    AdsAlgebraElement,
    DegenerateConfigurationError,
    SphereAlgebraElement,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    _adjugate,
    _check_finite_fields,
    _cosh_sinh_like,
    _dot,
    _normalized_commutator,
)
from .solutions import SolutionParams, _phase_orders, _phase_product, _periodic_sigmas

DEFAULT_GRAD_STEP = 1e-6  # of gradient, the difference utility for generic chart functions

# the components of chart.charges(x): L_mu, R_mu (AdS, lower index), Ls_m, Rs_m
CHARGE_NAMES = ("L0", "L1", "L2", "R0", "R1", "R2",
                "Ls1", "Ls2", "Ls3", "Rs1", "Rs2", "Rs3")

# per sector on basis coefficients: the metric of <u, v> and [u, v] = sum_c C[a, b, c] u_a v_b e_c,
# from t_mu t_nu = eta_{mu nu} I + eps_{mu nu}^rho t_rho, s_m s_n = -delta_{mn} I - eps_{mnl} s_l
_METRIC = {AdsAlgebraElement: ETA, SphereAlgebraElement: np.eye(3)}
_COMMUTATOR = {AdsAlgebraElement: 2.0 * EPS_MIXED, SphereAlgebraElement: -2.0 * EPS}

# {Q_a, Q_b} = sum_c BRACKET_STRUCTURE[a, b, c] Q_c over CHARGE_NAMES: the left charges close
# on minus the basis commutators, the right ones on plus, and the blocks commute
BRACKET_STRUCTURE = np.zeros((12, 12, 12))
for _k, _block in enumerate(sign * _COMMUTATOR[cls] for cls in _METRIC for sign in (-1.0, 1.0)):
    BRACKET_STRUCTURE[3 * _k:3 * _k + 3, 3 * _k:3 * _k + 3, 3 * _k:3 * _k + 3] = _block


@dataclass(frozen=True)
class TwoFormMatrix:
    """Antisymmetric matrix of a 2-form in labelled chart coordinates."""

    matrix: np.ndarray
    labels: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.labels), len(self.labels)):
            raise ValidationError("form matrix does not match coordinate labels")
        m = 0.5 * (m - m.T)  # exact antisymmetry
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def condition_number(self):
        return float(np.linalg.cond(self.matrix))

    def _require_nonsingular(self):
        """Reject a non-finite form, and a singular one by sigma_min < 1e-8 sigma_max."""
        if not np.isfinite(self.matrix).all():
            raise DegenerateConfigurationError("symplectic form is not finite")
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if not sv[0] > 0.0 or sv[-1] < 1e-8 * sv[0]:
            raise DegenerateConfigurationError("symplectic form is singular")

    def inverse(self):
        self._require_nonsingular()
        return np.linalg.inv(self.matrix)

    def solve(self, rhs):
        """omega^{-1} rhs, with the same singular-form guard as inverse()."""
        self._require_nonsingular()
        return np.linalg.solve(self.matrix, rhs)

    def as_dict(self):
        return {"labels": list(self.labels), "matrix": self.matrix.tolist()}


def gradient(fn, x, step=DEFAULT_GRAD_STEP):
    """Central-difference gradient of a scalar chart function, or the Jacobian of a vector one."""
    x = np.asarray(x, dtype=float)
    return np.stack([(fn(x + e) - fn(x - e)) / (2.0 * step)
                     for e in step * np.eye(x.size)], axis=-1)


def poisson_bracket(F, G, omega, x, step=DEFAULT_GRAD_STEP):
    """{F, G} at x of two scalar chart functions, by their difference gradients.

    omega is a TwoFormMatrix or a callable x -> TwoFormMatrix.  Sign
    convention: the AdS left charges close on {L_mu, L_nu} = -2 eps_{mu nu}^rho L_rho.
    """
    form = omega(x) if callable(omega) else omega
    return float(bracket_table(np.stack([gradient(F, x, step), gradient(G, x, step)]), form)[0, 1])


def bracket_table(rows, form):
    """All pairwise brackets -G omega^{-1} G^T of the gradient rows G, as one matrix.

    The rows are stacked gradients (a chart's exact Jacobians, or gradient() of
    generic functions); one solve keeps the singular-form guard of inverse().
    """
    rows = np.asarray(rows, dtype=float)
    return -rows @ form.solve(rows.T)


# ---------------------------------------------------------------------------
# particle sector

@dataclass(frozen=True)
class _DirectionChart:
    """Cyclic chart (u, v) on a unit direction with dependent w = sign sqrt(1 + q (u^2 + v^2)).

    q = +1 on the AdS hyperboloid (axis 0, w = l0) and q = -1 on the unit sphere; axis is
    the dependent component index and (u, v) the cyclically next two components, so the
    sphere's area form is du ^ dv / w in every chart.
    """

    axis: int
    sign: float
    q: float

    @classmethod
    def for_sphere(cls, coeffs):
        axis = int(np.argmax(np.abs(coeffs)))
        return cls(axis, 1.0 if coeffs[axis] >= 0.0 else -1.0, -1.0)

    @property
    def uv(self):
        return (self.axis + 1) % 3, (self.axis + 2) % 3

    def coords(self, coeffs):
        return tuple(float(coeffs[i]) for i in self.uv)

    def direction(self, u, v):
        w2 = 1.0 + self.q * u * u + self.q * v * v
        if w2 <= 0.0:
            raise DegenerateConfigurationError("sphere chart coordinates left the disk")
        (iu, iv), out = self.uv, np.empty(3)
        out[iu], out[iv], out[self.axis] = u, v, self.sign * math.sqrt(w2)
        return out


class _OrbitChart:
    """Chart on the four orbit directions (l, r, l_s, r_s) plus extra coordinates.

    The first eight coordinates are the (u, v) pairs of the four directions in
    their _DirectionChart: (l1, l2, r1, r2) for the AdS ones (global on the future
    hyperboloid), and for the sphere ones cyclic charts whose dependent axis is the
    direction's largest component at the base point, so the chart stays away from
    its coordinate singularity.  Orbit block k of a form is the k-th orbit
    coefficient over the k-th block normaliser.  Subclasses supply labels, the extra
    coordinates, orbit_coefficients(x), a length-4 array, and its exact Jacobian
    orbit_coefficients_jacobian(x); charges_jacobian(x) follows.
    """

    def __init__(self, point):
        self.axes = ((_DirectionChart(0, 1.0, 1.0),) * 2
                     + tuple(_DirectionChart.for_sphere(d.coeffs)
                             for d in (point.lhat_s, point.rhat_s)))
        self._x0 = self.coords(point)

    def coords(self, point):
        dirs = (point.lhat, point.rhat, point.lhat_s, point.rhat_s)
        return np.array([c for chart, d in zip(self.axes, dirs) for c in chart.coords(d.coeffs)]
                        + list(self._extra_coords(point)))

    def _directions(self, x):
        """Coefficients of the four directions (l, r, l_s, r_s) at chart vector x."""
        return [chart.direction(x[2 * k], x[2 * k + 1]) for k, chart in enumerate(self.axes)]

    def _direction_tangents(self, k, x, direction):
        """Tangents (x.size, 3) of direction k, `direction` at x, nonzero on rows 2k, 2k+1 only."""
        chart, out, uv = self.axes[k], np.zeros((x.size, 3)), slice(2 * k, 2 * k + 2)
        out[2 * k, chart.uv[0]] = out[2 * k + 1, chart.uv[1]] = 1.0
        out[uv, chart.axis] = chart.q * x[uv] / direction[chart.axis]  # dw/du = q u / w
        return out

    def _block_normalisers(self, x):
        """Signed normalisers -2 l0, 2 r0, 2 w_ls, -2 w_rs of the orbit blocks.

        AdS blocks m dl2^dl1/(2 l0) and m dr1^dr2/(2 r0); the sphere blocks
        carry the mirrored orientation of the su(2) structure constants.
        """
        w = [d[chart.axis] for d, chart in zip(self._directions(x), self.axes)]
        if min(map(abs, w)) < 1e-8:
            raise DegenerateConfigurationError(
                "sphere chart at its coordinate singularity; rebuild the chart")
        return tuple(s * wk for s, wk in zip((-2.0, 2.0, 2.0, -2.0), w))

    def orbit_block_coefficients(self, form=None):
        """Signed orbit coefficients (m_L, m_R, m_L_s, m_R_s) read off a form."""
        form = self.form() if form is None else form
        return tuple(scale * float(form.matrix[2 * k, 2 * k + 1])
                     for k, scale in enumerate(self._block_normalisers(self._x0)))

    def charges(self, x=None):
        """The twelve charge components at chart vector x (the base point by default), in
        CHARGE_NAMES order.  Each is its orbit coefficient times its direction, the AdS ones
        lowered by eta.
        """
        x = self._x0 if x is None else x
        dirs = np.array(self._directions(x))
        dirs[:2] = dirs[:2] @ ETA
        return (self.orbit_coefficients(x)[:, None] * dirs).ravel()

    def charges_jacobian(self, x=None):
        """Exact Jacobian of charges(x), (12, x.size): d(m_k d_k) = dm_k d_k + m_k dd_k."""
        x = self._x0 if x is None else np.asarray(x, dtype=float)
        m, dm = self.orbit_coefficients(x), self.orbit_coefficients_jacobian(x)
        out = np.concatenate([np.outer(d, dm[k]) + m[k] * self._direction_tangents(k, x, d).T
                              for k, d in enumerate(self._directions(x))])
        out[[0, 3]] *= -1.0  # L_0 and R_0 lowered by eta
        return out


@dataclass(frozen=True)
class ParticleChartPoint:
    """Point of the reduced ten-dimensional particle phase space.

    chi is the angle conjugate to m_s surviving the mass-shell reduction
    m = sqrt(M^2 + m_s^2); the unreduced angles (phi, phi_s) are kept for
    reconstructing group elements, with chi = phi_s - phi / m.
    """

    lhat: UnitTimelikeVector
    rhat: UnitTimelikeVector
    lhat_s: UnitSphereVector
    rhat_s: UnitSphereVector
    m_s: float
    M: float
    phi: float = 0.0
    phi_s: float = 0.0

    def __post_init__(self):
        _check_finite_fields(self, ("m_s", "M", "phi", "phi_s"))
        if self.m_s <= 0.0:
            raise ValidationError("sphere Casimir m_s must be positive")
        if self.M < 0.0:
            raise ValidationError("mass M must be non-negative")

    @property
    def m(self):
        return math.sqrt(self.M ** 2 + self.m_s ** 2)

    @property
    def chi(self):
        return self.phi_s - self.phi / self.m


class ParticleChart(_OrbitChart):
    """Coordinate chart and assembled symplectic form for the particle.

    The orbit coefficients are (m, m, m_s, m_s) with m = sqrt(M^2 + m_s^2)
    fixed by the mass shell; (m_s, chi) close the chart.
    """

    labels = ("l1", "l2", "r1", "r2", "ls_u", "ls_v", "rs_u", "rs_v", "m_s", "chi")

    def __init__(self, point):
        self.M = point.M
        super().__init__(point)

    def _extra_coords(self, point):
        return point.m_s, point.chi

    def orbit_coefficients(self, x):
        m_s = float(x[8])
        m = math.sqrt(self.M ** 2 + m_s ** 2)
        return np.array([m, m, m_s, m_s])

    def orbit_coefficients_jacobian(self, x):
        """Exact Jacobian of orbit_coefficients(x): only m_s moves them, dm/dm_s = m_s / m."""
        out, coeffs = np.zeros((4, np.size(x))), self.orbit_coefficients(x)
        out[:, 8] = coeffs[2] / coeffs
        return out

    def form(self, x=None):
        """Assembled block-diagonal symplectic form at chart vector x."""
        x = self._x0 if x is None else np.asarray(x, dtype=float)
        omega = np.zeros((10, 10))
        for k, (coeff, scale) in enumerate(zip(self.orbit_coefficients(x),
                                               self._block_normalisers(x))):
            omega[2 * k, 2 * k + 1] = coeff / scale
        omega[8, 9] = 1.0  # reduced (m_s, chi) pair
        return TwoFormMatrix(omega - omega.T, self.labels)


# ---------------------------------------------------------------------------
# string sector

@dataclass(frozen=True)
class StringChartPoint:
    """Point of the twelve-parameter string solution chart."""

    lhat: UnitTimelikeVector
    rhat: UnitTimelikeVector
    lhat_s: UnitSphereVector
    rhat_s: UnitSphereVector
    f: float
    b: float
    phi1: float = 0.0
    phi2: float = 0.0
    n: int = 1

    def __post_init__(self):
        check_winding(self.n)
        _check_finite_fields(self, ("f", "b", "phi1", "phi2"))
        _check_string_point(self.f, self.b, self.lhat.coeffs, self.rhat.coeffs,
                            self.lhat_s.coeffs, self.rhat_s.coeffs)


def _check_string_point(f, b, l, r, ls, rs):
    """Chart conditions on (f, b) and raw directions; family_tangent diverges on the band edges."""
    if not all(margin > 0.0 for margin in _band_margins(f, b)[1:]):
        raise ValidationError(f"chart needs b > 1, f > b and f^2 - b f - 2 < 0 at ({f}, {b})")
    if -_dot(AdsAlgebraElement, l, r) <= 1.0 + 1e-12:
        raise ValidationError("chart needs l != r (boost axis undefined)")
    if abs(_dot(SphereAlgebraElement, ls, rs)) >= 1.0 - 1e-12:
        raise ValidationError("chart needs l_s and r_s non-(anti)parallel")


def _exp_tangent(algebra, u, du, phase, dphase):
    """Raw exp(phase u) = c I + S u of a unit u and its tangents along the chart directions.

    With u u = q I, (c, S) = (cos, sin) or (cosh, sinh) of phase, and the tangents are
    (q S I + c u) dphase + S du over the rows of dphase and du.
    """
    q = algebra.sign * _dot(algebra, u, u)
    c, s = _cosh_sinh_like(q * phase * phase)
    s *= phase
    one, um = np.eye(2), algebra._matrix(u)
    return (c * one + s * um,
            dphase[:, None, None] * (q * s * one + c * um) + s * algebra._matrix(du))


def _family_tangents(rel):
    """bridge.family_tangent(rel) as rows over the twelve string-chart directions, (8, 12)."""
    out = np.zeros((8, 12))
    out[:, 8:10] = family_tangent(rel)
    return out


def _orbit_tangents(algebra, l, r, phase_l, phase_r, theta, tangents):
    """Raw orbit element exp(phase_l l) exp(-(gamma + theta) n) exp(phase_r r) and its tangents.

    (n, gamma) come from (l, r), and tangents = (dl, dr, dphase_l, dphase_r, dtheta) are those
    of the inputs along the chart directions.  As n = [l, r] / (2 s), s = sinh or sin
    2gamma, dgamma = -d<l, r> / (2 s) with d<l, r> = <l - k r, dr - k dl> (s and k from
    _normalized_commutator), and dn is d[l, r] / (2 s) less its part along n.
    """
    dl, dr, dphase_l, dphase_r, dtheta = tangents
    nh, gamma, s2g, k = _normalized_commutator(algebra, l, r)
    metric, comm = _METRIC[algebra], _COMMUTATOR[algebra]
    d_c = np.einsum("abc,ja,b->jc", comm, dl, r) + np.einsum("abc,a,jb->jc", comm, l, dr)
    d_n = (d_c - np.outer(d_c @ (metric @ nh), nh)) / (2.0 * s2g)
    (a, da), (m, dm), (c, dc) = (
        _exp_tangent(algebra, l, dl, phase_l, dphase_l),
        _exp_tangent(algebra, nh, d_n, -(gamma + theta),
                     (dr - k * dl) @ (metric @ (l - k * r)) / (2.0 * s2g) - dtheta),
        _exp_tangent(algebra, r, dr, phase_r, dphase_r))
    return a @ m @ c, (da @ m + a @ dm) @ c + a @ m @ dc


class StringChart(_OrbitChart):
    """Chart machinery for the string solution space.

    Reconstructs a full solution and its exact chart tangents from the twelve
    coordinates in one build, and evaluates from them the presymplectic 1-form
    by sigma-quadrature and the symplectic form from the d(theta) identity,
    with no difference step.

    The translation gauge pins the four constant-element phases to two chart
    angles as phi1 = phi_l = -phi_r and phi2 = phi_l^s = -phi_r^s.  In this
    winding sector (m = -n, m_s = n_s) the superficially natural choice
    phi2 = +phi_r^s leaves a residual sigma-translation acting inside the
    chart (both sectors' momentum densities cancel identically), which makes
    the 1-form's derivative a rank-10 presymplectic matrix; the sign flip is
    what renders the slice transversal and the twelve-chart honestly
    symplectic.  A subclass with sphere_gauge_sign = +1 reproduces the
    degenerate slice.
    """

    labels = ("l1", "l2", "r1", "r2", "ls_u", "ls_v", "rs_u", "rs_v",
              "f", "b", "phi1", "phi2")
    sphere_gauge_sign = -1.0
    # the chart directions each sector's fields move along: its directions, (f, b), its phase
    _SECTOR_ROWS = ([0, 1, 2, 3, 8, 9, 10], [4, 5, 6, 7, 8, 9, 11])

    def __init__(self, point, tau=0.0):
        self.n = int(point.n)
        self.tau = float(tau)
        self.sigma = _periodic_sigmas(self.n)
        super().__init__(point)

    def _extra_coords(self, point):
        return point.f, point.b, point.phi1, point.phi2

    def orbit_coefficients(self, x):
        """(lam + rho c2t, lam c2t + rho, lam_s + rho_s c2ts, lam_s c2ts + rho_s) at (f, b)."""
        rel = family_relations(float(x[8]), float(x[9]), self.n)
        c2t, c2ts = rel.cosh2theta, rel.cos2theta_s
        return np.array([rel.lam + rel.rho * c2t, rel.lam * c2t + rel.rho,
                         rel.lam_s + rel.rho_s * c2ts, rel.lam_s * c2ts + rel.rho_s])

    def orbit_coefficients_jacobian(self, x):
        """Exact Jacobian of orbit_coefficients(x), by the product rule on its four lines."""
        rel = family_relations(float(x[8]), float(x[9]), self.n)
        dlam, drho, dlam_s, drho_s, dc2t, dc2ts, _, _ = _family_tangents(rel)
        c2t, c2ts = rel.cosh2theta, rel.cos2theta_s
        return np.array([dlam + drho * c2t + rel.rho * dc2t, dlam * c2t + rel.lam * dc2t + drho,
                         dlam_s + drho_s * c2ts + rel.rho_s * dc2ts,
                         dlam_s * c2ts + rel.lam_s * dc2ts + drho_s])

    def _raw_solution(self, x):
        """Raw sectors (lam, rho, m, n, l, r, x0) of 2x2 arrays at chart vector x, and tangents.

        The second item holds per sector (dlam, drho, dl, dr, dx0) along the twelve chart
        directions on a leading axis.
        """
        if not np.all(np.isfinite(x)):
            raise ValidationError("non-finite chart vector")
        l, r, ls, rs = dirs = self._directions(x)
        f, b, phi1, phi2 = (float(v) for v in x[8:])
        _check_string_point(f, b, l, r, ls, rs)
        rel = family_relations(f, b, self.n)
        theta, theta_s = family_angles(rel.cosh2theta, rel.cos2theta_s)
        dl, dr, dls, drs = (self._direction_tangents(k, x, d) for k, d in enumerate(dirs))
        dlam, drho, dlam_s, drho_s, _, _, dtheta, dtheta_s = _family_tangents(rel)
        dphi1, dphi2 = np.eye(12)[10:]
        ads, sph, sgn = AdsAlgebraElement, SphereAlgebraElement, self.sphere_gauge_sign
        g0, dg0 = _orbit_tangents(ads, l, r, phi1, -phi1, theta, (dl, dr, dphi1, -dphi1, dtheta))
        h0, dh0 = _orbit_tangents(sph, ls, rs, phi2, sgn * phi2, theta_s,
                                  (dls, drs, dphi2, sgn * dphi2, dtheta_s))
        return (((rel.lam, rel.rho, rel.m, rel.n, ads._matrix(l), ads._matrix(r), g0),
                 (rel.lam_s, rel.rho_s, rel.m_s, rel.n_s, sph._matrix(ls), sph._matrix(rs), h0)),
                ((dlam, drho, ads._matrix(dl), ads._matrix(dr), dg0),
                 (dlam_s, drho_s, sph._matrix(dls), sph._matrix(drs), dh0)))

    def solution(self, x):
        """Solution parameters at chart vector x.

        g0 = exp(phi1 l) exp(-(gamma+theta) n) exp(-phi1 r) and the sphere analogue with the
        gauge-sign on the right phase; theta, theta_s come from the invariant bridge at (f, b).
        These are the numbers of _raw_solution in validated types, directions by angle charts.
        """
        x = np.asarray(x, dtype=float)
        sectors, _ = self._raw_solution(x)
        dirs, fields = self._directions(x), []
        for k, (*freqs, _, _, x0), unit in zip((0, 2), sectors,
                                                (UnitTimelikeVector, UnitSphereVector)):
            fields += [*freqs, *(unit(*unit._to_angles(d)) for d in dirs[k:k + 2]),
                       unit._algebra._group(x0)]
        return SolutionParams(*fields)

    def _chart_fields(self, x):
        """Per-sector (rows, R_tau, V_j, X_j) at chart vector x, sigma-sampled, from one solution.

        g = A g0 B (A = c_l I + s_l L, B = c_r I + s_r R) is linear in each factor, so the
        tangents of g0, L and R pass through the sigma-nodes as three _phase_product calls,
        those of lam and rho as tau (dlam A' g0 B + drho A g0 B'); the phase orders of
        solutions._phase_orders give g_tau = lam A' g0 B + rho A g0 B' and its tangent alike.
        V_j = g^{-1} d_j g and X_j = g^{-1} d_j g_tau run over the sector's chart directions
        `rows` (7, sigma, 2, 2); R_tau = g^{-1} g_tau is (sigma, 2, 2).
        """
        sectors, tangents = self._raw_solution(x)
        tau, out = self.tau, []
        for (lam, rho, m, n, lmat, rmat, x0), tangent, rows in zip(sectors, tangents,
                                                                  self._SECTOR_ROWS):
            dlam, drho, dl, dr, dx0 = (t[rows, None] for t in tangent)
            cl, sl, cr, sr = _phase_orders(lam, rho, m, n, tau, self.sigma)
            g, g_l, g_r, g_lr = _phase_product(cl, sl, cr, sr, lmat, x0, rmat)
            cl, sl, cr, sr = (w[:3, None] for w in (cl, sl, cr, sr))  # orders of g, g_l, g_r
            d_g, d_gl, d_gr = (_phase_product(cl, sl, cr, sr, lmat, dx0, rmat)
                               + _phase_product(0.0 * cl, sl, cr, sr, dl, x0, rmat)
                               + _phase_product(cl, sl, 0.0 * cr, sr, lmat, x0, dr))
            dlam, drho = dlam[..., None, None], drho[..., None, None]
            d_phase = dlam * g_l + drho * g_r
            d_gt = (lam * d_gl + rho * d_gr + d_phase
                    + tau * ((lam * drho + rho * dlam) * g_lr - (lam * dlam + rho * drho) * g))
            inv = _adjugate(g)
            out.append((rows, inv @ (lam * g_l + rho * g_r), inv @ (d_g + tau * d_phase),
                        inv @ d_gt))
        return out

    def presymplectic(self, x=None):
        """Components theta_j = <R_tau, V_j> of the presymplectic 1-form at chart vector x."""
        x = self._x0 if x is None else np.asarray(x, dtype=float)
        out = np.zeros(12)
        for sign, (rows, r, v, _) in zip(SECTOR_SIGNS, self._chart_fields(x)):
            out[rows] += (0.5 * sign) * np.einsum("sab,jsba->j", r, v).real
        return out / self.sigma.size

    def form(self, x=None):
        """Symplectic form omega = d(theta) at chart vector x.

        omega_ij = <d_i R, V_j> - <d_j R, V_i> - <R, [V_i, V_j]> per sector, i.e.
        K - K^T with K_ij = <d_i R, V_j> - <R V_i V_j>.  As d_i R = X_i - V_i R and
        traceless 2x2 matrices anticommute to their trace, V_i R + R V_i = tr(V_i R) I,
        the R terms drop against tr V_j = 0: K_ij = <X_i, V_j>, sigma-averaged.
        """
        x = self._x0 if x is None else np.asarray(x, dtype=float)
        k_mat = np.zeros((12, 12))
        for sign, (rows, _, v, xt) in zip(SECTOR_SIGNS, self._chart_fields(x)):
            k_mat[np.ix_(rows, rows)] += (0.5 * sign) * np.einsum("isab,jsba->ij", xt, v).real
        k_mat /= self.sigma.size
        return TwoFormMatrix(k_mat - k_mat.T, self.labels)
