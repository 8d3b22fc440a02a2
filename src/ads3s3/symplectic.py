"""Particle and string phase spaces and their symplectic structure.

The particle phase space on the group manifolds is charted by the unit
directions of the left/right charges, the sphere Casimir m_s and one angle;
its symplectic form splits into coadjoint-orbit blocks,

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

which needs one central-difference layer for d_j g and d_j R_tau.  Its
orbit blocks reproduce the charge coefficients, the remainder being the
(f, b, phi1, phi2) sector that has no closed form here.

Validation happens at the boundary: chart points and StringChart.solution
are validated types, while the 25 solutions behind one form stay raw 2x2
arrays from the algebra kernels, fed to the derivative kernel of solutions
(one call per solution gives g^{-1} and g_tau, so g and R_tau), with the
chart conditions checked on those raw numbers.

Poisson brackets use {F, G} = -grad(F)^T omega^{-1} grad(G).  Each chart's
charges(x) is the vector Q of the twelve CHARGE_NAMES, so one Jacobian gives
the whole table {Q_a, Q_b}, which closes on BRACKET_STRUCTURE @ Q.  The global
sign is fixed once by matching {L_mu, L_nu} = -2 eps_{mu nu}^rho L_rho on
the AdS left block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import admissible as _admissible, check_winding, family_angles, family_relations
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
    _dot,
    _exp_matrix,
    _normalized_commutator,
)
from .solutions import SolutionParams, _derivatives, _periodic_sigmas

# One central-difference layer: h ~ eps^(1/3) balances the h^2 truncation,
# which grows near the l = r chart singularity, against eps/h roundoff.
FORM_STEP = 5e-6
SIGMA_POINTS = 64  # base count of the string 1-form's sigma nodes, see _periodic_sigmas
DEFAULT_GRAD_STEP = 1e-6

# the components of chart.charges(x): L_mu, R_mu (AdS, lower index), Ls_m, Rs_m
CHARGE_NAMES = ("L0", "L1", "L2", "R0", "R1", "R2",
                "Ls1", "Ls2", "Ls3", "Rs1", "Rs2", "Rs3")

# {Q_a, Q_b} = sum_c BRACKET_STRUCTURE[a, b, c] Q_c over CHARGE_NAMES: -2 eps_{mu nu}^rho
# on L, +2 eps_{mu nu}^rho on R, +2 eps_{mnl} on Ls, -2 eps_{mnl} on Rs, zero across blocks
BRACKET_STRUCTURE = np.zeros((12, 12, 12))
for _k, _block in enumerate((-2.0 * EPS_MIXED, 2.0 * EPS_MIXED, 2.0 * EPS, -2.0 * EPS)):
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
    """{F, G} at x from the (possibly x-dependent) symplectic form.

    omega is a TwoFormMatrix or a callable x -> TwoFormMatrix; gradients are
    numeric.  Sign convention: the AdS left charges close on
    {L_mu, L_nu} = -2 eps_{mu nu}^rho L_rho.
    """
    form = omega(x) if callable(omega) else omega
    return float(bracket_table([F, G], form, x, step)[0, 1])


def bracket_table(functions, form, x, step=DEFAULT_GRAD_STEP):
    """All pairwise brackets at x of the functions' components (a row each) as one matrix.

    The gradients are stacked into G and the table -G omega^{-1} G^T comes
    from a single solve, which keeps the singular-form guard of inverse().
    """
    grads = np.concatenate([np.atleast_2d(gradient(fn, x, step)) for fn in functions])
    return -grads @ form.solve(grads.T)


# ---------------------------------------------------------------------------
# particle sector

@dataclass(frozen=True)
class _SphereChartAxes:
    """Cyclic coordinate chart (u, v) on the unit sphere with dependent w.

    axis is the dependent component index; (u, v) are the cyclically next
    two components, so the area form is du ^ dv / w in every chart.
    """

    axis: int
    sign: float

    @classmethod
    def for_vector(cls, coeffs):
        axis = int(np.argmax(np.abs(coeffs)))
        return cls(axis=axis, sign=1.0 if coeffs[axis] >= 0.0 else -1.0)

    @property
    def u_index(self):
        return (self.axis + 1) % 3

    @property
    def v_index(self):
        return (self.axis + 2) % 3

    def to_coords(self, coeffs):
        return float(coeffs[self.u_index]), float(coeffs[self.v_index])

    def from_coords(self, u, v):
        w2 = 1.0 - u * u - v * v
        if w2 <= 0.0:
            raise DegenerateConfigurationError("sphere chart coordinates left the disk")
        out = np.empty(3)
        out[self.u_index] = u
        out[self.v_index] = v
        out[self.axis] = self.sign * math.sqrt(w2)
        return out

    def w(self, u, v):
        return self.sign * math.sqrt(max(0.0, 1.0 - u * u - v * v))


def _ads_from_chart(l1, l2):
    return np.array([math.sqrt(1.0 + l1 * l1 + l2 * l2), l1, l2])


class _OrbitChart:
    """Chart on the four orbit directions (l, r, l_s, r_s) plus extra coordinates.

    The first eight coordinates are (l1, l2, r1, r2), the spatial components
    of the AdS directions (global on the future hyperboloid), and the (u, v)
    pairs of the sphere directions in cyclic charts whose dependent axis is
    the direction's largest component at the base point, so the chart stays
    away from its coordinate singularity.  Orbit block k of a form is the
    k-th orbit coefficient over the k-th block normaliser.  Subclasses supply
    labels, coefficient_index, the extra coordinates and orbit_coefficients(x).
    """

    def __init__(self, point):
        self.ls_axes = _SphereChartAxes.for_vector(point.lhat_s.coeffs)
        self.rs_axes = _SphereChartAxes.for_vector(point.rhat_s.coeffs)
        self._x0 = self.coords(point)

    def coords(self, point):
        l, r = point.lhat.coeffs, point.rhat.coeffs
        lsu, lsv = self.ls_axes.to_coords(point.lhat_s.coeffs)
        rsu, rsv = self.rs_axes.to_coords(point.rhat_s.coeffs)
        return np.array([l[1], l[2], r[1], r[2], lsu, lsv, rsu, rsv,
                         *self._extra_coords(point)])

    def _direction(self, k, x):
        """Coefficients of direction k = 0..3 (l, r, l_s, r_s) at chart vector x."""
        u, v = x[2 * k], x[2 * k + 1]
        if k < 2:
            return _ads_from_chart(u, v)
        return (self.ls_axes, self.rs_axes)[k - 2].from_coords(u, v)

    def _block_normalisers(self, x):
        """Signed normalisers -2 l0, 2 r0, 2 w_ls, -2 w_rs of the orbit blocks.

        AdS blocks m dl2^dl1/(2 l0) and m dr1^dr2/(2 r0); the sphere blocks
        carry the mirrored orientation of the su(2) structure constants.
        """
        l0, r0 = self._direction(0, x)[0], self._direction(1, x)[0]
        w_ls = self.ls_axes.w(x[4], x[5])
        w_rs = self.rs_axes.w(x[6], x[7])
        if abs(w_ls) < 1e-8 or abs(w_rs) < 1e-8:
            raise DegenerateConfigurationError(
                "sphere chart at its coordinate singularity; rebuild the chart")
        return -2.0 * l0, 2.0 * r0, 2.0 * w_ls, -2.0 * w_rs

    def orbit_block_coefficients(self, form=None):
        """Signed orbit coefficients (m_L, m_R, m_L_s, m_R_s) read off a form."""
        form = self.form() if form is None else form
        return tuple(scale * float(form.matrix[2 * k, 2 * k + 1])
                     for k, scale in enumerate(self._block_normalisers(self._x0)))

    def charges(self, x):
        """The twelve charge components at chart vector x, in CHARGE_NAMES order.

        Each is its orbit coefficient times its direction, the AdS ones lowered by eta.
        """
        dirs = np.array([self._direction(k, x) for k in range(4)])
        dirs[:2] = dirs[:2] @ ETA
        return (np.array(self.orbit_coefficients(x))[:, None] * dirs).ravel()

    def charge_function(self, name):
        """Scalar chart function of one charge component or orbit coefficient.

        Names: CHARGE_NAMES and the keys of coefficient_index; any other
        name is rejected here, before the function is evaluated.
        """
        if name in self.coefficient_index:
            k = self.coefficient_index[name]
            return lambda x: float(self.orbit_coefficients(x)[k])
        if name not in CHARGE_NAMES:
            raise ValueError(f"unknown charge function {name!r}")
        k = CHARGE_NAMES.index(name)
        return lambda x: float(self.charges(x)[k])


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
    coefficient_index = {"m_L": 0, "m_R": 1, "m_s": 2}

    def __init__(self, point):
        self.M = point.M
        super().__init__(point)

    def _extra_coords(self, point):
        return point.m_s, point.chi

    def orbit_coefficients(self, x):
        m_s = float(x[8])
        m = math.sqrt(self.M ** 2 + m_s ** 2)
        return m, m, m_s, m_s

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
        _check_string_point(self.f, self.b, self.lhat.coeffs, self.rhat.coeffs,
                            self.lhat_s.coeffs, self.rhat_s.coeffs)


def _check_string_point(f, b, l, r, ls, rs):
    """The chart's conditions on (f, b) and raw direction coefficients."""
    ok = _admissible(f, b)
    if not ok:
        raise ValidationError(f"inadmissible (f, b): {ok.reason}")
    if -_dot(AdsAlgebraElement, l, r) <= 1.0 + 1e-12:
        raise ValidationError("chart needs l != r (boost axis undefined)")
    if abs(_dot(SphereAlgebraElement, ls, rs)) >= 1.0 - 1e-12:
        raise ValidationError("chart needs l_s and r_s non-(anti)parallel")


def _orbit_element(algebra, l, r, phase_l, phase_r, theta):
    """Raw exp(phase_l l) exp(-(gamma + theta) n) exp(phase_r r), (n, gamma) from (l, r)."""
    nh, gamma = _normalized_commutator(algebra, l, r)
    return (_exp_matrix(algebra, l, phase_l) @ _exp_matrix(algebra, nh, -(gamma + theta))
            @ _exp_matrix(algebra, r, phase_r))


class StringChart(_OrbitChart):
    """Chart machinery for the string solution space.

    Reconstructs a full solution from the twelve coordinates, evaluates the
    presymplectic 1-form by sigma-quadrature and the symplectic form from
    the d(theta) identity, both over one central-difference layer.

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
    coefficient_index = {"m_L": 0, "m_R": 1, "m_L_s": 2, "m_R_s": 3}
    sphere_gauge_sign = -1.0

    def __init__(self, point, tau=0.0):
        self.n = int(point.n)
        self.tau = float(tau)
        self.sigma = _periodic_sigmas(SIGMA_POINTS, self.n)
        super().__init__(point)

    def _extra_coords(self, point):
        return point.f, point.b, point.phi1, point.phi2

    def orbit_coefficients(self, x):
        """(lam + rho c2t, lam c2t + rho, lam_s + rho_s c2ts, lam_s c2ts + rho_s) at (f, b)."""
        rel = family_relations(float(x[8]), float(x[9]), self.n)
        c2t, c2ts = rel.cosh2theta, rel.cos2theta_s
        return (rel.lam + rel.rho * c2t, rel.lam * c2t + rel.rho,
                rel.lam_s + rel.rho_s * c2ts, rel.lam_s * c2ts + rel.rho_s)

    def _raw_solution(self, x):
        """Raw sectors (lam, rho, m, n, l, r, x0) of 2x2 arrays at chart vector x.

        Also returns the angle pairs of (l, r, l_s, r_s): the directions go
        through their angle charts, as the validated unit vectors take them.
        """
        if not np.all(np.isfinite(x)):
            raise ValidationError("non-finite chart vector")
        units = (UnitTimelikeVector,) * 2 + (UnitSphereVector,) * 2
        angles = [unit._to_angles(self._direction(k, x)) for k, unit in enumerate(units)]
        l, r, ls, rs = (unit._to_coeffs(*a) for unit, a in zip(units, angles))
        f, b, phi1, phi2 = (float(v) for v in x[8:])
        _check_string_point(f, b, l, r, ls, rs)
        rel = family_relations(f, b, self.n)
        theta, theta_s = family_angles(rel.cosh2theta, rel.cos2theta_s)
        ads, sph = AdsAlgebraElement, SphereAlgebraElement
        return ((rel.lam, rel.rho, rel.m, rel.n, ads._matrix(l), ads._matrix(r),
                 _orbit_element(ads, l, r, phi1, -phi1, theta)),
                (rel.lam_s, rel.rho_s, rel.m_s, rel.n_s, sph._matrix(ls), sph._matrix(rs),
                 _orbit_element(sph, ls, rs, phi2, self.sphere_gauge_sign * phi2, theta_s)),
                ), angles

    def solution(self, x):
        """Solution parameters at chart vector x.

        g0 = exp(phi1 l) exp(-(gamma+theta) n) exp(-phi1 r) and the sphere
        analogue with the gauge-sign on the right phase; theta, theta_s come
        from the invariant bridge at (f, b).  These are the numbers of
        _raw_solution, wrapped in validated types.
        """
        sectors, angles = self._raw_solution(np.asarray(x, dtype=float))
        fields = []
        for (*freqs, _, _, x0), unit, pair in zip(sectors, (UnitTimelikeVector, UnitSphereVector),
                                                   (angles[:2], angles[2:])):
            fields += [*freqs, *(unit(*a) for a in pair), unit._algebra._group(x0)]
        return SolutionParams(*fields)

    def _chart_fields(self, x):
        """Per-sector (R_tau, V_j, d_j R_tau) at chart vector x, sigma-sampled.

        One _derivatives call per solution gives g = adj(g^{-1}) and R_tau = g^{-1} g_tau;
        V_j = g^{-1} d_j g and d_j R_tau are one central difference over the 24
        displaced solutions, (12, sigma, 2, 2) arrays; R_tau is (sigma, 2, 2).
        """
        def fields(z):
            return [(inv, _adjugate(inv), inv @ g_t) for inv, g_t, *_ in
                    _derivatives(self._raw_solution(z)[0], self.tau, self.sigma)]

        shifts = FORM_STEP * np.eye(12)
        plus = [fields(x + e) for e in shifts]
        minus = [fields(x - e) for e in shifts]
        out = []
        for k, (inv, _, r_tau) in enumerate(fields(x)):
            d_mat = np.stack([p[k][1] - m[k][1] for p, m in zip(plus, minus)])
            d_r = np.stack([p[k][2] - m[k][2] for p, m in zip(plus, minus)])
            out.append((r_tau, inv @ d_mat / (2.0 * FORM_STEP), d_r / (2.0 * FORM_STEP)))
        return out

    def presymplectic(self, x=None):
        """Components theta_j of the presymplectic 1-form at chart vector x."""
        x = self._x0 if x is None else np.asarray(x, dtype=float)
        out = np.zeros(12)
        for sign, (r, v, _) in zip(SECTOR_SIGNS, self._chart_fields(x)):
            out += (0.5 * sign) * np.einsum("sab,jsba->j", r, v).real
        return out / self.sigma.size

    def form(self, x=None):
        """Symplectic form omega = d(theta) at chart vector x.

        omega_ij = <d_i R, V_j> - <d_j R, V_i> - <R, [V_i, V_j]> per sector,
        i.e. K - K^T with K_ij = <d_i R, V_j> - <R V_i V_j>, sigma-averaged.
        """
        x = self._x0 if x is None else np.asarray(x, dtype=float)
        k_mat = np.zeros((12, 12))
        for sign, (r, v, dr) in zip(SECTOR_SIGNS, self._chart_fields(x)):
            rv = r @ v
            k_mat += (0.5 * sign) * (np.einsum("isab,jsba->ij", dr, v)
                                     - np.einsum("isab,jsba->ij", rv, v)).real
        k_mat /= self.sigma.size
        return TwoFormMatrix(k_mat - k_mat.T, self.labels)


def expected_bracket(name_a, name_b, values):
    """Target value of {A, B}, read from BRACKET_STRUCTURE.

    0.0 unless both names are in CHARGE_NAMES (Casimirs commute with everything).
    values maps charge names to their numbers; only those {A, B} involves are read.
    """
    if name_a not in CHARGE_NAMES or name_b not in CHARGE_NAMES:
        return 0.0
    row = BRACKET_STRUCTURE[CHARGE_NAMES.index(name_a), CHARGE_NAMES.index(name_b)]
    return float(sum(row[c] * values[CHARGE_NAMES[c]] for c in np.flatnonzero(row)))
