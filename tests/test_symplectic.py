import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ads3s3 import algebra as al
from ads3s3.algebra import (
    DegenerateConfigurationError,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    adjoint,
    exp_algebra,
    inner,
)
from ads3s3.bridge import bridge, f_max, family_relations, family_tangent
from ads3s3.charges import (
    charge_coefficients,
    charges_analytic,
    charges_numeric,
    current_matrices,
)
from ads3s3.geometry import eom_residual
from ads3s3.solutions import apply_isometry, evaluate_matrices, make_solution, theta_invariants
from ads3s3.symplectic import (
    BRACKET_STRUCTURE,
    CHARGE_NAMES,
    ParticleChart,
    ParticleChartPoint,
    StringChart,
    StringChartPoint,
    TwoFormMatrix,
    _DirectionChart,
    bracket_table,
    gradient,
    poisson_bracket,
)

from test_solutions import g_from_LR, random_isometry, random_solution

T0, T1, T2 = al.ads_basis()
ADS_CHART = _DirectionChart(0, 1.0, 1.0)
S1, S2, S3 = al.sphere_basis()
F0, B0 = 5.0 / 3.0, 5.0 / 4.0


def random_timelike(rng, lo=0.1, hi=1.0):
    return UnitTimelikeVector(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def random_sphere_vec(rng):
    v = rng.normal(size=3)
    return UnitSphereVector.from_coeffs(v / np.linalg.norm(v))


def random_particle_point(rng):
    return ParticleChartPoint(
        lhat=random_timelike(rng), rhat=random_timelike(rng),
        lhat_s=random_sphere_vec(rng), rhat_s=random_sphere_vec(rng),
        m_s=rng.uniform(0.4, 1.8), M=rng.uniform(0.0, 1.4),
        phi=rng.uniform(0, 2 * math.pi), phi_s=rng.uniform(0, 2 * math.pi))


def random_string_point(rng, n=1):
    while True:
        b = rng.uniform(1.05, 1.6)
        f = rng.uniform(b + 0.05, f_max(b) - 0.05)
        if f > b + 0.05:
            break
    lhat = random_timelike(rng, 0.2, 0.9)
    rhat = random_timelike(rng, 0.2, 0.9)
    if -inner(lhat.element, rhat.element) <= 1.0 + 1e-6:
        rhat = UnitTimelikeVector(rhat.rapidity + 0.7, rhat.angle + 1.0)
    lhat_s = random_sphere_vec(rng)
    while True:
        rhat_s = random_sphere_vec(rng)
        if abs(inner(lhat_s.element, rhat_s.element)) < 0.9:
            break
    return StringChartPoint(lhat=lhat, rhat=rhat, lhat_s=lhat_s, rhat_s=rhat_s,
                            f=f, b=b, phi1=rng.uniform(0, 1.5),
                            phi2=rng.uniform(0, 1.5), n=n)


def bracket_table_residual(chart, form, x, step=1e-6):
    """Max |{A,B} - expected| over all charge-component pairs, from one charge Jacobian."""
    grads = gradient(chart.charges, x, step)
    table = -grads @ form.inverse() @ grads.T
    return float(np.max(np.abs(table - BRACKET_STRUCTURE @ chart.charges(x))))


def jacobi_residual(chart, x, step=1e-4):
    """Max |{A,{B,C}} + {B,{C,A}} + {C,{A,B}}| over all charge-component triples.

    The inner table takes its gradients at the default step, the outer
    brackets differentiate the whole table at `step`.
    """
    def table(y):
        return bracket_table(gradient(chart.charges, y), chart.form(y)).ravel()

    # outer[a, b, c] = {Q_a, {Q_b, Q_c}}
    rows = np.concatenate([gradient(chart.charges, x, step), gradient(table, x, step)])
    outer = bracket_table(rows, chart.form(x))[:12, 12:]
    outer = outer.reshape(12, 12, 12)
    return float(np.max(np.abs(outer + outer.transpose(1, 2, 0) + outer.transpose(2, 0, 1))))


def entry(form, label_a, label_b):
    return float(form.matrix[form.labels.index(label_a), form.labels.index(label_b)])


class SymmetricGaugeChart(StringChart):
    """The string chart with phi2 on both sphere phases: the degenerate slice."""

    sphere_gauge_sign = 1.0


def numeric_exterior_derivative(theta_fn, x, labels, step):
    """d(theta) of a 1-form given by its component vector theta_fn(x).

    omega_ij = d_i theta_j - d_j theta_i by central differences;
    antisymmetric by construction.  The step has no default: the best one
    depends on how many difference layers theta_fn itself contains.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    jac = np.empty((k, k))
    for i in range(k):
        e = np.zeros(k)
        e[i] = step
        jac[i] = (theta_fn(x + e) - theta_fn(x - e)) / (2.0 * step)
    return TwoFormMatrix(jac - jac.T, labels)


NESTED_STEP = 2e-5  # the step the nested-difference form is accurate at
FORM_STEP = 5e-6  # one central-difference layer: h ~ eps^(1/3)
RICHARDSON_STEP = 1e-4  # of the (h, h/2) extrapolated rebuild, truncation O(h^4)


def rebuilt_presymplectic(chart, x, step):
    """theta_j with g^{-1} d_j g from fields rebuilt at x +- step e_j."""
    def fields(z):
        return evaluate_matrices(chart.solution(z), chart.tau, chart.sigma)

    sol = chart.solution(x)
    ads, sph = current_matrices(sol, chart.tau, chart.sigma)
    g, h = fields(x)
    ginv, hinv = np.linalg.inv(g), np.linalg.inv(h)
    out = np.empty(12)
    for j in range(12):
        e = np.zeros(12)
        e[j] = step
        g_p, h_p = fields(x + e)
        g_m, h_m = fields(x - e)
        term_g = 0.5 * np.einsum("sij,sji->s", ads.R_tau, ginv @ (g_p - g_m) / (2 * step))
        term_h = -0.5 * np.einsum("sij,sji->s", sph.R_tau, hinv @ (h_p - h_m) / (2 * step))
        out[j] = float(np.mean(term_g).real + np.mean(term_h).real)
    return out


def richardson_presymplectic(chart, x, step=RICHARDSON_STEP):
    """rebuilt_presymplectic extrapolated from h and h/2: (4 theta(h/2) - theta(h)) / 3."""
    return (4.0 * rebuilt_presymplectic(chart, x, 0.5 * step)
            - rebuilt_presymplectic(chart, x, step)) / 3.0


def oracle_points():
    """The charts of the nested-difference oracle, one at -<l, r> = 1.002 near the l = r edge."""
    rng = np.random.default_rng(95)
    cases = [(1, -1.0), (1, -1.0), (1, -1.0), (2, -1.0), (2, -1.0), (2, 1.0)]
    for n, gauge in cases:
        point = random_string_point(rng, n=n)
        chart = (StringChart if gauge < 0 else SymmetricGaugeChart)(point)
        yield chart, chart.coords(point)


def nested_difference_form(chart, x):
    """Reference string form: numeric d(theta) over rebuilt fields.

    Two nested central differences (600 solution builds), independent of
    the d(theta) identity that StringChart.form evaluates.
    """
    return numeric_exterior_derivative(lambda z: rebuilt_presymplectic(chart, z, NESTED_STEP),
                                       x, chart.labels, NESTED_STEP)


class TestGFromLR:
    def test_pure_rotation_family(self):
        g = g_from_LR(UnitTimelikeVector(), UnitTimelikeVector(), 0.8)
        assert np.max(np.abs(g.matrix - exp_algebra(T0, 0.8).matrix)) <= 1e-14

    def test_adjoint_relation(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            lhat, rhat = random_timelike(rng), random_timelike(rng)
            phi = rng.uniform(0, 2 * math.pi)
            g = g_from_LR(lhat, rhat, phi)
            assert np.max(np.abs(adjoint(g, rhat.element).coeffs - lhat.coeffs)) <= 1e-12

    def test_covering_identification(self):
        # exp(t0, 2pi) = I, so phi and phi + 2pi chart the same element
        assert np.max(np.abs(exp_algebra(T0, 2 * math.pi).matrix - np.eye(2))) <= 1e-12
        lhat = UnitTimelikeVector(0.4, 1.2)
        rhat = UnitTimelikeVector(0.7, 0.3)
        a = g_from_LR(lhat, rhat, 0.9)
        b = g_from_LR(lhat, rhat, 0.9 + 2 * math.pi)
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12

    def test_sphere_analogue(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            lh, rh = random_sphere_vec(rng), random_sphere_vec(rng)
            h = g_from_LR(lh, rh, rng.uniform(0, 2 * math.pi))
            assert np.max(np.abs(adjoint(h, rh.element).coeffs - lh.coeffs)) <= 1e-12


class TestParticleEvaluate:
    """The particle trajectory exp(L tau) g0 = g0 exp(R tau)."""

    def test_initial_point(self):
        g0 = exp_algebra(T1, 0.4)
        L = 1.3 * UnitTimelikeVector(0.5, 0.7).element
        assert np.max(np.abs((exp_algebra(L, 0.0) @ g0).matrix - g0.matrix)) <= 1e-14

    def test_factorizations_agree(self):
        rng = np.random.default_rng(72)
        lhat, rhat = random_timelike(rng), random_timelike(rng)
        m = 1.7
        g0 = g_from_LR(lhat, rhat, 0.6)
        L = m * lhat.element
        R = m * adjoint(g0.inverse(), lhat.element)
        for tau in (0.0, 0.9, 2.4):
            a = exp_algebra(L, tau) @ g0
            b = g0 @ exp_algebra(R, tau)
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12

    def test_casimirs_equal(self):
        rng = np.random.default_rng(73)
        lhat = random_timelike(rng)
        g0 = exp_algebra(al.AdsAlgebraElement(rng.uniform(-1, 1, 3)), 0.8)
        L = 2.1 * lhat.element
        R = adjoint(g0.inverse(), L)
        assert abs(inner(L, L) - inner(R, R)) <= 1e-12


def identity_form(gmat, rmat, sign, x, labels, step=5e-6):
    """d(theta) of theta_j = <R, V_j> from one central-difference layer.

    omega_ij = <d_i R, V_j> - <d_j R, V_i> - <R, [V_i, V_j]> with
    V_j = g^{-1} d_j g and <A, B> = sign tr(AB)/2; d_j g and d_j R are
    central differences, so nothing is differentiated twice.
    """
    def pair(a, b):
        return (sign * 0.5 * np.trace(a @ b)).real

    g = gmat(x)
    ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    k = len(x)
    V, dR = [], []
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        V.append(ginv @ (gmat(x + e) - gmat(x - e)) / (2 * step))
        dR.append((rmat(x + e) - rmat(x - e)) / (2 * step))
    R = rmat(x)
    om = np.array([[pair(dR[i], V[j]) - pair(dR[j], V[i]) - pair(R, V[i] @ V[j] - V[j] @ V[i])
                    for j in range(k)] for i in range(k)])
    return TwoFormMatrix(om, labels)


class TestCanonicalOneFormSplitting:
    """Differentiate <R g^{-1} dg> directly and compare with the orbit blocks.

    This fixes the orientation conventions used by the assembled particle
    form: the AdS blocks are m dl2^dl1/(2l0), m dr1^dr2/(2r0) with -dm^dphi,
    and the sphere blocks come out mirrored with +dm_s^dphi_s.
    """

    ADS_LABELS = ("l1", "l2", "r1", "r2", "m", "phi")

    @staticmethod
    def ads_g(z):
        lh = UnitTimelikeVector.from_coeffs(ADS_CHART.direction(z[0], z[1]))
        rh = UnitTimelikeVector.from_coeffs(ADS_CHART.direction(z[2], z[3]))
        return g_from_LR(lh, rh, z[5]).matrix

    @staticmethod
    def ads_R(z):
        return z[4] * UnitTimelikeVector.from_coeffs(ADS_CHART.direction(z[2], z[3])).matrix

    def ads_theta(self, x):
        step = 1e-6
        g = self.ads_g(x)
        R = self.ads_R(x)
        ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
        out = np.empty(6)
        for j in range(6):
            e = np.zeros(6)
            e[j] = step
            dg = (self.ads_g(x + e) - self.ads_g(x - e)) / (2 * step)
            out[j] = 0.5 * np.trace(R @ ginv @ dg)
        return out

    def test_ads_splitting(self):
        x0 = np.array([0.3, -0.5, 0.7, 0.2, 1.3, 0.9])
        om = numeric_exterior_derivative(self.ads_theta, x0, self.ADS_LABELS, step=2e-5)
        l0 = math.sqrt(1 + x0[0] ** 2 + x0[1] ** 2)
        r0 = math.sqrt(1 + x0[2] ** 2 + x0[3] ** 2)
        m = x0[4]
        assert abs(entry(om, "l1", "l2") + m / (2 * l0)) <= 5e-6
        assert abs(entry(om, "r1", "r2") - m / (2 * r0)) <= 5e-6
        assert abs(entry(om, "m", "phi") + 1.0) <= 5e-6
        # orbit-orbit and orbit-angle cross entries vanish
        for a in ("l1", "l2"):
            for b in ("r1", "r2", "phi"):
                assert abs(entry(om, a, b)) <= 1e-5

    def test_ads_bracket_algebra_from_raw_form(self):
        x0 = np.array([0.3, -0.5, 0.7, 0.2, 1.3, 0.9])
        om = identity_form(self.ads_g, self.ads_R, 1.0, x0, self.ADS_LABELS)

        def Lmu(mu):
            def fn(x):
                v = ADS_CHART.direction(x[0], x[1])
                return x[4] * (-v[0] if mu == 0 else v[mu])
            return fn

        def Rmu(mu):
            def fn(x):
                v = ADS_CHART.direction(x[2], x[3])
                return x[4] * (-v[0] if mu == 0 else v[mu])
            return fn

        # L0..L2, R0..R2 are the first six components of the charge vector
        values = np.array([Lmu(mu)(x0) for mu in range(3)] + [Rmu(mu)(x0) for mu in range(3)])
        expected = BRACKET_STRUCTURE[:6, :6, :6] @ values
        for a in range(3):
            for b in range(3):
                got = poisson_bracket(Lmu(a), Lmu(b), om, x0)
                assert abs(got - expected[a, b]) <= 1e-5
                got = poisson_bracket(Rmu(a), Rmu(b), om, x0)
                assert abs(got - expected[3 + a, 3 + b]) <= 1e-5
                assert abs(poisson_bracket(Lmu(a), Rmu(b), om, x0)) <= 1e-5

    def test_sphere_splitting(self):
        lsv = UnitSphereVector(0.9, 0.4)
        rsv = UnitSphereVector(1.9, 2.2)
        axes_l = _DirectionChart.for_sphere(lsv.coeffs)
        axes_r = _DirectionChart.for_sphere(rsv.coeffs)

        def hmat(z):
            lh = UnitSphereVector.from_coeffs(axes_l.direction(z[0], z[1]))
            rh = UnitSphereVector.from_coeffs(axes_r.direction(z[2], z[3]))
            return g_from_LR(lh, rh, z[5]).matrix

        def rmat(z):
            return z[4] * UnitSphereVector.from_coeffs(axes_r.direction(z[2], z[3])).matrix

        x0 = np.array(list(axes_l.coords(lsv.coeffs))
                      + list(axes_r.coords(rsv.coeffs)) + [0.8, 0.5])
        om = identity_form(hmat, rmat, -1.0, x0, ("lsu", "lsv", "rsu", "rsv", "ms", "phis"))
        ms = x0[4]
        wl = axes_l.direction(x0[0], x0[1])[axes_l.axis]
        wr = axes_r.direction(x0[2], x0[3])[axes_r.axis]
        assert abs(entry(om, "lsu", "lsv") - ms / (2 * wl)) <= 1e-6
        assert abs(entry(om, "rsu", "rsv") + ms / (2 * wr)) <= 1e-6
        assert abs(entry(om, "ms", "phis") - 1.0) <= 1e-6


class TestParticleSymplectic:
    def test_hand_inverted_block_at_axis(self):
        # at l = t0 the left block is (m/2) dl2^dl1, so {L1, L2} = -2m = 2 L0
        point = ParticleChartPoint(
            lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(0.6, 1.0),
            lhat_s=UnitSphereVector(0.9, 0.2), rhat_s=UnitSphereVector(1.2, 2.0),
            m_s=0.8, M=0.9)
        chart = ParticleChart(point)
        x = chart.coords(point)
        form = chart.form(x)
        m = point.m
        assert abs(entry(form, "l1", "l2") + m / 2.0) <= 1e-14
        got = poisson_bracket(lambda z: chart.charges(z)[1], lambda z: chart.charges(z)[2],
                              form, x)
        assert abs(got + 2.0 * m) <= 1e-6

    def test_block_structure_and_antisymmetry(self):
        rng = np.random.default_rng(74)
        point = random_particle_point(rng)
        chart = ParticleChart(point)
        form = chart.form()
        assert np.max(np.abs(form.matrix + form.matrix.T)) == 0.0
        assert form.labels[-2:] == ("m_s", "chi")
        assert abs(entry(form, "m_s", "chi") - 1.0) <= 1e-14
        assert form.matrix.shape == (10, 10)

    def test_reduced_form_nondegenerate(self):
        rng = np.random.default_rng(75)
        for _ in range(5):
            chart = ParticleChart(random_particle_point(rng))
            form = chart.form()
            assert np.isfinite(form.condition_number)
            assert abs(np.linalg.det(form.matrix)) > 1e-12

    def test_full_algebra_random_points(self):
        rng = np.random.default_rng(76)
        worst = 0.0
        for _ in range(20):
            point = random_particle_point(rng)
            chart = ParticleChart(point)
            x = chart.coords(point)
            worst = max(worst, bracket_table_residual(chart, chart.form(x), x))
        assert worst <= 1e-6

    def test_casimir_brackets_vanish(self):
        rng = np.random.default_rng(77)
        point = random_particle_point(rng)
        chart = ParticleChart(point)
        x = chart.coords(point)
        form = chart.form(x)
        grads_cas = gradient(chart.orbit_coefficients, x)
        table = -grads_cas @ form.inverse() @ gradient(chart.charges, x).T
        assert np.max(np.abs(table)) <= 1e-6

    def test_jacobi_identity(self):
        rng = np.random.default_rng(78)
        point = random_particle_point(rng)
        chart = ParticleChart(point)
        assert jacobi_residual(chart, chart.coords(point)) <= 1e-4

    def test_closedness_fd_on_leaves(self):
        # The assembled block form is the leaf-wise splitting: it is closed
        # on fixed-m_s leaves (and the exact form differs only by angle-pairing
        # cross terms that drop out of every charge bracket).  Restricting the
        # coordinate triples to a leaf, d(omega) vanishes to FD accuracy; the
        # honest numeric d(theta) on the string chart is checked unrestricted.
        rng = np.random.default_rng(79)
        point = random_particle_point(rng)
        chart = ParticleChart(point)
        x = chart.coords(point)
        h = 1e-4
        for (i, j, k) in ((0, 1, 9), (4, 5, 2), (2, 3, 6), (0, 4, 9)):
            def domega(a, b, c):
                def d(idx, p, q):
                    e = np.zeros(10)
                    e[idx] = h
                    return (chart.form(x + e).matrix[p, q]
                            - chart.form(x - e).matrix[p, q]) / (2 * h)
                return d(a, b, c) - d(b, a, c) + d(c, a, b)
            assert abs(domega(i, j, k)) <= 1e-4

    def test_massless_limit_chi(self):
        point = ParticleChartPoint(
            lhat=UnitTimelikeVector(0.3, 0.1), rhat=UnitTimelikeVector(0.5, 2.0),
            lhat_s=UnitSphereVector(1.0, 0.3), rhat_s=UnitSphereVector(0.7, 1.1),
            m_s=0.9, M=0.0, phi=1.2, phi_s=0.4)
        assert abs(point.m - point.m_s) <= 1e-15
        assert abs(point.chi - (0.4 - 1.2 / 0.9)) <= 1e-15

    def test_invalid_points_rejected(self):
        # each non-finite scalar is named at construction, before any form is built
        for kwargs, match in ((dict(m_s=-0.1), "m_s must be positive"),
                              (dict(m_s=math.nan), "m_s = nan"), (dict(m_s=math.inf), "m_s = inf"),
                              (dict(M=math.nan), "M = nan"), (dict(phi=math.nan), "phi = nan"),
                              (dict(phi_s=-math.inf), "phi_s = -inf")):
            with pytest.raises(ValidationError, match=match):
                ParticleChartPoint(UnitTimelikeVector(), UnitTimelikeVector(),
                                   UnitSphereVector(), UnitSphereVector(),
                                   **{"m_s": 0.8, "M": 1.0, **kwargs})


class TestStringChart:
    def test_solution_reproduces_bridge_invariants(self):
        rng = np.random.default_rng(80)
        point = random_string_point(rng)
        chart = StringChart(point)
        sol = chart.solution(chart.coords(point))
        c2t, c2ts = theta_invariants(sol)
        blk = bridge(point.f, point.b, point.n)
        assert abs(c2t - blk.cosh2theta) <= 1e-11
        assert abs(c2ts - blk.cos2theta_s) <= 1e-11

    def test_solution_is_valid(self):
        rng = np.random.default_rng(81)
        point = random_string_point(rng)
        sol = StringChart(point).solution(StringChart(point).coords(point))
        assert abs(4 * sol.lam * sol.rho - sol.m * sol.n) <= 1e-12
        ga, _ = evaluate_matrices(sol, 0.3, 1.0)
        gb, _ = evaluate_matrices(sol, 0.3, 1.0 + 2 * math.pi)
        assert np.max(np.abs(ga - gb)) <= 1e-10
        ra, rs = eom_residual(sol, 0.4, 2.0)
        assert ra <= 1e-6 and rs <= 1e-6

    def test_solution_at_rapidity_eight_matches_raw_solution(self):
        # the direction's coefficients miss <v,v> = -1 by 5e-10 at rapidity 8; solution()
        # rebuilds them through the angle chart, as the form's raw build uses them
        point = StringChartPoint(UnitTimelikeVector(8.0, 0.3), UnitTimelikeVector(0.5, 1.0),
                                 UnitSphereVector(0.8, 0.1), UnitSphereVector(2.0, 0.5),
                                 f=F0, b=B0)
        chart = StringChart(point)
        x = chart.coords(point)
        sol, (sectors, _) = chart.solution(x), chart._raw_solution(x)
        for fields, (*freqs, l, r, x0) in zip(sol.sectors, sectors):
            assert fields[:4] == tuple(freqs)
            for direction, raw in ((fields[4], l), (fields[5], r)):
                assert np.max(np.abs(direction.matrix - raw)) <= 1e-15 * np.max(np.abs(raw))
            assert np.array_equal(fields[6].matrix, x0)

    def test_degenerate_points_rejected(self):
        v = UnitTimelikeVector(0.4, 1.0)
        with pytest.raises(ValidationError):
            StringChartPoint(v, v, UnitSphereVector(0.4, 0.2),
                             UnitSphereVector(1.0, 1.0), f=F0, b=B0)
        with pytest.raises(ValidationError):
            StringChartPoint(v, UnitTimelikeVector(0.9, 2.0),
                             UnitSphereVector(0.4, 0.2), UnitSphereVector(0.4, 0.2),
                             f=F0, b=B0)
        with pytest.raises(ValidationError):
            StringChartPoint(v, UnitTimelikeVector(0.9, 2.0),
                             UnitSphereVector(0.4, 0.2), UnitSphereVector(1.0, 1.0),
                             f=3.0, b=1.1)
        for name in ("f", "b", "phi1", "phi2"):
            with pytest.raises(ValidationError, match=f"{name} = nan is not finite"):
                StringChartPoint(v, UnitTimelikeVector(0.9, 2.0),
                                 UnitSphereVector(0.4, 0.2), UnitSphereVector(1.0, 1.0),
                                 **{"f": F0, "b": B0, name: math.nan})


class TestStringPresymplectic:
    def test_zero_direction(self):
        rng = np.random.default_rng(82)
        point = random_string_point(rng)
        assert StringChart(point).presymplectic() @ np.zeros(12) == 0.0

    def test_phi1_direction_pairs_nontrivially(self):
        rng = np.random.default_rng(83)
        point = random_string_point(rng)
        direction = np.zeros(12)
        direction[10] = 1.0  # phi1
        assert abs(StringChart(point).presymplectic() @ direction) > 1e-4

    def test_momentum_map_pairing(self):
        # isometry vector fields pair with theta to the charge components:
        # the left action varies g by A g, the right action by g A
        rng = np.random.default_rng(84)
        point = random_string_point(rng)
        chart = StringChart(point)
        sol = chart.solution(chart.coords(point))
        fields = evaluate_matrices(sol, chart.tau, chart.sigma)
        r_tau = [cur.R_tau for cur in current_matrices(sol, chart.tau, chart.sigma)]

        def pairing(k, gen, side):
            g, a = fields[k], gen.matrix
            delta = np.linalg.inv(g) @ (a @ g) if side == "left" else np.broadcast_to(a, g.shape)
            vals = (0.5 * al.SECTOR_SIGNS[k]) * np.einsum("sij,sji->s", r_tau[k], delta)
            return float(np.mean(vals).real)

        cs = charges_numeric(sol)
        L_low = np.array([-cs.L.coeffs[0], cs.L.coeffs[1], cs.L.coeffs[2]])
        R_low = np.array([-cs.R.coeffs[0], cs.R.coeffs[1], cs.R.coeffs[2]])
        for nu, gen in enumerate((T0, T1, T2)):
            assert abs(pairing(0, gen, "left") - L_low[nu]) <= 1e-10
            assert abs(pairing(0, gen, "right") - R_low[nu]) <= 1e-10
        for k, gen in enumerate((S1, S2, S3)):
            assert abs(pairing(1, gen, "left") - cs.L_s.coeffs[k]) <= 1e-10
            assert abs(pairing(1, gen, "right") - cs.R_s.coeffs[k]) <= 1e-10


class TestStringSymplectic:
    def test_orbit_blocks_carry_charge_coefficients(self):
        for n in (1, 64, 128):
            point = random_string_point(np.random.default_rng(85), n=n)
            chart = StringChart(point)
            sol = chart.solution(chart.coords(point))
            expect = charge_coefficients(charges_analytic(sol), sol)
            for g, e in zip(chart.orbit_block_coefficients(), expect):
                assert abs(g - e) <= 1e-8 * abs(e)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 16, 64, 1000]))
    def test_phase_rows_are_exact_oracles(self, seed, n):
        # each phase translates one orbit pair: omega[phi1, .] = d(m_L - m_R) and
        # omega[phi2, .] = d(m_R_s - m_L_s); the 1-form has no (f, b) component, so the
        # f and b rows are d_f theta and d_b theta; the cross-orbit blocks (l x r, l x l_s, ...),
        # omega_fb and omega_phi1phi2 vanish
        point = random_string_point(np.random.default_rng(seed), n=n)
        chart = StringChart(point)
        x = chart.coords(point)
        omega = chart.form(x).matrix
        dm = chart.orbit_coefficients_jacobian(x)
        theta = chart.presymplectic(x)
        scale = max(1.0, np.max(np.abs(omega)))
        tol = 1e-12 * scale
        assert np.max(np.abs(omega[10] - (dm[0] - dm[1]))) <= tol
        assert np.max(np.abs(omega[11] - (dm[3] - dm[2]))) <= tol
        assert max(abs(theta[8]), abs(theta[9])) <= tol
        for i in range(0, 8, 2):
            for j in range(i + 2, 8, 2):
                assert np.max(np.abs(omega[i:i + 2, j:j + 2])) <= tol, (i, j)
        assert max(abs(omega[8, 9]), abs(omega[10, 11])) <= tol
        h = 1e-5
        for k in (8, 9):
            step = h * np.eye(12)[k]
            diff = (chart.presymplectic(x + step) - chart.presymplectic(x - step)) / (2.0 * h)
            assert np.max(np.abs(omega[k] - diff)) <= 1e-7 * scale, chart.labels[k]

    def test_reference_point_blocks(self):
        rng = np.random.default_rng(86)
        point = random_string_point(rng)
        point = StringChartPoint(point.lhat, point.rhat, point.lhat_s, point.rhat_s,
                                 f=F0, b=B0, phi1=0.6, phi2=0.3, n=1)
        chart = StringChart(point)
        m_L, m_R, m_L_s, m_R_s = chart.orbit_block_coefficients()
        assert abs(m_L - 359.0 / 288.0) <= 1e-5
        assert abs(m_R - 203.0 / 96.0) <= 1e-5
        assert abs(m_L_s - 133.0 / 144.0) <= 1e-5
        assert abs(m_R_s + 1.0 / 18.0) <= 1e-5  # negative right sphere coefficient

    def test_charge_brackets_close(self):
        rng = np.random.default_rng(87)
        worst = 0.0
        for n in (1, 1, 1, 64, 128):
            point = random_string_point(rng, n=n)
            chart = StringChart(point)
            x = chart.coords(point)
            worst = max(worst, bracket_table_residual(chart, chart.form(x), x))
        assert worst <= 1e-6

    def test_invariant_functions_central(self):
        rng = np.random.default_rng(88)
        point = random_string_point(rng)
        chart = StringChart(point)
        x = chart.coords(point)
        form = chart.form(x)
        grads_cas = gradient(chart.orbit_coefficients, x)
        grads_all = np.concatenate([gradient(chart.charges, x), grads_cas])
        assert np.max(np.abs(-grads_cas @ form.inverse() @ grads_all.T)) <= 1e-5

    def test_tau_independence(self):
        rng = np.random.default_rng(89)
        point = random_string_point(rng)
        a = StringChart(point, tau=0.0).orbit_block_coefficients()
        b = StringChart(point, tau=0.7).orbit_block_coefficients()
        for u, v in zip(a, b):
            assert abs(u - v) <= 1e-6

    def test_closedness_fd_sample(self):
        rng = np.random.default_rng(90)
        point = random_string_point(rng)
        chart = StringChart(point)
        x = chart.coords(point)
        h = 2e-4
        i, j, k = 0, 1, 8  # (l1, l2, f)

        def entry(z, p, q):
            return chart.form(z).matrix[p, q]

        def d(idx, p, q):
            e = np.zeros(12)
            e[idx] = h
            return (entry(x + e, p, q) - entry(x - e, p, q)) / (2 * h)

        assert abs(d(i, j, k) - d(j, i, k) + d(k, i, j)) <= 1e-4

    def test_form_matrix_shape_and_antisymmetry(self):
        rng = np.random.default_rng(91)
        point = random_string_point(rng)
        form = StringChart(point).form()
        assert form.matrix.shape == (12, 12)
        assert np.max(np.abs(form.matrix + form.matrix.T)) == 0.0

    def test_nondegenerate_in_default_gauge(self):
        rng = np.random.default_rng(93)
        point = random_string_point(rng)
        form = StringChart(point).form()
        sv = np.linalg.svd(form.matrix, compute_uv=False)
        assert sv.min() > 1e-3

    def test_matches_nested_difference_oracle(self):
        # the bare rebuild at FORM_STEP moves by up to 2e-9 between h and h/2 here, so the
        # exact theta is checked against the (h, h/2) extrapolation; a failure shows both gaps
        for chart, x in oracle_points():
            theta = chart.presymplectic(x)
            gap = np.max(np.abs(theta - richardson_presymplectic(chart, x)))
            assert gap <= 1e-10, (
                gap, np.max(np.abs(theta - rebuilt_presymplectic(chart, x, FORM_STEP))))
            got = chart.form(x).matrix
            assert np.max(np.abs(got - nested_difference_form(chart, x).matrix)) <= 1e-6

    def test_orbit_blocks_exact_at_oracle_points(self):
        # the closed-form charges to roundoff, also at -<l, r> = 1.002 (2e-7 by a difference)
        for chart, x in oracle_points():
            sol = chart.solution(x)
            expect = charge_coefficients(charges_analytic(sol), sol)
            for g, e in zip(chart.orbit_block_coefficients(), expect):
                assert abs(g - e) <= 1e-12

    def test_symmetric_sphere_gauge_is_degenerate_here(self):
        # with phi2 on both right phases (+ sign) the sigma-translation acts
        # inside the slice for this winding sector: d(phi1) - d(phi2) is an
        # exact null direction and the form has rank 10
        rng = np.random.default_rng(94)
        point = random_string_point(rng)
        form = SymmetricGaugeChart(point).form()
        v = np.zeros(12)
        v[10], v[11] = 1.0, -1.0
        assert np.max(np.abs(form.matrix @ v)) <= 1e-6
        sv = np.linalg.svd(form.matrix, compute_uv=False)
        assert np.sum(sv < 1e-6) == 2

    @pytest.mark.parametrize("f", [f_max(1.2) - 1e-6, 1.2 + 1e-6])
    def test_form_next_to_an_admissible_edge(self, f):
        # no stencil leaves the band: the exact tangents hold 1e-6 inside either edge
        point = random_string_point(np.random.default_rng(97))
        point = StringChartPoint(point.lhat, point.rhat, point.lhat_s, point.rhat_s,
                                 f=f, b=1.2)
        chart = StringChart(point)
        form = chart.form()
        assert np.all(np.isfinite(form.matrix))
        sol = chart.solution(chart.coords(point))
        expect = charge_coefficients(charges_analytic(sol), sol)
        for g, e in zip(chart.orbit_block_coefficients(form), expect):
            assert abs(g - e) <= 1e-12

    @pytest.mark.parametrize("f", [f_max(1.2), 1.2])
    def test_form_on_an_admissible_edge_rejected(self, f):
        # the band edges are admissible but have no form: the chart point rejects them
        point = random_string_point(np.random.default_rng(97))
        with pytest.raises(ValidationError, match="chart needs b > 1, f > b"):
            StringChartPoint(point.lhat, point.rhat, point.lhat_s, point.rhat_s, f=f, b=1.2)

    @pytest.mark.parametrize("b", [1.0, np.nextafter(1.0, 2.0), 1.2])
    def test_chart_points_are_where_the_tangents_are_finite(self, b):
        # at each band edge and one ulp inside it, a chart point exists exactly where
        # bridge.family_tangent is finite, and there it has a finite form
        point = random_string_point(np.random.default_rng(97))
        for f in (b, np.nextafter(b, 3.0), f_max(b), np.nextafter(f_max(b), 0.0)):
            try:
                finite = bool(np.all(np.isfinite(family_tangent(family_relations(f, b, 1)))))
            except DegenerateConfigurationError:
                finite = False
            try:
                edge = StringChartPoint(point.lhat, point.rhat, point.lhat_s, point.rhat_s,
                                        f=float(f), b=float(b))
            except ValidationError:
                assert not finite, (f, b)
                continue
            assert finite, (f, b)
            assert np.all(np.isfinite(StringChart(edge).form().matrix)), (f, b)

    def test_form_builds_one_raw_solution(self, monkeypatch):
        point = random_string_point(np.random.default_rng(98))
        chart = StringChart(point)
        x = chart.coords(point)
        calls = []

        def counted(z, build=chart._raw_solution):
            calls.append(z)
            return build(z)

        monkeypatch.setattr(chart, "_raw_solution", counted)
        chart.form(x)
        # the solution at x and its exact tangents, with no stencil around it
        assert len(calls) == 1 and np.array_equal(calls[0], x)

    def test_form_builds_no_validated_objects(self, monkeypatch):
        point = random_string_point(np.random.default_rng(98))
        chart = StringChart(point)
        x = chart.coords(point)
        built = []
        for cls in (al.AdsGroupElement, al.SphereGroupElement, al.AdsAlgebraElement,
                    al.SphereAlgebraElement, UnitTimelikeVector, UnitSphereVector):
            def counted(obj, post_init=cls.__post_init__):
                built.append(type(obj))
                post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        chart.form(x)
        assert built == []
        chart.solution(x)  # the validated wrap: 4 directions and 2 group elements
        assert len(built) == 6


class TestPoissonBracketProperties:
    def test_antisymmetry_and_leibniz(self):
        rng = np.random.default_rng(92)
        point = random_particle_point(rng)
        chart = ParticleChart(point)
        x = chart.coords(point)
        form = chart.form(x)
        F, G, H = (lambda z, k=k: chart.charges(z)[k] for k in (1, 5, 6))  # L1, R2, Ls1
        assert abs(poisson_bracket(F, G, form, x)
                   + poisson_bracket(G, F, form, x)) <= 1e-12

        def GH(y):
            return G(y) * H(y)

        lhs = poisson_bracket(F, GH, form, x)
        rhs = (poisson_bracket(F, G, form, x) * H(x)
               + G(x) * poisson_bracket(F, H, form, x))
        assert abs(lhs - rhs) <= 1e-6

    def test_singular_form_rejected(self):
        form = TwoFormMatrix(np.zeros((2, 2)), ("a", "b"))
        with pytest.raises(DegenerateConfigurationError):
            poisson_bracket(lambda x: x[0], lambda x: x[1], form, np.zeros(2))

    def test_singular_form_rejected_by_table(self):
        form = TwoFormMatrix(np.zeros((2, 2)), ("a", "b"))
        with pytest.raises(DegenerateConfigurationError):
            bracket_table(np.eye(2), form)

    def test_rank_deficient_form_rejected_by_table(self):
        # the degenerate slice has rank 10, yet its determinant is far from 0
        rng = np.random.default_rng(94)
        point = random_string_point(rng)
        chart = SymmetricGaugeChart(point)
        x = chart.coords(point)
        form = chart.form(x)
        assert abs(np.linalg.det(form.matrix)) > 1e-300
        with pytest.raises(DegenerateConfigurationError, match="singular"):
            bracket_table(gradient(chart.charges, x), form)

    def test_table_matches_pairwise_brackets(self):
        rng = np.random.default_rng(96)
        for chart_cls, point in ((ParticleChart, random_particle_point(rng)),
                                 (StringChart, random_string_point(rng, n=2))):
            chart = chart_cls(point)
            x = chart.coords(point)
            form = chart.form(x)
            functions = [lambda z, k=k: chart.charges(z)[k] for k in range(12)]
            # the one-Jacobian table of the charge vector against scalar brackets
            table = bracket_table(gradient(chart.charges, x), form)
            grads = [gradient(fn, x) for fn in functions]
            inv = form.inverse()
            assert np.max(np.abs(table + table.T)) <= 1e-10
            for i, fa in enumerate(functions):
                for j, fb in enumerate(functions):
                    # the explicit -dF omega^{-1} dG, independent of the solve
                    assert abs(table[i, j] + grads[i] @ inv @ grads[j]) <= 1e-10
                    if j >= i:  # the lower half follows by the antisymmetry above
                        assert abs(table[i, j] - poisson_bracket(fa, fb, form, x)) <= 1e-10


class TestExactJacobians:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 7]))
    def test_match_differences(self, seed, n):
        # the closed-form tangents against central differences of the same functions
        rng = np.random.default_rng(seed)
        for chart, point in ((ParticleChart, random_particle_point(rng)),
                             (StringChart, random_string_point(rng, n=n))):
            chart = chart(point)
            x = chart.coords(point)
            for exact, fn in ((chart.charges_jacobian, chart.charges),
                              (chart.orbit_coefficients_jacobian, chart.orbit_coefficients)):
                want = gradient(fn, x, 1e-6)
                assert exact(x).shape == want.shape
                assert np.max(np.abs(exact(x) - want)) <= 1e-6 * np.max(np.abs(want))


# 997 is prime, so it divides none of the frequencies below (0 up to 2 n = 2000)
DENSE_SIGMAS = np.linspace(0.0, 2.0 * math.pi, 997, endpoint=False)


def dense_charges(sol, tau):
    """The (L, R, L_s, R_s) coefficients, (4, 3), as tau-current means over DENSE_SIGMAS."""
    sectors = zip(al.SECTOR_ALGEBRAS, current_matrices(sol, tau, DENSE_SIGMAS))
    return np.array([cls._project(c.mean(axis=0)).real
                     for cls, cur in sectors for c in (cur.L_tau, cur.R_tau)])


# (m, n, m_s, n_s) = (-3, 5, 4, 2), 16 sigma-nodes; and n = m_s = n_s = 0, 2 of them
DISTINCT_WINDINGS = make_solution(
    2.5, -1.5, -3, 5, UnitTimelikeVector(0.4, 1.0), UnitTimelikeVector(0.2, 2.0),
    exp_algebra(al.ads_basis()[1], 0.3), 1.6, 1.25, 4, 2,
    UnitSphereVector.from_coeffs([0.6, 0.0, 0.8]), UnitSphereVector(),
    exp_algebra(al.sphere_basis()[1], 0.4))
ZERO_WINDINGS = make_solution(
    0.7, 0.0, 2, 0, UnitTimelikeVector(0.4, 1.0), UnitTimelikeVector(0.2, 2.0),
    exp_algebra(al.ads_basis()[1], 0.3), 0.0, 0.0, 0, 0, UnitSphereVector(),
    UnitSphereVector(), al.SphereGroupElement.identity())


class TestSigmaNodes:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256, 1000])
    @settings(max_examples=5)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_two_nodes_per_winding_match_a_dense_reference(self, n, seed):
        # the nodes of _periodic_sigmas against 997 equispaced ones, at windings 64 and 256 divide
        rng = np.random.default_rng(seed)
        point = random_string_point(rng, n=n)
        chart, dense = StringChart(point), StringChart(point)
        dense.sigma = DENSE_SIGMAS
        for got, want in ((chart.form().matrix, dense.form().matrix),
                          (chart.presymplectic(), dense.presymplectic())):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        tau = rng.uniform(-2.0, 2.0)
        for sol in (random_solution(rng, n=n),
                    apply_isometry(DISTINCT_WINDINGS, *random_isometry(rng)),
                    apply_isometry(ZERO_WINDINGS, *random_isometry(rng))):
            got = np.array([q.coeffs for q in charges_numeric(sol, tau).vectors])
            want = dense_charges(sol, tau)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestChargeNames:
    def test_charge_functions_are_the_charge_vector(self):
        rng = np.random.default_rng(100)
        for chart_cls, point in ((ParticleChart, random_particle_point(rng)),
                                 (StringChart, random_string_point(rng))):
            chart = chart_cls(point)
            x = chart.coords(point)
            q = chart.charges(x)
            assert q.shape == (len(CHARGE_NAMES),) and chart.orbit_coefficients(x).shape == (4,)
            # L_mu = m_L eta_{mu nu} l^nu: the Casimir -L.L = m_L^2, and Ls.Ls = m_L_s^2
            m_L, _, m_L_s, _ = chart.orbit_coefficients(x)
            assert abs(-q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + m_L ** 2) <= 1e-12 * m_L ** 2
            assert abs(q[6:9] @ q[6:9] - m_L_s ** 2) <= 1e-12 * m_L_s ** 2

    def test_bracket_structure_is_the_basis_algebra(self):
        # left charges close on minus the basis commutators, right ones on plus
        expected = np.zeros((12, 12, 12))
        for k, cls in enumerate(al.SECTOR_ALGEBRAS):
            basis = cls._basis
            comm = np.array([[cls._project(basis[a] @ basis[b] - basis[b] @ basis[a])
                              for b in range(3)] for a in range(3)])
            assert np.all(comm.imag == 0.0)
            for side, sign in enumerate((-1.0, 1.0)):
                block = slice(6 * k + 3 * side, 6 * k + 3 * side + 3)
                expected[block, block, block] = sign * comm.real
        assert np.array_equal(BRACKET_STRUCTURE, expected)
