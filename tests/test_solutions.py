import math
from dataclasses import replace

import numpy as np
import pytest

from ads3s3 import algebra as al
from ads3s3.algebra import (
    AdsGroupElement,
    DegenerateConfigurationError,
    SphereGroupElement,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    exp_algebra,
)
from ads3s3.bridge import f_max, feasibility_general
from ads3s3.solutions import (
    SimpleFamilyPoint,
    _canonical_frame,
    ads_kak,
    apply_isometry,
    canonical_form,
    canonicalizing_isometry,
    embedding_surface,
    evaluate,
    evaluate_matrices,
    family_solution,
    make_solution,
    params_from_dict,
    params_to_dict,
    sphere_kak,
    theta_invariants,
    winding_numbers,
)

T0, T1, T2 = al.ads_basis()
S1, S2, S3 = al.sphere_basis()
F0, B0 = 5.0 / 3.0, 5.0 / 4.0


def g_from_LR(lhat, rhat, phi):
    """Group point with Ad_g r = l, charted by the angle phi.

        g = A(l) exp(phi e) A(r)^{-1},   A = algebra.aligning_rotation,

    where A(v) is the boost (sl(2,R), e = t0) or rotation (su(2), e = s3)
    taking e to v.  phi and phi + 2pi give the same matrix (exp(e, 2pi) = I).
    """
    return (al.aligning_rotation(lhat) @ exp_algebra(type(lhat).reference(), float(phi))
            @ al.aligning_rotation(rhat).inverse())


def reference_solution():
    return family_solution(F0, B0, 1)


def random_isometry(rng):
    g_l = exp_algebra(al.AdsAlgebraElement(rng.uniform(-0.8, 0.8, 3)), 1.0)
    g_r = exp_algebra(al.AdsAlgebraElement(rng.uniform(-0.8, 0.8, 3)), 1.0)
    h_l = exp_algebra(al.SphereAlgebraElement(rng.uniform(-1, 1, 3)), 1.0)
    h_r = exp_algebra(al.SphereAlgebraElement(rng.uniform(-1, 1, 3)), 1.0)
    return g_l, g_r, h_l, h_r


def random_solution(rng, f=None, b=None, n=1):
    if f is None:
        b = rng.uniform(1.05, 1.6)
        f = rng.uniform(b, f_max(b))
    sol = family_solution(f, b, n)
    return apply_isometry(sol, *random_isometry(rng))


class TestMakeSolution:
    def test_reference_relation(self):
        sol = reference_solution()
        assert abs(4 * sol.lam * sol.rho - sol.m * sol.n) <= 1e-12
        assert (sol.lam, sol.rho, sol.m, sol.n) == (1.5, sol.rho, -1, 1)

    def test_accepts_valid_relation(self):
        sol = make_solution(
            lam=1.5, rho=-1.0 / 6.0, m=-1, n=1,
            lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
            g0=AdsGroupElement.identity(),
            lam_s=1.0, rho_s=0.25, m_s=1, n_s=1,
            lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
            h0=SphereGroupElement.identity())
        assert sol.m == -1

    def test_parity_violation(self):
        with pytest.raises(ValidationError, match="parity"):
            make_solution(
                lam=1.0, rho=0.5, m=2, n=1,
                lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
                g0=AdsGroupElement.identity(),
                lam_s=0.0, rho_s=0.0, m_s=0, n_s=0,
                lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
                h0=SphereGroupElement.identity())

    @pytest.mark.parametrize("broken, message", [
        (dict(lam=1.0, rho=1.0), "4 lam rho = 4.0 differs from m n = -1"),
        (dict(lam_s=1.0, rho_s=1.0), "4 lam_s rho_s = 4.0 differs from m_s n_s = 1"),
    ], ids=["ads", "sphere"])
    def test_relation_violation(self, broken, message):
        kwargs = dict(lam=1.5, rho=-1.0 / 6.0, m=-1, n=1,
                      lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
                      g0=AdsGroupElement.identity(),
                      lam_s=1.0, rho_s=0.25, m_s=1, n_s=1,
                      lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
                      h0=SphereGroupElement.identity())
        with pytest.raises(ValidationError) as info:
            make_solution(**{**kwargs, **broken})
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["m", "n", "m_s", "n_s"])
    def test_non_finite_winding_rejected(self, field, value):
        # int(inf) raises OverflowError and int(nan) a bare ValueError
        kwargs = dict(lam=1.5, rho=-1.0 / 6.0, m=-1, n=1,
                      lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
                      g0=AdsGroupElement.identity(),
                      lam_s=1.0, rho_s=0.25, m_s=1, n_s=1,
                      lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
                      h0=SphereGroupElement.identity())
        message = f"^winding {field} must be an integer$"
        with pytest.raises(ValidationError, match=message):
            make_solution(**{**kwargs, field: value})
        windings = {**dict(m=-1, n=1, m_s=1, n_s=1), field: value}
        with pytest.raises(ValidationError, match=message):
            feasibility_general(**windings, lam=1.5, rho=-1.0 / 6.0, lam_s=1.0, rho_s=0.25,
                                cosh2theta=1.5, cos2theta_s=-0.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lam", "rho", "lam_s", "rho_s"])
    def test_non_finite_frequency_rejected(self, field, value):
        # abs(nan) > tol is False, so the relation check alone lets nan through
        kwargs = dict(lam=1.5, rho=-1.0 / 6.0, m=-1, n=1,
                      lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
                      g0=AdsGroupElement.identity(),
                      lam_s=1.0, rho_s=0.25, m_s=1, n_s=1,
                      lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
                      h0=SphereGroupElement.identity())
        with pytest.raises(ValidationError, match=f"frequency {field} = "):
            make_solution(**{**kwargs, field: value})
        data = params_to_dict(make_solution(**kwargs))
        for strict in (True, False):
            with pytest.raises(ValidationError, match=f"frequency {field} = "):
                params_from_dict({**data, field: value}, strict=strict)

    def test_static_point_accepted(self):
        sol = make_solution(
            lam=0.0, rho=0.0, m=0, n=0,
            lhat=UnitTimelikeVector(), rhat=UnitTimelikeVector(),
            g0=AdsGroupElement.identity(),
            lam_s=0.0, rho_s=0.0, m_s=0, n_s=0,
            lhat_s=UnitSphereVector(), rhat_s=UnitSphereVector(),
            h0=SphereGroupElement.identity())
        g, h = evaluate(sol, 1.3, 2.2)
        assert np.allclose(g.matrix, np.eye(2))
        assert np.allclose(h.matrix, np.eye(2))


class TestEvaluate:
    def test_origin_returns_constant_elements(self):
        sol = reference_solution()
        g, h = evaluate(sol, 0.0, 0.0)
        assert np.max(np.abs(g.matrix - sol.g0.matrix)) <= 1e-15
        assert np.max(np.abs(h.matrix - sol.h0.matrix)) <= 1e-15

    def test_periodicity(self):
        rng = np.random.default_rng(31)
        sol = random_solution(rng)
        for tau in (0.0, 0.9):
            for sig in (0.0, 1.1, 4.4):
                ga, ha = evaluate_matrices(sol, tau, sig)
                gb, hb = evaluate_matrices(sol, tau, sig + 2 * math.pi)
                assert np.max(np.abs(ga - gb)) <= 1e-10
                assert np.max(np.abs(ha - hb)) <= 1e-10

    def test_canonical_matches_explicit_matrices(self):
        # the canonical family solution in closed worldsheet-phase form
        sol = reference_solution()
        _, ang = canonical_form(sol)
        th, ths = ang.theta, ang.theta_s
        for tau, sig in ((0.0, 0.0), (0.7, 1.3), (1.9, 5.0)):
            th_l = ang.lam * tau + 0.5 * ang.m * sig
            th_r = ang.rho * tau + 0.5 * ang.n * sig
            th_ls = ang.lam_s * tau + 0.5 * ang.m_s * sig
            th_rs = ang.rho_s * tau + 0.5 * ang.n_s * sig
            eta, xi = th_l + th_r, th_l - th_r
            g_expect = np.array([
                [math.sinh(th) * math.sin(xi) + math.cosh(th) * math.cos(eta),
                 math.cosh(th) * math.sin(eta) + math.sinh(th) * math.cos(xi)],
                [math.sinh(th) * math.cos(xi) - math.cosh(th) * math.sin(eta),
                 math.cosh(th) * math.cos(eta) - math.sinh(th) * math.sin(xi)]])
            eta_s, xi_s = th_ls - th_rs, th_ls + th_rs
            h_expect = np.array([
                [math.cos(ths) * np.exp(1j * xi_s), math.sin(ths) * np.exp(1j * eta_s)],
                [-math.sin(ths) * np.exp(-1j * eta_s), math.cos(ths) * np.exp(-1j * xi_s)]])
            g, h = evaluate_matrices(sol, tau, sig)
            assert np.max(np.abs(g - g_expect)) <= 1e-13
            assert np.max(np.abs(h - h_expect)) <= 1e-13

    def test_isometry_covariance(self):
        rng = np.random.default_rng(32)
        sol = reference_solution()
        g_l, g_r, h_l, h_r = random_isometry(rng)
        moved = apply_isometry(sol, g_l, g_r, h_l, h_r)
        for tau, sig in ((0.0, 0.0), (0.8, 2.5)):
            g, h = evaluate_matrices(sol, tau, sig)
            gm, hm = evaluate_matrices(moved, tau, sig)
            assert np.max(np.abs(gm - g_l.matrix @ g @ g_r.matrix)) <= 1e-12
            assert np.max(np.abs(hm - h_l.matrix @ h @ h_r.matrix)) <= 1e-12


    @pytest.mark.parametrize("boost", [4.0, 6.0])
    def test_strongly_boosted_frame(self, boost):
        # the adjoint of a boost this strong misses <v,v> = -1 by more than 1e-10; the moved
        # directions are rebuilt through their angle charts instead of being refused
        sol = reference_solution()
        g_l = exp_algebra(al.AdsAlgebraElement([0.0, boost, 0.0]), 1.0)
        g_r = exp_algebra(al.AdsAlgebraElement([0.2, 0.3, 0.5]), 1.0)
        moved = apply_isometry(sol, g_l, g_r)
        for tau, sig in ((0.0, 0.0), (0.8, 2.5), (1.3, 4.0)):
            g, _ = evaluate_matrices(sol, tau, sig)
            gm, _ = evaluate_matrices(moved, tau, sig)
            want = g_l.matrix @ g @ g_r.matrix
            assert np.max(np.abs(gm - want)) <= 1e-10 * np.max(np.abs(want))


class TestRawSectors:
    """SolutionParams.matrices: derived once per instance, read-only, fresh per replace."""

    def test_built_once_per_instance(self):
        sol = reference_solution()
        assert sol.matrices is sol.matrices
        with pytest.raises(ValueError, match="read-only"):
            sol.matrices[4][0, 0, 0] = 0.0

    def test_isometry_gets_its_own_sectors(self):
        sol = reference_solution()
        before = sol.matrices
        g_l, g_r, h_l, h_r = random_isometry(np.random.default_rng(34))
        moved = apply_isometry(sol, g_l, g_r, h_l, h_r)
        for k in (4, 5, 6):  # l, r, x0
            for old, new in zip(before[k], moved.matrices[k]):  # AdS, sphere
                assert np.max(np.abs(new - old)) > 1e-3
        for tau, sig in ((0.0, 0.0), (0.8, 2.5)):
            g, h = evaluate_matrices(sol, tau, sig)
            gm, hm = evaluate_matrices(moved, tau, sig)
            assert np.max(np.abs(gm - g_l.matrix @ g @ g_r.matrix)) <= 1e-12
            assert np.max(np.abs(hm - h_l.matrix @ h @ h_r.matrix)) <= 1e-12
        assert sol.matrices is before


class TestThetaInvariants:
    def test_reads_canonical_angle(self):
        th = 0.37
        sol = replace(family_solution(F0, B0, 1), **_canonical_frame(th, 0.4))
        c2t, _ = theta_invariants(sol)
        assert abs(c2t - math.cosh(2 * th)) <= 1e-13

    def test_invariant_under_isometries(self):
        rng = np.random.default_rng(33)
        sol = reference_solution()
        base = theta_invariants(sol)
        for _ in range(5):
            moved = apply_isometry(sol, *random_isometry(rng))
            got = theta_invariants(moved)
            assert abs(got[0] - base[0]) <= 1e-12
            assert abs(got[1] - base[1]) <= 1e-12


class TestKak:
    def test_ads_roundtrip(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            g = exp_algebra(al.AdsAlgebraElement(rng.uniform(-1.2, 1.2, 3)), 1.0)
            p, th, q = ads_kak(g)
            rebuilt = exp_algebra(T0, p) @ exp_algebra(T1, th) @ exp_algebra(T0, q)
            assert np.max(np.abs(rebuilt.matrix - g.matrix)) <= 1e-12
            assert th >= 0.0

    def test_sphere_roundtrip(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            h = exp_algebra(al.SphereAlgebraElement(rng.uniform(-1.2, 1.2, 3)), 1.0)
            p, th, q = sphere_kak(h)
            rebuilt = exp_algebra(S3, p) @ exp_algebra(S2, th) @ exp_algebra(S3, q)
            assert np.max(np.abs(rebuilt.matrix - h.matrix)) <= 1e-12
            assert 0.0 <= th <= 0.5 * math.pi + 1e-12


class TestCanonicalForm:
    def test_fixed_point(self):
        sol = reference_solution()
        canon, ang = canonical_form(sol)
        for field in ("lam", "rho", "m", "n", "lam_s", "rho_s", "m_s", "n_s"):
            assert getattr(canon, field) == getattr(sol, field)
        assert np.max(np.abs(canon.g0.matrix - sol.g0.matrix)) <= 1e-12
        assert np.max(np.abs(canon.h0.matrix - sol.h0.matrix)) <= 1e-12

    def test_recovers_theta_from_g0(self):
        th_hat = 0.61
        sol = replace(family_solution(F0, B0, 1), **_canonical_frame(th_hat, 0.3))
        _, ang = canonical_form(sol)
        assert abs(ang.theta - th_hat) <= 1e-12

    def test_random_isometry_same_angles(self):
        rng = np.random.default_rng(36)
        sol = reference_solution()
        _, base = canonical_form(sol)
        for _ in range(5):
            moved = apply_isometry(sol, *random_isometry(rng))
            _, ang = canonical_form(moved)
            assert abs(ang.theta - base.theta) <= 1e-10
            assert abs(ang.theta_s - base.theta_s) <= 1e-10

    def test_matches_isometry_transform_pointwise(self):
        rng = np.random.default_rng(37)
        sol = random_solution(rng)
        g_l, g_r, h_l, h_r, _, _ = canonicalizing_isometry(sol)
        canon, _ = canonical_form(sol)
        for tau, sig in ((0.0, 0.0), (1.2, 3.3)):
            g, h = evaluate_matrices(sol, tau, sig)
            gc, hc = evaluate_matrices(canon, tau, sig)
            assert np.max(np.abs(gc - g_l.matrix @ g @ g_r.matrix)) <= 1e-11
            assert np.max(np.abs(hc - h_l.matrix @ h @ h_r.matrix)) <= 1e-11

    def test_theta_matches_invariant(self):
        rng = np.random.default_rng(38)
        sol = random_solution(rng)
        _, ang = canonical_form(sol)
        c2t, c2ts = theta_invariants(sol)
        assert abs(math.cosh(2 * ang.theta) - c2t) <= 1e-11
        assert abs(math.cos(2 * ang.theta_s) - c2ts) <= 1e-11

    def test_parallel_directions_theta_zero_branch(self):
        sol = family_solution(1.3, 1.3, 1)  # f = b: theta = 0
        canon, ang = canonical_form(sol)
        assert abs(ang.theta) <= 1e-12
        assert np.max(np.abs(canon.g0.matrix - np.eye(2))) <= 1e-12


# directions within 1e-7 of the reference axis t0 / s3, and at and near the
# sphere antipode -s3, where the commutator of the direction with the axis
# vanishes and gives no rotation axis
AXIAL_RAPIDITIES = (1e-13, 1e-9, 1e-7)
AXIAL_POLARS = (1e-13, 1e-9, 1e-7, math.pi - 1e-9)


class TestAxisAlignedDirections:
    def check_canonical(self, sol):
        _, ang = canonical_form(sol)
        c2t, c2ts = theta_invariants(sol)
        assert abs(math.cosh(2 * ang.theta) - c2t) <= 1e-12
        assert abs(math.cos(2 * ang.theta_s) - c2ts) <= 1e-12

    def test_canonical_form_near_reference_axes(self):
        rng = np.random.default_rng(45)
        for psi in AXIAL_RAPIDITIES:
            for side in ("lhat", "rhat"):
                sol = random_solution(rng)
                self.check_canonical(replace(
                    sol, **{side: UnitTimelikeVector(psi, rng.uniform(0, 2 * math.pi))}))
        for polar in AXIAL_POLARS:
            for side in ("lhat_s", "rhat_s"):
                sol = random_solution(rng)
                self.check_canonical(replace(
                    sol, **{side: UnitSphereVector(polar, rng.uniform(0, 2 * math.pi))}))

    def test_group_points_from_directions_near_reference_axes(self):
        rng = np.random.default_rng(46)
        other_t = UnitTimelikeVector(0.7, 2.1)
        for psi in AXIAL_RAPIDITIES:
            v = UnitTimelikeVector(psi, rng.uniform(0, 2 * math.pi))
            for lhat, rhat in ((v, other_t), (other_t, v), (v, v)):
                g = g_from_LR(lhat, rhat, rng.uniform(0, 2 * math.pi))
                moved = g.matrix @ rhat.matrix @ g.inverse().matrix
                assert np.max(np.abs(moved - lhat.matrix)) <= 1e-12
        other_s = UnitSphereVector(1.1, 0.4)
        for polar in AXIAL_POLARS + (math.pi,):
            v = UnitSphereVector(polar, rng.uniform(0, 2 * math.pi))
            for lhat, rhat in ((v, other_s), (other_s, v), (v, v)):
                h = g_from_LR(lhat, rhat, rng.uniform(0, 2 * math.pi))
                moved = h.matrix @ rhat.matrix @ h.inverse().matrix
                assert np.max(np.abs(moved - lhat.matrix)) <= 1e-12


class TestSimpleFamily:
    def test_derived_quantities(self):
        pt = SimpleFamilyPoint(F0, B0, 1)
        assert abs(pt.e - 4.0 / 3.0) <= 1e-15
        assert abs(pt.a - 0.75) <= 1e-15
        assert (pt.m, pt.m_s, pt.n_s) == (-1, 1, 1)
        assert abs(4 * pt.lam * pt.rho + pt.n ** 2) <= 1e-13

    def test_quadratic_relations(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            b = rng.uniform(1.0, 2.0)
            f = rng.uniform(b, f_max(b))
            n = int(rng.integers(1, 4))
            pt = SimpleFamilyPoint(f, b, n)
            assert abs(pt.F ** 2 - pt.E ** 2 - n * n) <= 1e-11
            assert abs(pt.B ** 2 - pt.A ** 2 - n * n) <= 1e-11

    def test_family_solution_builds_far_into_the_band(self):
        # 4 lam rho = m n cancels to about eps f^2 relative: a 1e-12 re-check of the
        # library's own point refused valid ones from b ~ 30 on
        rng = np.random.default_rng(25)
        for b in 10.0 ** rng.uniform(0.0, 4.0, 2000):
            f = rng.uniform(b, f_max(b))
            n = int(rng.integers(1, 1001))
            sol = family_solution(f, b, n)
            assert (sol.m, sol.n, sol.m_s, sol.n_s) == (-n, n, n, n)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValidationError):
            SimpleFamilyPoint(3.0, 1.1, 1)
        with pytest.raises(ValidationError):
            SimpleFamilyPoint(1.5, 1.2, 0)


class TestEmbeddingSurface:
    def test_constraints_pointwise(self):
        rng = np.random.default_rng(40)
        sol = random_solution(rng)
        taus = np.linspace(0, 2, 5)
        sigmas = np.linspace(0, 2 * math.pi, 9)
        y, x = embedding_surface(sol, taus, sigmas)
        assert np.max(np.abs(al.ads_dot(y, y) + 1.0)) <= 1e-12
        assert np.max(np.abs(np.einsum("...i,...i->...", x, x) - 1.0)) <= 1e-12

    def test_center_worldline_at_theta_zero(self):
        b = 1.35
        sol = family_solution(b, b, 1)  # theta = 0
        E = sol.lam + sol.rho
        taus = np.linspace(0.0, 2.0, 6)
        y, _ = embedding_surface(sol, taus, [0.0, 2.0])
        for i, tau in enumerate(taus):
            expect = np.array([math.cos(E * tau), math.sin(E * tau), 0.0, 0.0])
            assert np.max(np.abs(y[i, 0] - expect)) <= 1e-12
            assert np.max(np.abs(y[i, 1] - expect)) <= 1e-12

    def test_circle_at_theta_s_zero(self):
        b = 1.25
        sol = family_solution(f_max(b), b, 1)  # cos 2theta_s = 1
        Bf = sol.lam_s + sol.rho_s
        taus = np.array([0.0, 0.8])
        sigmas = np.array([0.0, 1.7])
        _, x = embedding_surface(sol, taus, sigmas)
        for i, tau in enumerate(taus):
            for j, sig in enumerate(sigmas):
                phase = Bf * tau + sol.n_s * sig
                expect = np.array([0.0, 0.0, math.sin(phase), math.cos(phase)])
                assert np.max(np.abs(x[i, j] - expect)) <= 1e-12

    def test_matches_single_point_evaluation(self):
        rng = np.random.default_rng(41)
        sol = random_solution(rng)
        y, x = embedding_surface(sol, [0.4], [2.2])
        g, h = evaluate(sol, 0.4, 2.2)
        assert np.max(np.abs(y[0, 0] - g.embedding)) <= 1e-14
        assert np.max(np.abs(x[0, 0] - h.embedding)) <= 1e-14


class TestWinding:
    def test_reference_point(self):
        assert winding_numbers(reference_solution()) == (1, 1)

    def test_higher_winding(self):
        sol = family_solution(1.4, 1.2, 3)
        assert winding_numbers(sol) == (3, 3)

    def test_degenerate_radius_rejected(self):
        sol = family_solution(1.3, 1.3, 1)  # theta = 0 collapses (Y1, Y2)
        with pytest.raises(DegenerateConfigurationError):
            winding_numbers(sol)


class TestParamsSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        sol = random_solution(rng)
        data = params_to_dict(sol)
        back = params_from_dict(data)
        for tau, sig in ((0.0, 0.0), (0.9, 2.7)):
            g1, h1 = evaluate_matrices(sol, tau, sig)
            g2, h2 = evaluate_matrices(back, tau, sig)
            assert np.max(np.abs(g1 - g2)) <= 1e-14
            assert np.max(np.abs(h1 - h2)) <= 1e-14

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 2 ** 53 + 1])
    def test_family_windings_read_back(self, n, strict):
        # 2**53 + 1 is an integer that no float holds exactly
        data = params_to_dict(family_solution(F0, B0, n))
        back = params_from_dict(data, strict=strict)
        assert [(type(w), w) for w in (back.m, back.n, back.m_s, back.n_s)] == \
            [(int, -n), (int, n), (int, n), (int, n)]
        assert params_to_dict(back) == data

    def test_relaxed_mode_skips_relations(self):
        data = params_to_dict(reference_solution())
        data["lam"] = data["lam"] + 1e-3
        with pytest.raises(ValidationError):
            params_from_dict(data)
        sol = params_from_dict(data, strict=False)
        assert abs(sol.lam - 1.501) <= 1e-12

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            params_from_dict({"lam": 1.0})
