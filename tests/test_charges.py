import inspect
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from ads3s3 import algebra as al
from ads3s3 import charges
from ads3s3.algebra import (
    AdsGroupElement,
    SphereGroupElement,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    adjoint,
    exp_algebra,
    inner,
)
from ads3s3.charges import (
    charge_coefficients,
    charge_gap,
    charges_analytic,
    charges_numeric,
    current_matrices,
    currents,
)
from ads3s3.cli import main
from ads3s3.solutions import (
    _periodic_sigmas,
    apply_isometry,
    evaluate_matrices,
    family_solution,
    make_solution,
    params_from_dict,
    params_to_dict,
)

from conftest import induced_metric_currents
from test_geometry import exact_solutions
from test_solutions import random_isometry, random_solution

F0, B0 = 5.0 / 3.0, 5.0 / 4.0


def reference_solution():
    return family_solution(F0, B0, 1)


def fd_currents(sol, tau, sigma, h=1e-5):
    """Finite-difference oracle for L_a = (d_a g) g^{-1} and R_a = g^{-1} d_a g."""
    g0, h0 = evaluate_matrices(sol, tau, sigma)
    out = {}
    for name, (dt, ds) in (("tau", (h, 0.0)), ("sig", (0.0, h))):
        gp, hp = evaluate_matrices(sol, tau + dt, sigma + ds)
        gm, hm = evaluate_matrices(sol, tau - dt, sigma - ds)
        dg = (gp - gm) / (2 * h)
        dh = (hp - hm) / (2 * h)
        out[f"ads_L_{name}"] = dg @ np.linalg.inv(g0)
        out[f"ads_R_{name}"] = np.linalg.inv(g0) @ dg
        out[f"sph_L_{name}"] = dh @ np.linalg.inv(h0)
        out[f"sph_R_{name}"] = np.linalg.inv(h0) @ dh
    return out


class TestCurrents:
    def test_closed_form_vs_fd_oracle(self):
        rng = np.random.default_rng(60)
        sol = random_solution(rng)
        for tau, sig in ((0.0, 0.0), (0.8, 2.1)):
            ads, sph = current_matrices(sol, tau, sig)
            oracle = fd_currents(sol, tau, sig)
            assert np.max(np.abs(ads.L_tau - oracle["ads_L_tau"])) <= 1e-8
            assert np.max(np.abs(ads.L_sig - oracle["ads_L_sig"])) <= 1e-8
            assert np.max(np.abs(ads.R_tau - oracle["ads_R_tau"])) <= 1e-8
            assert np.max(np.abs(ads.R_sig - oracle["ads_R_sig"])) <= 1e-8
            assert np.max(np.abs(sph.L_tau - oracle["sph_L_tau"])) <= 1e-8
            assert np.max(np.abs(sph.R_sig - oracle["sph_R_sig"])) <= 1e-8

    def test_canonical_origin_value(self):
        # L_tau(0,0) = lam l + rho g0 r g0^{-1} by direct substitution
        sol = reference_solution()
        ads, _ = currents(sol, 0.0, 0.0)
        expected = sol.lam * sol.lhat.matrix + sol.rho * (
            sol.g0.matrix @ sol.rhat.matrix @ sol.g0.inverse().matrix)
        assert np.max(np.abs(ads.L_tau.matrix - expected)) <= 1e-13

    def test_current_metric_equality(self):
        # <L_a L_b> = <R_a R_b> = f_ab
        rng = np.random.default_rng(61)
        sol = random_solution(rng)
        ads, sph = currents(sol, 0.7, 1.9)
        ref = induced_metric_currents(sol)
        left = np.array([[inner(ads.L_tau, ads.L_tau), inner(ads.L_tau, ads.L_sig)],
                         [inner(ads.L_sig, ads.L_tau), inner(ads.L_sig, ads.L_sig)]])
        assert np.max(np.abs(left - ref.ads)) <= 1e-11
        left_s = np.array([[inner(sph.L_tau, sph.L_tau), inner(sph.L_tau, sph.L_sig)],
                           [inner(sph.L_sig, sph.L_tau), inner(sph.L_sig, sph.L_sig)]])
        assert np.max(np.abs(left_s - ref.sphere)) <= 1e-11

    def test_conservation_identity(self):
        # d_tau R_tau - d_sig R_sig = 0 given 4 lam rho = m n
        rng = np.random.default_rng(62)
        sol = random_solution(rng)
        h = 1e-5
        for tau, sig in ((0.3, 1.0), (1.4, 4.2)):
            a_p, s_p = current_matrices(sol, tau + h, sig)
            a_m, s_m = current_matrices(sol, tau - h, sig)
            a_sp, s_sp = current_matrices(sol, tau, sig + h)
            a_sm, s_sm = current_matrices(sol, tau, sig - h)
            res_ads = (a_p.R_tau - a_m.R_tau - a_sp.R_sig + a_sm.R_sig) / (2 * h)
            res_sph = (s_p.R_tau - s_m.R_tau - s_sp.R_sig + s_sm.R_sig) / (2 * h)
            assert np.max(np.abs(res_ads)) <= 1e-9
            assert np.max(np.abs(res_sph)) <= 1e-9

    def test_static_point_zero(self):
        sol = make_solution(0.0, 0.0, 0, 0, UnitTimelikeVector(), UnitTimelikeVector(),
                            AdsGroupElement.identity(), 0.0, 0.0, 0, 0,
                            UnitSphereVector(), UnitSphereVector(),
                            SphereGroupElement.identity())
        ads, sph = currents(sol, 0.9, 2.3)
        for cur in (ads.L_tau, ads.L_sig, ads.R_tau, ads.R_sig,
                    sph.L_tau, sph.L_sig, sph.R_tau, sph.R_sig):
            assert np.max(np.abs(cur.coeffs)) <= 1e-15


class TestChargesReference:
    def test_casimirs_match_fractions(self):
        # m_L = lam + rho cosh2theta = 359/288, m_R = lam cosh2theta + rho = 203/96
        cs = charges_analytic(reference_solution())
        assert abs(cs.m_L - float(Fraction(359, 288))) <= 1e-13
        assert abs(cs.m_R - float(Fraction(203, 96))) <= 1e-13
        assert abs(cs.m_L_s - float(Fraction(133, 144))) <= 1e-13
        assert abs(cs.m_R_s - float(Fraction(1, 18))) <= 1e-13

    def test_charge_vectors_along_directions(self):
        sol = reference_solution()
        cs = charges_analytic(sol)
        assert np.allclose(cs.L.coeffs, [359.0 / 288.0, 0, 0], atol=1e-13)
        assert np.allclose(cs.R.coeffs, [203.0 / 96.0, 0, 0], atol=1e-13)
        assert np.allclose(cs.L_s.coeffs, [0, 0, 133.0 / 144.0], atol=1e-13)
        assert np.allclose(cs.R_s.coeffs, [0, 0, -1.0 / 18.0], atol=1e-13)
        c_L, c_R, c_Ls, c_Rs = charge_coefficients(cs, sol)
        assert abs(c_Rs + 1.0 / 18.0) <= 1e-13  # signed, negative here

    def test_quadrature_matches_closed_form(self):
        sol = reference_solution()
        num = charges_numeric(sol)
        ana = charges_analytic(sol)
        for a, b in ((num.L, ana.L), (num.R, ana.R), (num.L_s, ana.L_s), (num.R_s, ana.R_s)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10

    def test_tau_independence(self):
        sol = reference_solution()
        a = charges_numeric(sol, tau=0.0)
        b = charges_numeric(sol, tau=1.7)
        for u, v in ((a.L, b.L), (a.R, b.R), (a.L_s, b.L_s), (a.R_s, b.R_s)):
            assert np.max(np.abs(u.coeffs - v.coeffs)) <= 1e-10

    def test_transformed_solutions(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            sol = random_solution(rng)
            num = charges_numeric(sol)
            ana = charges_analytic(sol)
            for a, b in ((num.L, ana.L), (num.R, ana.R), (num.L_s, ana.L_s), (num.R_s, ana.R_s)):
                assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10

    def test_norm_conventions(self):
        cs = charges_analytic(reference_solution())
        assert abs(inner(cs.L, cs.L) + cs.m_L ** 2) <= 1e-12
        assert abs(inner(cs.R, cs.R) + cs.m_R ** 2) <= 1e-12
        assert abs(inner(cs.L_s, cs.L_s) - cs.m_L_s ** 2) <= 1e-12
        assert abs(inner(cs.R_s, cs.R_s) - cs.m_R_s ** 2) <= 1e-12


class TestEdgeCases:
    def test_zero_rho_zero_n(self):
        # sigma-independent integrand: L = lam l exactly
        sol = make_solution(0.7, 0.0, 2, 0, UnitTimelikeVector(0.4, 1.0),
                            UnitTimelikeVector(0.2, 2.0),
                            exp_algebra(al.ads_basis()[1], 0.3),
                            0.0, 0.0, 0, 0, UnitSphereVector(), UnitSphereVector(),
                            SphereGroupElement.identity())
        num = charges_numeric(sol)
        ana = charges_analytic(sol)
        assert np.max(np.abs(num.L.coeffs - 0.7 * sol.lhat.coeffs)) <= 1e-12
        assert np.max(np.abs(ana.L.coeffs - 0.7 * sol.lhat.coeffs)) <= 1e-14
        assert np.max(np.abs(num.R.coeffs - ana.R.coeffs)) <= 1e-12

    def test_two_nodes_where_256_divides_every_winding(self):
        # |w| = 256 throughout: sigma = 0 and pi/256 cancel each e^{+-i 256 sigma}, which 256
        # equispaced nodes would alias onto the mean
        sol = make_solution(-128.0, 128.0, -256, 256, UnitTimelikeVector(0.4, 1.0),
                            UnitTimelikeVector(0.2, 2.0), exp_algebra(al.ads_basis()[1], 0.3),
                            128.0, 128.0, 256, 256, UnitSphereVector.from_coeffs([0.6, 0.0, 0.8]),
                            UnitSphereVector(), exp_algebra(al.sphere_basis()[1], 0.4))
        assert _periodic_sigmas(sol.m, sol.n, sol.m_s, sol.n_s).size == 2
        ana = charges_analytic(sol)
        assert charge_gap(charges_numeric(sol), ana) <= 1e-12 * ana.m_L

    def test_quadrature_has_no_node_knob(self):
        assert list(inspect.signature(charges_numeric).parameters) == ["sol", "tau"]

    def test_particle_limit_symmetric(self):
        # cosh2theta = 1 and cos2theta_s = 1: left and right Casimirs agree
        sol = make_solution(1.0, 1.0, 2, 2, UnitTimelikeVector(), UnitTimelikeVector(),
                            AdsGroupElement.identity(), 1.0, 1.0, 2, 2,
                            UnitSphereVector(), UnitSphereVector(),
                            SphereGroupElement.identity())
        cs = charges_analytic(sol)
        assert abs(cs.m_L - cs.m_R) <= 1e-14
        assert abs(cs.m_L_s - cs.m_R_s) <= 1e-14


class TestChargeGap:
    def test_largest_coefficient_difference(self):
        sol = random_solution(np.random.default_rng(65), n=2)
        ana, num = charges_analytic(sol), charges_numeric(sol)
        by_hand = max(float(np.max(np.abs(a.coeffs - b.coeffs))) for a, b in (
            (ana.L, num.L), (ana.R, num.R), (ana.L_s, num.L_s), (ana.R_s, num.R_s)))
        assert charge_gap(ana, num) == by_hand == charge_gap(num, ana)
        assert charge_gap(ana, ana) == 0.0


def assert_raw_charges_match_wrapped(sol):
    """The raw coefficient rows the battery compares are the ChargeSet coefficients, bit for bit."""
    taus = (0.0, 1.7)
    analytic = charges._analytic_coeffs(sol)
    means = charges._sigma_mean_coeffs(charges._currents(
        sol.matrices, [[t] for t in taus], _periodic_sigmas(sol.m, sol.n, sol.m_s, sol.n_s)))
    wrapped_an = charges_analytic(sol)
    wrapped = [charges_numeric(sol, tau=t) for t in taus]
    assert analytic.tobytes() == np.array([q.coeffs for q in wrapped_an.vectors]).tobytes()
    for row, cs in zip(means, wrapped):
        assert row.tobytes() == np.array([q.coeffs for q in cs.vectors]).tobytes()
    raw_gap = float(np.max(np.abs(means - analytic)))
    assert raw_gap == max(charge_gap(cs, wrapped_an) for cs in wrapped)


class TestRawCharges:
    @given(exact_solutions())
    def test_raw_equal_wrapped_over_the_band(self, sol):
        assert_raw_charges_match_wrapped(sol)

    def test_raw_equal_wrapped_at_zero_windings(self):
        # m = m_s = 0: the constant-matrix branch of charges_analytic in both sectors
        data = params_to_dict(reference_solution())
        data.update(m=0, m_s=0)
        sol = params_from_dict(data, strict=False)
        assert_raw_charges_match_wrapped(sol)

    def test_sigma_means_keep_the_finite_check(self):
        # the raw rows skip the constructors, not their rejection of non-finite coefficients
        cur = charges._currents(reference_solution().matrices, [[0.0]], [0.0, math.pi])
        r_tau = cur.R_tau.copy()
        r_tau[0] = math.nan  # the AdS sector
        with pytest.raises(ValidationError, match="non-finite"):
            charges._sigma_mean_coeffs(replace(cur, R_tau=r_tau))


    def test_charges_command_builds_only_the_solution(self, monkeypatch, capsys):
        # Casimirs, signed coefficients and the quadrature gap come off raw rows, so the only
        # validated objects are the solution's own: four directions, g0 and h0
        built = []
        for cls in (al.AdsGroupElement, al.SphereGroupElement, al.AdsAlgebraElement,
                    al.SphereAlgebraElement, al.UnitTimelikeVector, al.UnitSphereVector):
            def counted(obj, post_init=cls.__post_init__):
                built.append(type(obj).__name__)
                post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        assert main(["charges", "--f", "1.6", "--b", "1.2"]) == 0
        capsys.readouterr()
        assert sorted(built) == sorted(["AdsGroupElement", "SphereGroupElement"]
                                       + ["UnitTimelikeVector", "UnitSphereVector"] * 2)


class TestIsometryBehaviour:
    def test_adjoint_transform_and_invariant_casimirs(self):
        rng = np.random.default_rng(64)
        sol = reference_solution()
        base = charges_analytic(sol)
        g_l, g_r, h_l, h_r = random_isometry(rng)
        moved_cs = charges_analytic(apply_isometry(sol, g_l, g_r, h_l, h_r))
        assert np.max(np.abs(moved_cs.L.coeffs - adjoint(g_l, base.L).coeffs)) <= 1e-12
        assert np.max(np.abs(moved_cs.L_s.coeffs - adjoint(h_l, base.L_s).coeffs)) <= 1e-12
        for a, b in ((moved_cs.m_L, base.m_L), (moved_cs.m_R, base.m_R),
                     (moved_cs.m_L_s, base.m_L_s), (moved_cs.m_R_s, base.m_R_s)):
            assert abs(a - b) <= 1e-12
