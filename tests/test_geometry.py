import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ads3s3 import algebra, geometry, solutions
from ads3s3.algebra import (
    AdsAlgebraElement,
    DegenerateConfigurationError,
    SphereAlgebraElement,
    ValidationError,
    exp_algebra,
)
from ads3s3.bridge import admissible, bridge, f_max
from ads3s3.charges import current_matrices
from ads3s3.geometry import (
    chirality_residual,
    eom_residual,
    gauge_residual,
    induced_metric_analytic,
    induced_metric_currents,
    induced_metric_numeric,
    mean_curvatures,
    verify_solution,
)
from ads3s3.solutions import apply_isometry, evaluate_matrices, family_solution

from test_solutions import random_isometry, random_solution

F0, B0 = 5.0 / 3.0, 5.0 / 4.0


def reference_solution():
    return family_solution(F0, B0, 1)


def perturbed_solution(delta):
    sol = reference_solution()
    return replace(sol, lam=sol.lam + delta)


class TestInducedMetricAnalytic:
    def test_reference_entries(self):
        blk = bridge(F0, B0, 1)
        im = induced_metric_analytic(blk)
        # f_tt = -E^2/2 - (mu^2 + mubar^2) = -437/288 at the reference point
        assert abs(im.ads[0, 0] + 437.0 / 288.0) <= 1e-12
        assert abs(im.ads[0, 0] + 1.5173611) <= 1e-6
        assert abs(im.ads[0, 1] - (blk.mubar2 - blk.mu2)) <= 1e-15
        assert abs(im.sphere[0, 1] - (blk.mu2 - blk.mubar2)) <= 1e-15

    def test_sphere_trace_identity(self):
        blk = bridge(F0, B0, 1)
        im = induced_metric_analytic(blk)
        assert abs(im.sphere[0, 0] + im.sphere[1, 1]
                   - 2.0 * (blk.mu2 + blk.mubar2)) <= 1e-13

    def test_symmetric_frame_at_equal_mu(self):
        # f = b forces mu = mubar, so both off-diagonal entries vanish
        blk = bridge(1.3, 1.3, 1)
        im = induced_metric_analytic(blk)
        assert abs(im.ads[0, 1]) <= 1e-13
        assert abs(im.sphere[0, 1]) <= 1e-13

    def test_off_diagonals_opposite(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            b = rng.uniform(1.0, 1.8)
            blk = bridge(rng.uniform(b, f_max(b)), b, 1)
            im = induced_metric_analytic(blk)
            assert abs(im.ads[0, 1] + im.sphere[0, 1]) <= 1e-12


class TestInducedMetricNumeric:
    def test_matches_analytic_at_reference(self):
        blk = bridge(F0, B0, 1)
        expected = induced_metric_analytic(blk)
        im = induced_metric_numeric(reference_solution(), 0.7, 1.9)
        assert np.max(np.abs(im.ads - expected.ads)) <= 1e-6
        assert np.max(np.abs(im.sphere - expected.sphere)) <= 1e-6

    def test_matches_currents_closed_form(self):
        rng = np.random.default_rng(51)
        sol = random_solution(rng)
        ref = induced_metric_currents(sol)
        im = induced_metric_numeric(sol, 0.3, 2.2)
        assert np.max(np.abs(im.ads - ref.ads)) <= 1e-9
        assert np.max(np.abs(im.sphere - ref.sphere)) <= 1e-9

    def test_constant_over_worldsheet(self):
        rng = np.random.default_rng(52)
        sol = random_solution(rng)
        mats = []
        for _ in range(10):
            t, s = rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)
            im = induced_metric_numeric(sol, t, s)
            mats.append(np.concatenate([im.ads.ravel(), im.sphere.ravel()]))
        spread = np.ptp(np.stack(mats), axis=0).max()
        assert spread <= 1e-8

    def test_static_point_gives_zero(self):
        from ads3s3.algebra import AdsGroupElement, SphereGroupElement, UnitSphereVector, UnitTimelikeVector
        from ads3s3.solutions import make_solution
        sol = make_solution(0.0, 0.0, 0, 0, UnitTimelikeVector(), UnitTimelikeVector(),
                            AdsGroupElement.identity(), 0.0, 0.0, 0, 0,
                            UnitSphereVector(), UnitSphereVector(),
                            SphereGroupElement.identity())
        im = induced_metric_numeric(sol, 0.4, 0.9)
        assert np.max(np.abs(im.ads)) <= 1e-14
        assert np.max(np.abs(im.sphere)) <= 1e-14


class TestGaugeResidual:
    def test_valid_solution_small(self):
        rng = np.random.default_rng(53)
        sol = random_solution(rng)
        gr = gauge_residual(sol, 0.8, 1.4)
        assert abs(gr.chiral) <= 1e-6
        assert abs(gr.antichiral) <= 1e-6

    def test_sector_invariants_match_bridge(self):
        blk = bridge(F0, B0, 1)
        gr = gauge_residual(reference_solution(), 0.2, 0.5)
        assert abs(gr.mu2_ads - blk.mu2) <= 1e-6
        assert abs(gr.mu2_sphere - blk.mu2) <= 1e-6
        assert abs(gr.mubar2_ads - blk.mubar2) <= 1e-6
        assert abs(gr.mubar2_sphere - blk.mubar2) <= 1e-6

    def test_residual_grows_linearly_with_perturbation(self):
        r1 = abs(gauge_residual(perturbed_solution(1e-3), 0.3, 0.9).chiral)
        r2 = abs(gauge_residual(perturbed_solution(2e-3), 0.3, 0.9).chiral)
        assert r1 > 1e-5
        assert 1.5 <= r2 / r1 <= 2.5


class TestEomResidual:
    def test_valid_solution_small(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            sol = random_solution(rng)
            t, s = rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)
            ra, rs = eom_residual(sol, t, s)
            assert ra <= 1e-6 and rs <= 1e-6

    def test_chirality_small(self):
        rng = np.random.default_rng(55)
        sol = random_solution(rng)
        ca, cs = chirality_residual(sol, 0.4, 1.1)
        assert ca <= 1e-6 and cs <= 1e-6

    def test_negative_control(self):
        ra, _ = eom_residual(perturbed_solution(0.5), 0.4, 1.1)
        assert ra > 1e-2


class TestMeanCurvatures:
    def test_reference_value(self):
        blk = bridge(F0, B0, 1)  # cosh 2theta = 73/48, sinh 2theta = 55/48
        H, _ = mean_curvatures(blk)
        assert abs(H + 73.0 / 55.0) <= 1e-12

    def test_minimal_torus(self):
        b = 1.2
        f = 0.5 * (b + math.sqrt(b * b + 4.0))  # cos 2theta_s = 0
        _, H_s = mean_curvatures(bridge(f, b, 1))
        assert abs(H_s) <= 1e-12

    def test_large_theta_limit(self):
        blk = replace(bridge(F0, B0, 1), theta=12.0)
        H, _ = mean_curvatures(blk)
        assert abs(H + 1.0) <= 1e-10

    def test_curvature_identity(self):
        blk = bridge(F0, B0, 1)
        H, _ = mean_curvatures(blk)
        assert abs(H * H - 1.0 / math.sinh(2 * blk.theta) ** 2 - 1.0) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            mean_curvatures(bridge(1.3, 1.3, 1))  # theta = 0
        with pytest.raises(DegenerateConfigurationError):
            mean_curvatures(bridge(f_max(1.2), 1.2, 1))  # theta_s = 0


class TestVerifySolution:
    def test_valid_point_passes(self):
        report = verify_solution(reference_solution())
        assert report.ok, report.failures
        assert report.eom <= 1e-6
        assert report.periodicity <= 1e-10
        assert report.embedding <= 1e-12
        assert report.metric_spread <= 1e-8

    def test_transformed_point_passes(self):
        rng = np.random.default_rng(56)
        report = verify_solution(random_solution(rng))
        assert report.ok, report.failures

    def test_perturbed_fails_on_eom(self):
        report = verify_solution(perturbed_solution(1e-3))
        assert not report.ok
        assert "eom" in report.failures

    def test_threshold_override(self):
        report = verify_solution(perturbed_solution(1e-3),
                                 thresholds={k: 1e6 for k in
                                             verify_solution(reference_solution()).thresholds})
        assert report.ok

    def test_high_winding_charges_follow_bandwidth_bound(self):
        # n = 40 with 256 sigma nodes: exact, since 256 divides no winding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_solution(family_solution(F0, B0, 40))
        assert report.charge_gap <= 1e-10

    def test_empty_grid_is_validation_error(self):
        with pytest.raises(ValidationError, match="at least 1x1"):
            verify_solution(reference_solution(), grid=(0, 4))

    def test_unknown_threshold_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown threshold 'eomm'"):
            verify_solution(reference_solution(), thresholds={"eomm": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, value):
        # a NaN threshold made every check pass, since v > nan is false
        with pytest.raises(ValidationError, match="finite and positive"):
            verify_solution(perturbed_solution(1e-3), thresholds={"eom": value})

    def test_only_grid_and_thresholds_are_settable(self):
        params = list(inspect.signature(verify_solution).parameters)
        assert params == ["sol", "grid", "thresholds"]

    def test_field_evaluations_are_batched(self, monkeypatch):
        # one field evaluation serves periodicity and embedding; one kernel call every derivative
        calls, kernel = [], []
        original, derivatives = solutions.evaluate_matrices, solutions._derivatives

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solutions, "evaluate_matrices", counted)
        monkeypatch.setattr(geometry, "evaluate_matrices", counted)
        monkeypatch.setattr(geometry, "_derivatives",
                            lambda *args: kernel.append(args) or derivatives(*args))
        verify_solution(random_solution(np.random.default_rng(57), n=3))
        assert len(calls) == 1
        assert len(kernel) == 1

    def test_raw_sectors_built_once(self, monkeypatch):
        # every layer reads SolutionParams.matrices: one matrix per direction, no group element
        sol = random_solution(np.random.default_rng(58), n=2)
        directions, groups = [], []
        matrix = algebra._UnitVector.matrix.fget
        monkeypatch.setattr(algebra._UnitVector, "matrix",
                            property(lambda v: directions.append(v) or matrix(v)))
        for cls in (algebra.AdsGroupElement, algebra.SphereGroupElement):
            def counted(obj, post_init=cls.__post_init__):
                groups.append(type(obj))
                post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        verify_solution(sol)
        assert groups == []
        assert sorted(map(id, directions)) == sorted(
            map(id, (sol.lhat, sol.rhat, sol.lhat_s, sol.rhat_s)))


class TestBatteryAgreesWithPointFunctions:
    """verify_solution's batched derivatives equal the public per-point functions."""

    def test_report_matches_pointwise_residuals(self):
        sol = perturbed_solution(2e-4)
        report = verify_solution(sol)
        probe_rng = np.random.default_rng(0)
        probes = list(zip(probe_rng.uniform(0.0, 1.5, 4),
                          probe_rng.uniform(0.0, 2.0 * math.pi, 4))) + [(0.0, 0.0)]
        eom = max(max(eom_residual(sol, t, s)) for t, s in probes)
        chir = max(max(chirality_residual(sol, t, s)) for t, s in probes)
        gauge = max(abs(gauge_residual(sol, t, s).chiral) for t, s in probes)
        assert (report.eom, report.chirality, report.gauge_chiral) == (eom, chir, gauge)
        ref = induced_metric_currents(sol)
        gap = 0.0
        for t, s in probes + [(1.1, 2.2), (0.3, 5.0)]:
            im = induced_metric_numeric(sol, t, s)
            gap = max(gap, float(np.max(np.abs(im.ads - ref.ads))),
                      float(np.max(np.abs(im.sphere - ref.sphere))))
        assert report.metric_gap == gap


_ADS_FRAME = st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3)
_SPHERE_FRAME = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@st.composite
def exact_solutions(draw, f_min=1.0):
    """b in [1, 3], f >= f_min in the band (edges included), n in 1..50, in a random frame."""
    b = draw(st.floats(1.0, 3.0))
    lo, hi = max(b, f_min), f_max(b)
    f = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
    assume(admissible(f, b))
    frame = [exp_algebra(cls(draw(coeffs)), 1.0) for cls, coeffs in (
        (AdsAlgebraElement, _ADS_FRAME), (AdsAlgebraElement, _ADS_FRAME),
        (SphereAlgebraElement, _SPHERE_FRAME), (SphereAlgebraElement, _SPHERE_FRAME))]
    return apply_isometry(family_solution(f, b, draw(st.integers(1, 50))), *frame)


class TestDerivativeKernel:
    """solutions._derivatives against evaluate_matrices and the closed-form currents."""

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_matches_central_difference_quotients(self, n):
        # step 1e-3/omega: truncation ~1e-7 and roundoff ~1e-10 relative, for any winding
        rng = np.random.default_rng(60 + n)
        sol = random_solution(rng, n=n)
        taus, sigmas = rng.uniform(0.0, 1.5, 5), rng.uniform(0.0, 2.0 * math.pi, 5)
        derivs = solutions._derivatives(sol.matrices, taus, sigmas)
        for k, (lam, rho, m, n_, *_) in enumerate(sol.matrices):
            h = 1e-3 / max(abs(lam), abs(rho), 0.5 * abs(m), 0.5 * abs(n_))
            g = evaluate_matrices(sol, taus, sigmas)[k]
            _, gt, gs, gtt, gss = derivs[k]
            for first, second, dt, ds in ((gt, gtt, h, 0.0), (gs, gss, 0.0, h)):
                up = evaluate_matrices(sol, taus + dt, sigmas + ds)[k]
                down = evaluate_matrices(sol, taus - dt, sigmas - ds)[k]
                assert np.max(np.abs((up - down) / (2.0 * h) - first)) \
                    <= 1e-6 * np.max(np.abs(first))
                assert np.max(np.abs((up - 2.0 * g + down) / (h * h) - second)) \
                    <= 1e-6 * np.max(np.abs(second))

    def test_value_is_evaluate_matrices_bit_for_bit(self):
        rng = np.random.default_rng(63)
        sol = random_solution(rng, n=5)
        taus, sigmas = rng.uniform(0.0, 1.5, 7), rng.uniform(0.0, 2.0 * math.pi, 7)
        for (inv, *_), g in zip(solutions._derivatives(sol.matrices, taus, sigmas),
                                evaluate_matrices(sol, taus, sigmas)):
            assert np.array_equal(inv, algebra._adjugate(g))

    @given(exact_solutions())
    def test_currents_match_closed_form(self, sol):
        # current_matrices conjugates by one factor; the kernel multiplies by Leibniz.
        # Both cancel terms of size omega |g|^2, so roundoff scales with that, not with
        # the currents, which vanish at the (1, 1) corner.
        taus, sigmas = np.linspace(0.0, 1.5, 5), np.linspace(0.0, 2.0 * math.pi, 5)
        for (lam, rho, m, n, *_), (inv, gt, gs, *_), cur in zip(
                sol.matrices, solutions._derivatives(sol.matrices, taus, sigmas),
                current_matrices(sol, taus, sigmas)):
            scale = max(abs(lam), abs(rho), 0.5 * abs(m), 0.5 * abs(n)) * np.max(np.abs(inv)) ** 2
            for kernel, exact in zip((gt @ inv, gs @ inv, inv @ gt, inv @ gs),
                                     (cur.L_tau, cur.L_sig, cur.R_tau, cur.R_sig)):
                assert np.max(np.abs(kernel - exact)) <= 1e-12 * scale


class TestVerdictsOverTheBand:
    """Exact solutions verify and broken ones fail, at every winding up to 50."""

    @given(exact_solutions())
    def test_exact_solution_verifies(self, sol):
        report = verify_solution(sol)
        assert report.ok, report.failures

    # The break is first order in e, a ~ sqrt(f - 1) and so drops below the absolute
    # thresholds near the (1, 1) corner, where the string collapses to a point.
    @given(exact_solutions(f_min=1.01), st.sampled_from(["lam", "rho", "lam_s", "rho_s"]),
           st.sampled_from([1e-4, -1e-4]))
    def test_broken_relation_fails(self, sol, field, eps):
        assert not verify_solution(replace(sol, **{field: getattr(sol, field) * (1.0 + eps)})).ok

    @pytest.mark.xfail(strict=True, reason="first-order relation residual not in the battery")
    def test_corner_break_fails(self):
        sol = family_solution(1.0, 1.0, 1)
        assert not verify_solution(replace(sol, lam_s=sol.lam_s * (1.0 + 1e-3))).ok
