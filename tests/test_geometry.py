import inspect
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from ads3s3 import algebra, charges, geometry, solutions
from ads3s3.algebra import (
    AdsAlgebraElement,
    DegenerateConfigurationError,
    SphereAlgebraElement,
    ValidationError,
    exp_algebra,
)
from ads3s3.bridge import admissible, bridge, f_max
from ads3s3.cli import main
from ads3s3.charges import charge_gap, charges_analytic, charges_numeric, current_matrices
from ads3s3.geometry import (
    DEFAULT_THRESHOLDS,
    chirality_residual,
    eom_residual,
    gauge_residual,
    induced_metric_analytic,
    induced_metric_numeric,
    mean_curvatures,
    verify_solution,
)
from ads3s3.solutions import (
    _periodic_sigmas,
    apply_isometry,
    evaluate_matrices,
    family_solution,
    params_from_dict,
    params_to_dict,
)

from conftest import (
    current_matrices_per_sector,
    derivatives_per_sector,
    evaluate_matrices_per_sector,
    induced_metric_currents,
    residuals_per_sector,
)
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
    # b = 1 has mu mubar = 0, where the ratio form read nan; f spans the band, edges included
    @given(st.floats(1.0, 3.0), st.floats(0.0, 1.0), st.sampled_from([1, 3, 50]))
    @example(B0, (F0 - B0) / (f_max(B0) - B0), 1)
    @example(1.0, 0.3 / (f_max(1.0) - 1.0), 1)
    @example(1.0, 1.0, 3)
    def test_matches_analytic_over_the_band(self, b, t, n):
        f = b + t * (f_max(b) - b)
        assume(admissible(f, b))
        expected = induced_metric_analytic(bridge(f, b, n))
        im = induced_metric_numeric(family_solution(f, b, n), 0.7, 1.9)
        got, want = np.stack([expected.ads, expected.sphere]), np.stack([im.ads, im.sphere])
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

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


class TestMetricContraction:
    @pytest.mark.parametrize("n", [1, 64, 4096])
    def test_equals_four_traces_bit_for_bit(self, n):
        # the stacked contraction keeps the rounding of the separate traces, so the battery's
        # verdicts at windings where roundoff nears the thresholds do not move
        sol = random_solution(np.random.default_rng(80 + n), n=n)
        taus, sigmas = np.linspace(0.0, 1.5, 7), np.linspace(0.0, 6.0, 7)
        for sign, (inv, gt, gs, *_) in zip((1.0, -1.0), zip(
                *solutions._derivatives(sol.matrices, taus, sigmas))):
            for rt, rs in ((inv @ gt, inv @ gs), ((inv @ gt)[:1], (inv @ gs)[:1])):
                traces = [[geometry._trace_half(a, b) for b in (rt, rs)] for a in (rt, rs)]
                expected = sign * np.stack([np.stack(row, axis=-1) for row in traces], axis=-2).real
                assert geometry._metric(rt, rs, sign).tobytes() == expected.tobytes()


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
        assert report.values["eom"] <= 1e-6
        assert report.values["periodicity"] <= 1e-10
        assert report.values["embedding"] <= 1e-12
        assert report.values["metric_spread"] <= 1e-8

    def test_transformed_point_passes(self):
        rng = np.random.default_rng(56)
        report = verify_solution(random_solution(rng))
        assert report.ok, report.failures

    def test_perturbed_fails_on_eom(self):
        report = verify_solution(perturbed_solution(1e-3))
        assert not report.ok
        assert "eom" in report.failures

    def test_threshold_override(self):
        report = verify_solution(perturbed_solution(1e-3), tol=1e6)
        assert report.ok

    def test_high_winding_charges_follow_bandwidth_bound(self):
        # n = 40: the sigma-nodes 0 and pi/40 average the charges exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_solution(family_solution(F0, B0, 40))
        assert report.values["charge_gap"] <= 1e-10

    def test_empty_grid_is_validation_error(self):
        with pytest.raises(ValidationError, match="at least 1x1"):
            verify_solution(reference_solution(), grid=(0, 4))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, value):
        # a NaN threshold made every check pass, since v > nan is false
        with pytest.raises(ValidationError, match="tol = .* must be finite and positive"):
            verify_solution(perturbed_solution(1e-3), tol=value)

    def test_only_grid_and_thresholds_are_settable(self):
        params = list(inspect.signature(verify_solution).parameters)
        assert params == ["sol", "grid", "tol"]

    def test_report_is_one_table_in_threshold_order(self, capsys):
        for sol in (reference_solution(), perturbed_solution(1e-3)):
            report = verify_solution(sol)
            assert list(report.values) == list(DEFAULT_THRESHOLDS)
            assert report.thresholds == DEFAULT_THRESHOLDS
            assert report.failures == tuple(k for k, t in DEFAULT_THRESHOLDS.items()
                                            if report.values[k] > t)
        assert "eom" in report.failures
        # one tol replaces every threshold, in the API and through --tol
        expected = [(k, 1e-5) for k in DEFAULT_THRESHOLDS]
        assert list(verify_solution(sol, tol=1e-5).thresholds.items()) == expected
        assert main(["verify", "--f", "1.6", "--b", "1.2", "--tol", "1e-5"]) == 0
        assert list(json.loads(capsys.readouterr().out)["thresholds"].items()) == expected

    def test_field_evaluations_are_batched(self, monkeypatch, capsys):
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
        currents, stacked_currents = [], charges._currents
        for module in (charges, geometry):
            monkeypatch.setattr(module, "_currents",
                                lambda *args: currents.append(args) or stacked_currents(*args))
        # every field kernel runs once for both sectors
        products, residuals = [], []
        phase_product, sector_residuals = solutions._phase_product, geometry._sector_residuals
        for module in (solutions, charges):
            monkeypatch.setattr(module, "_phase_product",
                                lambda *args: products.append(args) or phase_product(*args))
        monkeypatch.setattr(geometry, "_sector_residuals",
                            lambda *args: residuals.append(args) or sector_residuals(*args))
        verify_solution(random_solution(np.random.default_rng(57), n=3))
        assert len(calls) == 1
        assert len(kernel) == 1
        # one current evaluation serves the metric reference and both charge quadratures
        assert len(currents) == 1
        # evaluate_matrices 1, _derivatives 1, the currents 2 (one per conjugated factor)
        assert len(products) == 4
        assert len(residuals) == 1
        products.clear()
        assert main(["charges", "--f", "1.6", "--b", "1.2"]) == 0
        capsys.readouterr()
        assert len(products) == 2

    def test_builds_no_validated_element(self, monkeypatch):
        # the battery and its charge gap run on raw arrays. The concrete classes bind _validate
        # as __post_init__ when they are defined, so the count wraps each __post_init__
        sol = random_solution(np.random.default_rng(59), n=3)
        built = []
        for cls in (algebra.AdsAlgebraElement, algebra.SphereAlgebraElement,
                    algebra.AdsGroupElement, algebra.SphereGroupElement):
            def counted(obj, post_init=cls.__post_init__):
                built.append(type(obj))
                post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        verify_solution(sol)
        assert built == []
        charges_analytic(sol)  # the count sees the wrapped charges
        assert built == [algebra.AdsAlgebraElement] * 2 + [algebra.SphereAlgebraElement] * 2

    def test_probe_points_are_the_generator_draws(self):
        # constants, so that verify never imports numpy.random
        rng = np.random.default_rng(0)
        taus = np.concatenate([rng.uniform(0.0, 1.5, 4), [0.0, 1.1, 0.3]])
        sigmas = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 4), [0.0, 2.2, 5.0]])
        assert geometry._PROBE_TAUS.tobytes() == taus.tobytes()
        assert geometry._PROBE_SIGMAS.tobytes() == sigmas.tobytes()

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


def relaxed_distinct_windings():
    """A strict=False parameter set with windings (m, n, m_s, n_s) = (-3, 5, 4, 2)."""
    data = params_to_dict(reference_solution())
    data.update(m=-3, n=5, m_s=4, n_s=2)
    return params_from_dict(data, strict=False)


class TestBatteryAgreesWithPointFunctions:
    """verify_solution's batched evaluations equal the public per-point functions, bit for bit."""

    @staticmethod
    def assert_gaps_match(sol, report, probes):
        ref = induced_metric_currents(sol)
        gap = 0.0
        for t, s in probes + [(1.1, 2.2), (0.3, 5.0)]:
            im = induced_metric_numeric(sol, t, s)
            gap = max(gap, float(np.max(np.abs(im.ads - ref.ads))),
                      float(np.max(np.abs(im.sphere - ref.sphere))))
        assert report.values["metric_gap"] == gap
        an = charges_analytic(sol)
        assert report.values["charge_gap"] == max(charge_gap(charges_numeric(sol, tau=t), an)
                                        for t in (0.0, 1.7))

    @staticmethod
    def probes():
        probe_rng = np.random.default_rng(0)
        return list(zip(probe_rng.uniform(0.0, 1.5, 4),
                        probe_rng.uniform(0.0, 2.0 * math.pi, 4))) + [(0.0, 0.0)]

    def test_report_matches_pointwise_residuals(self):
        sol = perturbed_solution(2e-4)
        report = verify_solution(sol)
        probes = self.probes()
        eom = max(max(eom_residual(sol, t, s)) for t, s in probes)
        chir = max(max(chirality_residual(sol, t, s)) for t, s in probes)
        gauge = max(abs(gauge_residual(sol, t, s).chiral) for t, s in probes)
        values = report.values
        assert (values["eom"], values["chirality"], values["gauge_chiral"]) == (eom, chir, gauge)
        self.assert_gaps_match(sol, report, probes)

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_gaps_match_in_random_frames(self, n):
        sol = random_solution(np.random.default_rng(70 + n), n=n)
        self.assert_gaps_match(sol, verify_solution(sol), self.probes())

    def test_gaps_match_on_sixteen_sigma_nodes(self):
        # four distinct windings: the merged evaluation spans 2 taus x 16 sigma-nodes
        sol = relaxed_distinct_windings()
        assert len(_periodic_sigmas(sol.m, sol.n, sol.m_s, sol.n_s)) == 16
        report = verify_solution(sol)
        assert not report.ok
        self.assert_gaps_match(sol, report, self.probes())


_ADS_FRAME = st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3)
_SPHERE_FRAME = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@st.composite
def exact_solutions(draw, f_min=1.0, windings=st.integers(1, 50)):
    """b in [1, 3], f >= f_min in the band (edges included), n in 1..50, in a random frame."""
    b = draw(st.floats(1.0, 3.0))
    lo, hi = max(b, f_min), f_max(b)
    f = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
    assume(admissible(f, b))
    frame = [exp_algebra(cls(draw(coeffs)), 1.0) for cls, coeffs in (
        (AdsAlgebraElement, _ADS_FRAME), (AdsAlgebraElement, _ADS_FRAME),
        (SphereAlgebraElement, _SPHERE_FRAME), (SphereAlgebraElement, _SPHERE_FRAME))]
    return apply_isometry(family_solution(f, b, draw(windings)), *frame)


@st.composite
def kernel_solutions(draw):
    """Exact solutions at n in {1, 3, 64, 4096} in frames boosted up to 0.8, the same with one
    frequency broken, and the strict=False set with windings (-3, 5, 4, 2)."""
    kind = draw(st.sampled_from(["exact", "perturbed", "relaxed"]))
    if kind == "relaxed":
        return relaxed_distinct_windings()
    sol = draw(exact_solutions(windings=st.sampled_from([1, 3, 64, 4096])))
    if kind == "perturbed":
        field = draw(st.sampled_from(["lam", "rho", "lam_s", "rho_s"]))
        sol = replace(sol, **{field: getattr(sol, field) * draw(st.sampled_from([1.001, 0.9999]))})
    return sol


def kernel_points(sol):
    """(tau, sigma) shapes the kernels see: the battery's probes, tau rows x the sigma-nodes,
    the periodicity grid and one point."""
    nodes = _periodic_sigmas(sol.m, sol.n, sol.m_s, sol.n_s)
    sigmas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    return ((geometry._PROBE_TAUS, geometry._PROBE_SIGMAS), (np.array([[0.0], [1.7]]), nodes),
            (np.linspace(0.0, 1.5, 4)[:, None, None], np.stack([sigmas, sigmas + 2.0 * math.pi])),
            (np.float64(0.3), np.float64(1.2)))


def assert_same_values(got, want):
    """Equal dtype and shape, and every entry equal.

    np.array_equal does not tell -0.0 from 0.0, and the complex AdS products may flip the
    sign of an exact zero: each adds a +-0.0 cross term of the imaginary parts to the real one.
    """
    assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_stack_holds(stacked, ads, sph):
    """A sector-stacked array holds the per-sector arrays, AdS with zero imaginary part."""
    assert not np.any(stacked[0].imag)
    for got, want in zip(solutions._unstack(stacked), (ads, sph)):
        assert_same_values(got, want)


class TestStackedKernels:
    """The sector-stacked kernels reproduce the one-sector-at-a-time references of conftest."""

    @given(kernel_solutions())
    def test_equal_to_per_sector_loops_entry_for_entry(self, sol):
        for taus, sigmas in kernel_points(sol):
            for got, want in zip(evaluate_matrices(sol, taus, sigmas),
                                 evaluate_matrices_per_sector(sol, taus, sigmas)):
                assert_same_values(got, want)
            ads, sph = derivatives_per_sector(sol, taus, sigmas)
            for stacked, *pair in zip(solutions._derivatives(sol.matrices, taus, sigmas), ads, sph):
                assert_stack_holds(stacked, *pair)
            for got, want in zip(current_matrices(sol, taus, sigmas),
                                 current_matrices_per_sector(sol, taus, sigmas)):
                for field in ("L_tau", "L_sig", "R_tau", "R_sig"):
                    assert_same_values(getattr(got, field), getattr(want, field))
            ads, sph = residuals_per_sector(sol, taus, sigmas)
            for stacked, *pair in zip(geometry._residuals(sol, taus, sigmas), ads, sph):
                assert_stack_holds(stacked, *pair)


class TestDerivativeKernel:
    """solutions._derivatives against evaluate_matrices and the closed-form currents."""

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_matches_central_difference_quotients(self, n):
        # step 1e-3/omega: truncation ~1e-7 and roundoff ~1e-10 relative, for any winding
        rng = np.random.default_rng(60 + n)
        sol = random_solution(rng, n=n)
        taus, sigmas = rng.uniform(0.0, 1.5, 5), rng.uniform(0.0, 2.0 * math.pi, 5)
        derivs = solutions._derivatives(sol.matrices, taus, sigmas)
        for k, (lam, rho, m, n_) in enumerate(zip(*sol.matrices[:4])):
            h = 1e-3 / max(abs(lam), abs(rho), 0.5 * abs(m), 0.5 * abs(n_))
            g = evaluate_matrices(sol, taus, sigmas)[k]
            _, gt, gs, gtt, gss = (d[k] for d in derivs)
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
        for inv, g in zip(solutions._derivatives(sol.matrices, taus, sigmas)[0],
                          evaluate_matrices(sol, taus, sigmas)):
            assert np.array_equal(inv, algebra._adjugate(g))

    @given(exact_solutions())
    def test_currents_match_closed_form(self, sol):
        # current_matrices conjugates by one factor; the kernel multiplies by Leibniz.
        # Both cancel terms of size omega |g|^2, so roundoff scales with that, not with
        # the currents, which vanish at the (1, 1) corner.
        taus, sigmas = np.linspace(0.0, 1.5, 5), np.linspace(0.0, 2.0 * math.pi, 5)
        for (lam, rho, m, n), (inv, gt, gs, *_), cur in zip(
                zip(*sol.matrices[:4]), zip(*solutions._derivatives(sol.matrices, taus, sigmas)),
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
