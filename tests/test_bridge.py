import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ads3s3.algebra import (
    DegenerateConfigurationError,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
)
from ads3s3.bridge import (
    _POINT_FIELDS,
    FeasibilityResult,
    RegionError,
    SimpleFamilyPoint,
    _sector_invariants,
    admissible,
    bridge,
    f_max,
    family_angles,
    family_relations,
    family_tangent,
    feasibility_general,
    scan_region,
)
from ads3s3.solutions import family_solution, theta_invariants
from ads3s3.symplectic import StringChartPoint

from conftest import invariants_per_sector
from test_geometry import exact_solutions

F0, B0 = 5.0 / 3.0, 5.0 / 4.0


def oracle_point():
    """Exact-fraction evaluation of the reference family point (5/3, 5/4, 1)."""
    f, b = Fraction(5, 3), Fraction(5, 4)
    c2t = b * f - b * b + 1
    c2ts = f * f - b * f - 1
    mu2 = Fraction(1, 4) * (f - 1) * (f + c2t)
    mubar2 = Fraction(1, 4) * (f + 1) * (f - c2t)
    e2, a2 = f * f - 1, b * b - 1
    coshalpha = math.sqrt(e2 / (e2 - (c2t * c2t - 1)))
    cosbeta = math.sqrt(a2 / (a2 + (1 - c2ts * c2ts)))
    return {
        "cosh2theta": c2t, "cos2theta_s": c2ts, "mu2": mu2, "mubar2": mubar2,
        "coshalpha": coshalpha, "cosbeta": cosbeta,
        "E": math.sqrt(e2), "A": math.sqrt(a2),
        "lam": Fraction(3, 2), "rho": Fraction(-1, 6),
        "lam_s": Fraction(1), "rho_s": Fraction(1, 4),
    }


def random_admissible(rng, b_hi=2.0):
    b = rng.uniform(1.0, b_hi)
    return rng.uniform(b, f_max(b)), b


class TestReferencePoint:
    def test_exact_fractions(self):
        expect = oracle_point()
        blk = bridge(F0, B0, 1)
        assert abs(blk.cosh2theta - float(expect["cosh2theta"])) <= 1e-13
        assert abs(blk.cos2theta_s - float(expect["cos2theta_s"])) <= 1e-13
        assert abs(blk.mu2 - float(expect["mu2"])) <= 1e-13
        assert abs(blk.mubar2 - float(expect["mubar2"])) <= 1e-13
        assert abs(blk.coshalpha - expect["coshalpha"]) <= 1e-12
        assert abs(blk.cosbeta - expect["cosbeta"]) <= 1e-12
        assert abs(blk.lam - 1.5) <= 1e-15 and abs(blk.rho + 1.0 / 6.0) <= 1e-15
        assert abs(blk.lam_s - 1.0) <= 1e-15 and abs(blk.rho_s - 0.25) <= 1e-15

    def test_reference_decimals(self):
        # headline decimals of the reference block
        blk = bridge(F0, B0, 1)
        assert abs(blk.mu2 - 0.53125) <= 1e-6
        assert abs(blk.mubar2 - 0.0972222) <= 1e-6
        assert abs(blk.cosh2theta - 1.5208333) <= 1e-6
        assert abs(blk.cos2theta_s + 0.3055556) <= 1e-6
        assert abs(blk.cosbeta - 0.6187715) <= 1e-6


class TestDualSideOracle:
    def test_sides_agree_at_reference(self):
        (mu2_a, mubar2_a, _), (mu2_s, mubar2_s, _) = _sector_invariants(family_relations(F0, B0, 1))
        assert abs(mu2_a - mu2_s) <= 1e-12
        assert abs(mubar2_a - mubar2_s) <= 1e-12

    def test_sides_agree_on_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            f, b = random_admissible(rng)
            n = int(rng.integers(1, 4))
            (mu2_a, mubar2_a, _), (mu2_s, mubar2_s, _) = _sector_invariants(
                family_relations(f, b, n))
            scale = max(1.0, abs(mu2_a), abs(mubar2_a))
            assert abs(mu2_a - mu2_s) <= 1e-12 * scale
            assert abs(mubar2_a - mubar2_s) <= 1e-12 * scale

    def test_cross_identities(self):
        # 4 mu mubar cosh(alpha) = E^2 and 4 mu mubar cos(beta) = A^2
        rng = np.random.default_rng(22)
        for _ in range(200):
            f, b = random_admissible(rng)
            blk = bridge(f, b, int(rng.integers(1, 4)))
            if blk.degenerate:
                continue
            prod = 4.0 * blk.mu * blk.mubar
            assert abs(prod * blk.coshalpha - blk.E ** 2) <= 1e-10
            assert abs(prod * blk.cosbeta - blk.A ** 2) <= 1e-10

    def test_product_identity(self):
        # mu^2 mubar^2 = (n^4 / 16) e^2 (f^2 - cosh^2 2theta)
        rng = np.random.default_rng(23)
        for _ in range(100):
            f, b = random_admissible(rng)
            n = int(rng.integers(1, 4))
            blk = bridge(f, b, n)
            rhs = n ** 4 / 16.0 * blk.e ** 2 * (f * f - blk.cosh2theta ** 2)
            assert abs(blk.mu2 * blk.mubar2 - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_ranges(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            f, b = random_admissible(rng)
            blk = bridge(f, b)
            assert blk.mu2 >= 0.0 and blk.mubar2 >= 0.0
            assert blk.cosh2theta >= 1.0 - 1e-15
            assert -1.0 - 1e-15 <= blk.cos2theta_s <= 1.0 + 1e-15
            if not blk.degenerate:
                assert blk.coshalpha >= 1.0 - 1e-12
                assert abs(blk.cosbeta) <= 1.0 + 1e-12


class TestBridgeReadsOneSide:
    """Both sides of _sector_invariants are one form of a validated (f, b); bridge reads them
    without comparing, which used to refuse admissible points at large b by roundoff alone."""

    @given(st.floats(3.0, 8.0), st.floats(0.0, 1.0), st.sampled_from([1, 1000]))
    @example(math.log10(8653.471834178601), 0.5, 1)
    def test_large_b_returns_the_points_fields(self, log_b, t, n):
        b = 10.0 ** log_b
        f = b + t * (f_max(b) - b)
        blk, point = bridge(f, b, n), SimpleFamilyPoint(f, b, n)
        for k in _POINT_FIELDS:
            assert getattr(blk, k) == getattr(point, k), k
        assert list(blk.as_dict())[:len(_POINT_FIELDS)] == list(_POINT_FIELDS)

    def test_reported_point(self):
        blk = bridge(8653.471880321717, 8653.471834178601)
        assert blk.mu2 > 0.0 and blk.mubar2 > 0.0 and not blk.degenerate


class TestAdmissibility:
    def test_examples(self):
        assert admissible(F0, B0)
        verdict = admissible(3.0, B0)
        assert not verdict and "cos2theta_s" in verdict.reason
        assert admissible(1.0, 1.0)

    def test_below_one(self):
        assert not admissible(0.9, 1.0)
        assert not admissible(1.5, 0.9)
        assert "f < 1" in admissible(0.9, 1.0).reason

    def test_f_below_b(self):
        verdict = admissible(1.1, 1.4)
        assert not verdict and "cosh2theta" in verdict.reason

    def test_region_error_raised(self):
        with pytest.raises(RegionError):
            bridge(3.0, B0, 1)

    @pytest.mark.parametrize("f, b", [(1e200, 1e200), (1e200, 1.0), (2e154, 2e154)])
    def test_overflowing_f_squared_rejected(self, f, b):
        # f f - b f - 2 is inf - inf = nan at f = b = 1e200; nan > 0 is false
        verdict = admissible(f, b)
        assert not verdict and verdict.reason == "f^2 overflows"
        with pytest.raises(RegionError, match="f\\^2 overflows"):
            bridge(f, b, 1)
        assert scan_region((f, f, 1), (b, b, 1))["admissible"].tolist() == [False]


CHART_DIRECTIONS = dict(lhat=UnitTimelikeVector(0.5, 0.0), rhat=UnitTimelikeVector(),
                        lhat_s=UnitSphereVector(0.8, 0.0), rhat_s=UnitSphereVector(2.0, 1.0))


@st.composite
def band_points(draw):
    """(f, b) across the band, on its edges b = 1, f = b and f = f_max(b), or with f^2 overflowing."""
    b = draw(st.one_of(st.just(1.0), st.floats(0.5, 3.0)))
    top = f_max(b)
    f = draw(st.one_of(st.floats(0.5, 4.0), st.sampled_from(
        [b, math.nextafter(b, 0.0), top, math.nextafter(top, 0.0), math.nextafter(top, 4.0),
         1e200])))
    return f, b


class TestOneBandTest:
    """admissible, scan_region's column and the string chart read the band through one set of
    margins; the band's inequalities, written out here in f^2 - b f - 2, are the oracle."""

    @given(band_points())
    @example((1.0, 1.0))
    @example((2.0, 1.0))
    @example((1e200, 1e200))
    def test_closed_and_open_band_agree(self, point):
        f, b = point
        q = f * f - b * f - 2.0  # inf or nan where f^2 overflows
        closed = bool(admissible(f, b))
        assert closed == (f >= 1.0 and b >= 1.0 and f >= b and q <= 0.0)
        assert scan_region((f, f, 1), (b, b, 1))["admissible"].tolist() == [closed]
        try:
            StringChartPoint(f=f, b=b, **CHART_DIRECTIONS)
            opened = True
        except ValidationError as exc:
            assert str(exc).startswith("chart needs b > 1, f > b")
            opened = False
        assert opened == (b > 1.0 and f > b and q < 0.0)
        assert closed or not opened

    @pytest.mark.parametrize("f, b, n, error, message", [
        *[(f, b, n, RegionError, f"inadmissible (f, b): {admissible(f, b).reason}")
          for f, b, n in ((0.9, 1.0, 1), (1.5, 0.9, 1), (1.1, 1.4, 1), (3.0, B0, 1),
                          (1e200, 1e200, 1), (math.nan, B0, 1), (F0, math.inf, 2))],
        *[(F0, B0, n, ValidationError, "winding n must be a positive integer below 1.8e308")
          for n in (0, -2, 1.5, True, math.inf, math.nan, 10 ** 400)]])
    def test_bridge_and_family_solution_raise_the_same_message(self, f, b, n, error, message):
        for build in (bridge, family_solution):
            with pytest.raises(ValidationError) as info:
                build(f, b, n)
            assert type(info.value) is error and str(info.value) == message


class TestBoundaries:
    def test_lower_edge_f_equals_b(self):
        b = 1.3
        blk = bridge(b, b, 2)
        assert abs(blk.cosh2theta - 1.0) <= 1e-14
        assert abs(blk.cos2theta_s + 1.0) <= 1e-14
        # tau-sigma matching forces mu = mubar = n a / 2 here
        assert abs(blk.mu2 - (2 ** 2) * blk.a ** 2 / 4.0) <= 1e-13
        assert abs(blk.mubar2 - blk.mu2) <= 1e-13
        assert blk.degenerate

    def test_upper_edge_f_max(self):
        b = 1.4
        blk = bridge(f_max(b), b, 1)
        assert abs(blk.cos2theta_s - 1.0) <= 1e-12
        assert blk.degenerate

    @given(st.floats(1.0, 1e6))
    @example(1.4533177527746808)
    def test_f_max_is_the_largest_admissible_float(self, b):
        top = f_max(b)
        assert admissible(top, b)
        assert not admissible(math.nextafter(top, math.inf), b)

    def test_corner_fully_degenerate(self):
        blk = bridge(1.0, 1.0, 1)
        assert blk.mu2 <= 1e-15 and blk.mubar2 <= 1e-15
        assert math.isnan(blk.coshalpha) and math.isnan(blk.cosbeta)
        assert blk.degenerate

    def test_continuity_at_edges(self):
        # invariants approach their edge values smoothly
        b = 1.25
        eps = 1e-9
        lower = bridge(b + eps, b, 1)
        assert abs(lower.cosh2theta - 1.0) <= 1e-7
        upper = bridge(f_max(b) - eps, b, 1)
        assert abs(upper.cos2theta_s - 1.0) <= 1e-7


class TestFamilyTangent:
    @staticmethod
    def fields(f, b, n):
        rel = family_relations(f, b, n)
        return np.array([rel.lam, rel.rho, rel.lam_s, rel.rho_s, rel.cosh2theta,
                         rel.cos2theta_s, *family_angles(rel.cosh2theta, rel.cos2theta_s)])

    def test_matches_richardson_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-4
        for n in (1, 3, 40):
            b = rng.uniform(1.05, 1.8)
            f = rng.uniform(b + 0.05, f_max(b) - 0.05)
            got = family_tangent(family_relations(f, b, n))
            for k, e in enumerate(np.eye(2)):
                def diff(step):
                    return (self.fields(*(np.array([f, b]) + step * e), n)
                            - self.fields(*(np.array([f, b]) - step * e), n)) / (2.0 * step)
                want = (4.0 * diff(0.5 * h) - diff(h)) / 3.0
                assert np.max(np.abs(got[:, k] - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("f, b", [(1.3, 1.3), (f_max(1.4), 1.4), (1.5, 1.0)])
    def test_band_edges_rejected(self, f, b):
        with pytest.raises(DegenerateConfigurationError, match="band edges"):
            family_tangent(family_relations(f, b, 1))

    def test_finite_next_to_the_edges(self):
        for f, b in ((1.2 + 1e-9, 1.2), (f_max(1.2) - 1e-9, 1.2), (1.5, 1.0 + 1e-12)):
            assert np.all(np.isfinite(family_tangent(family_relations(f, b, 1))))


class TestScanRegion:
    def test_local_grid(self):
        cols = scan_region((F0 - 0.01, F0 + 0.01, 2), (B0 - 0.01, B0 + 0.01, 2))
        assert all(col.shape == (4,) for col in cols.values())
        assert cols["admissible"].all()

    def test_inadmissible_band(self):
        cols = scan_region((3.5, 4.0, 3), (1.0, 1.2, 3))
        assert all(col.shape == (9,) for col in cols.values())
        assert not cols["admissible"].any()

    def test_single_point(self):
        cols = scan_region((F0, F0, 1), (B0, B0, 1))
        assert all(col.shape == (1,) for col in cols.values())
        assert abs(cols["mu2"][0] - 0.53125) <= 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_region((1.0, 2.0, 0), (1.0, 1.5, 4))

    def test_deterministic_order(self):
        a = scan_region((1.0, 2.0, 3), (1.0, 1.5, 2))
        b = scan_region((1.0, 2.0, 3), (1.0, 1.5, 2))
        assert list(a) == list(b)
        assert all(np.array_equal(a[k], b[k], equal_nan=True) for k in a)


# Grid bounds that put edges inside the grid: f < 1, b < 1, f < b, f beyond
# f_max(b), the line b = 1 (hit exactly by 1.0 and by the -1..3 axes) and
# negative values.
_BOUNDS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.25, F0, 3.0]), st.floats(-3.0, 6.0))


@st.composite
def grid_axis(draw):
    start = draw(_BOUNDS)
    stop = draw(st.one_of(st.just(start), st.floats(start, start + 5.0)))
    return start, stop, draw(st.integers(1, 20))


def assert_same_bits(got, want, name):
    """Equal as IEEE doubles: the same bits, any nan matching any nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), name
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), name


class TestScanAgreesWithScalarPath:
    """scan_region's columns against the float relations, point by point, and the one signed
    invariant form against each sector's own formulas (conftest.invariants_per_sector)."""

    @given(grid_axis(), grid_axis(), st.integers(1, 50))
    @example((-1.0, 3.0, 9), (-1.0, 3.0, 9), 1)
    @example((0.5, 4.0, 15), (0.5, 3.0, 11), 2)
    @example((1e150, 1e200, 3), (1e150, 1e200, 3), 1)  # f * f overflows: inf - inf = nan
    def test_columns_equal_scalar_relations(self, f_range, b_range, n):
        cols = scan_region(f_range, b_range, n)
        assert cols["admissible"].dtype == bool
        want = {name: [] for name in cols if name not in ("f", "b")}
        for f, b in zip(cols["f"].tolist(), cols["b"].tolist()):
            rel = family_relations(f, b, n)
            reference = invariants_per_sector(rel)
            assert_same_bits(_sector_invariants(rel), reference, "invariants")
            (mu2, mubar2, coshalpha), (*_, cosbeta) = reference
            for name, value in (("admissible", bool(admissible(f, b))),
                                ("cosh2theta", rel.cosh2theta), ("cos2theta_s", rel.cos2theta_s),
                                ("mu2", mu2), ("mubar2", mubar2), ("coshalpha", coshalpha),
                                ("cosbeta", cosbeta)):
                want[name].append(value)
        assert cols["admissible"].tolist() == want.pop("admissible")
        for name, values in want.items():
            assert_same_bits(cols[name], values, name)

    @given(grid_axis(), grid_axis(), st.integers(1, 50))
    def test_array_relations_equal_scalar_ones(self, f_range, b_range, n):
        cols = scan_region(f_range, b_range, n)
        arrays = family_relations(cols["f"], cols["b"], n)
        scalars = [family_relations(f, b, n) for f, b in zip(cols["f"].tolist(), cols["b"].tolist())]
        for i, name in enumerate(arrays._fields):
            assert_same_bits(np.broadcast_to(arrays[i], cols["f"].shape),
                             [rel[i] for rel in scalars], name)

    def test_grid_order(self):
        cols = scan_region((1.0, 2.0, 3), (1.0, 1.5, 2))
        assert cols["f"].tolist() == [1.0, 1.0, 1.5, 1.5, 2.0, 2.0]
        assert cols["b"].tolist() == [1.0, 1.5] * 3


class TestFeasibility:
    def test_family_point_is_exact_solution(self):
        blk = bridge(F0, B0, 1)
        res = feasibility_general(-1, 1, 1, 1, blk.lam, blk.rho, blk.lam_s, blk.rho_s,
                                  blk.cosh2theta, blk.cos2theta_s)
        assert isinstance(res, FeasibilityResult)
        assert res.feasible and res.residual <= 1e-10
        assert abs(res.mu2 - blk.mu2) <= 1e-10
        assert abs(res.mubar2 - blk.mubar2) <= 1e-10

    def test_mismatched_sector_infeasible(self):
        # m = n = 0 with m_s = n_s = 2 and generic frequencies: the two
        # sectors demand different mu^2 - mubar^2, so the fit must fail
        rng = np.random.default_rng(25)
        for _ in range(10):
            lam = rng.uniform(0.5, 2.0)
            lam_s = rng.uniform(0.5, 2.0)
            res = feasibility_general(0, 0, 2, 2, lam, 0.0, lam_s, 1.0 / lam_s,
                                      math.cosh(rng.uniform(0.1, 1.0)),
                                      math.cos(rng.uniform(0.3, 2.8)))
            assert not res.feasible
            assert res.residual > 0.01

    def test_all_zero_trivially_feasible(self):
        res = feasibility_general(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
        assert res.feasible
        assert res.mu2 <= 1e-12 and res.mubar2 <= 1e-12

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            feasibility_general(1, 2, 0, 0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0)

    # the b = 1 points that the ratio form misjudged, and n = 10^6 beyond an absolute tol
    @given(exact_solutions(windings=st.sampled_from([1, 3, 50, 1000, 10**6])))
    @example(family_solution(1.001, 1.0, 1))
    @example(family_solution(1.01, 1.0, 1))
    @example(family_solution(1.3, 1.0, 1))
    @example(family_solution(1.5, 1.0, 1))
    @example(family_solution(F0, B0, 10**6))
    def test_exact_solutions_feasible(self, sol):
        res = feasibility_general(sol.m, sol.n, sol.m_s, sol.n_s, sol.lam, sol.rho,
                                  sol.lam_s, sol.rho_s, *theta_invariants(sol))
        assert res.feasible, res
        assert math.isnan(res.coshalpha) or res.coshalpha >= 1.0 - 1e-8

    @pytest.mark.parametrize("n", [1, 1000, 10**6])
    def test_relation_preserving_gauge_break_infeasible(self, n):
        # 4 lam_s rho_s = m_s n_s still holds, the current matching does not
        sol = family_solution(F0, B0, n)
        res = feasibility_general(sol.m, sol.n, sol.m_s, sol.n_s, sol.lam, sol.rho,
                                  sol.lam_s * (1.0 + 1e-6), sol.rho_s / (1.0 + 1e-6),
                                  *theta_invariants(sol))
        assert not res.feasible

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
    @pytest.mark.parametrize("name", ["lam", "rho", "lam_s", "rho_s", "cosh2theta",
                                      "cos2theta_s"])
    def test_non_finite_or_overflowing_input_rejected(self, name, value):
        args = dict(m=-1, n=1, m_s=1, n_s=1, lam=1.5, rho=-1.0 / 6.0, lam_s=1.0, rho_s=0.25,
                    cosh2theta=1.5208333333333335, cos2theta_s=-0.30555555555555536)
        assert feasibility_general(**args).feasible
        with pytest.raises(ValidationError) as info:
            feasibility_general(**{**args, name: value})
        assert str(info.value) == f"{name} must be finite, with a square below 1.8e308"

    def test_overflowing_equations_rejected(self):
        with pytest.raises(ValidationError, match="overflow"):
            feasibility_general(0, 0, 0, 0, 1e154, 1e154, 0.0, 0.0, 1.0, 1.0)
