import ast
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ads3s3 import algebra as al

T0, T1, T2 = al.ads_basis()
S1, S2, S3 = al.sphere_basis()


def series_exp(mat, terms=40):
    """Independent matrix-exponential oracle: plain Taylor series."""
    out = np.eye(2, dtype=mat.dtype)
    term = np.eye(2, dtype=mat.dtype)
    for k in range(1, terms):
        term = term @ mat / k
        out = out + term
    return out


def random_timelike(rng):
    return al.UnitTimelikeVector(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi))


def random_sphere_unit(rng):
    return al.UnitSphereVector(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))


class TestBasisRelations:
    def test_ads_products(self):
        # t_mu t_nu = eta_{mu nu} I + eps_{mu nu}^rho t_rho, entrywise
        for i, u in enumerate((T0, T1, T2)):
            for j, v in enumerate((T0, T1, T2)):
                rhs = al.ETA[i, j] * np.eye(2) + np.einsum(
                    "r,rab->ab", al.EPS_MIXED[i, j], al.T_BASIS)
                assert np.max(np.abs(u.matrix @ v.matrix - rhs)) <= 1e-12

    def test_sphere_products(self):
        for i, u in enumerate((S1, S2, S3)):
            for j, v in enumerate((S1, S2, S3)):
                rhs = -(i == j) * np.eye(2) - np.einsum(
                    "l,lab->ab", al.EPS[i, j], al.S_BASIS)
                assert np.max(np.abs(u.matrix @ v.matrix - rhs)) <= 1e-12

    def test_epsilon_summation_rule(self):
        # eps_{mu nu rho} eps_{mu' nu'}^rho = eta_{mu nu'} eta_{nu mu'} - eta_{mu mu'} eta_{nu nu'}
        lhs = np.einsum("mnr,abr->mnab", al.EPS, al.EPS_MIXED)
        rhs = (np.einsum("mb,na->mnab", al.ETA, al.ETA)
               - np.einsum("ma,nb->mnab", al.ETA, al.ETA))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_inner_product_values(self):
        assert al.inner(T0, T0) == -1.0
        assert al.inner(S3, S3) == 1.0
        assert al.inner(T1, T2) == 0.0

    def test_inner_mixed_sector_rejected(self):
        with pytest.raises(al.SectorMismatchError):
            al.inner(T0, S1)


class TestExponential:
    def test_rotation_generator(self):
        th = 0.8
        expected = np.array([[math.cos(th), math.sin(th)],
                             [-math.sin(th), math.cos(th)]])
        assert np.allclose(al.exp_algebra(T0, th).matrix, expected, atol=1e-15)

    def test_cartan_generator(self):
        th = 1.3
        assert np.allclose(al.exp_algebra(S3, th).matrix,
                           np.diag([np.exp(1j * th), np.exp(-1j * th)]), atol=1e-15)

    def test_identity_at_zero(self):
        assert np.allclose(al.exp_algebra(T1, 0.0).matrix, np.eye(2))

    def test_against_series_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = al.AdsAlgebraElement(rng.uniform(-1.2, 1.2, 3))
            th = rng.uniform(-1.5, 1.5)
            assert np.max(np.abs(al.exp_algebra(v, th).matrix
                                 - series_exp(th * v.matrix))) <= 1e-12
            w = al.SphereAlgebraElement(rng.uniform(-1.2, 1.2, 3))
            assert np.max(np.abs(al.exp_algebra(w, th).matrix
                                 - series_exp((th * w.matrix).astype(complex)))) <= 1e-12

    def test_near_parabolic_direction(self):
        # nearly null sl(2,R) direction exercises the series branch
        eps = 1e-7
        v = al.AdsAlgebraElement(np.array([1.0, math.sqrt(1.0 + eps), 0.0]))
        g = al.exp_algebra(v, 0.9)
        assert np.max(np.abs(g.matrix - series_exp(0.9 * v.matrix))) <= 1e-12

    def test_group_membership(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = al.exp_algebra(al.AdsAlgebraElement(rng.uniform(-1, 1, 3)), 0.7)
            assert abs(np.linalg.det(g.matrix) - 1.0) <= 1e-12
            h = al.exp_algebra(al.SphereAlgebraElement(rng.uniform(-1, 1, 3)), 0.7)
            assert np.max(np.abs(h.matrix.conj().T @ h.matrix - np.eye(2))) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(al.ValidationError):
            al.exp_algebra(T0, math.inf)


class TestEmbedding:
    def test_identity_element(self):
        assert np.allclose(al.to_embedding(al.AdsGroupElement.identity()), [1, 0, 0, 0])
        assert np.allclose(al.to_embedding(al.SphereGroupElement.identity()), [0, 0, 0, 1])

    def test_rotation_embeddings(self):
        th = 0.6
        assert np.allclose(al.to_embedding(al.exp_algebra(S3, th)),
                           [0, 0, math.sin(th), math.cos(th)], atol=1e-15)
        assert np.allclose(al.to_embedding(al.exp_algebra(T1, th)),
                           [math.cosh(th), 0, math.sinh(th), 0], atol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = al.exp_algebra(al.AdsAlgebraElement(rng.uniform(-1, 1, 3)), 1.1)
            y = al.to_embedding(g)
            assert abs(al.ads_dot(y, y) + 1.0) <= 1e-12
            y0p, y0, y1, y2 = y
            assert np.max(np.abs(np.array([[y0p + y2, y1 + y0], [y1 - y0, y0p - y2]])
                                 - g.matrix)) <= 1e-12
            h = al.exp_algebra(al.SphereAlgebraElement(rng.uniform(-1, 1, 3)), 1.1)
            x = al.to_embedding(h)
            assert abs(x @ x - 1.0) <= 1e-12
            x1, x2, x3, x4 = x
            assert np.max(np.abs(np.array([[x4 + 1j * x3, x2 + 1j * x1],
                                           [-x2 + 1j * x1, x4 - 1j * x3]]) - h.matrix)) <= 1e-12

    def test_metric_agreement_with_embedding(self):
        # <(g^{-1} g')^2> equals Y'.Y' along a curve (finite differences)
        rng = np.random.default_rng(6)
        v = al.AdsAlgebraElement(rng.uniform(-1, 1, 3))
        g0 = al.exp_algebra(al.AdsAlgebraElement(rng.uniform(-1, 1, 3)), 0.4)

        def g_of(s):
            return al.exp_algebra(v, s) @ g0

        eps = 1e-5
        s0 = 0.3
        dg = (g_of(s0 + eps).matrix - g_of(s0 - eps).matrix) / (2 * eps)
        dy = (al.to_embedding(g_of(s0 + eps)) - al.to_embedding(g_of(s0 - eps))) / (2 * eps)
        lhs = 0.5 * np.trace(np.linalg.inv(g_of(s0).matrix) @ dg
                             @ np.linalg.inv(g_of(s0).matrix) @ dg)
        assert abs(lhs - al.ads_dot(dy, dy)) <= 1e-8

        w = al.SphereAlgebraElement(rng.uniform(-1, 1, 3))
        h0 = al.exp_algebra(al.SphereAlgebraElement(rng.uniform(-1, 1, 3)), 0.4)

        def h_of(s):
            return al.exp_algebra(w, s) @ h0

        dh = (h_of(s0 + eps).matrix - h_of(s0 - eps).matrix) / (2 * eps)
        dx = (al.to_embedding(h_of(s0 + eps)) - al.to_embedding(h_of(s0 - eps))) / (2 * eps)
        lhs = -0.5 * np.trace(np.linalg.inv(h_of(s0).matrix) @ dh
                              @ np.linalg.inv(h_of(s0).matrix) @ dh)
        assert abs(lhs.real - dx @ dx) <= 1e-8


class TestAdjoint:
    def test_identity(self):
        v = al.AdsAlgebraElement(np.array([0.2, -0.7, 1.1]))
        assert np.allclose(al.adjoint(al.AdsGroupElement.identity(), v).coeffs, v.coeffs)

    def test_rotation_action(self):
        # direct 2x2 multiplication oracle: Ad_{exp(t0, th)} t1 = cos2th t1 + sin2th t2
        th = 0.35
        got = al.adjoint(al.exp_algebra(T0, th), T1)
        assert np.allclose(got.coeffs, [0.0, math.cos(2 * th), math.sin(2 * th)], atol=1e-14)

    def test_isometry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = al.exp_algebra(al.AdsAlgebraElement(rng.uniform(-1, 1, 3)), 0.8)
            assert abs(al.inner(al.adjoint(g, T0), al.adjoint(g, T0)) + 1.0) <= 1e-12
            h = al.exp_algebra(al.SphereAlgebraElement(rng.uniform(-1, 1, 3)), 0.8)
            w = al.SphereAlgebraElement(rng.uniform(-1, 1, 3))
            assert abs(al.inner(al.adjoint(h, w), al.adjoint(h, w))
                       - al.inner(w, w)) <= 1e-12


    def test_strong_boost_preserves_inner_relative_to_entries(self):
        # at boost 10 the entries reach 1e8 and <v,v> moves by far more than 1e-10 in absolute
        # terms; adjoint projects g v g^{-1} onto the basis rather than refusing it
        g = al.exp_algebra(al.AdsAlgebraElement([0.3, 10.0, 0.2]))
        for u, w in (([1.0, 0.2, 0.1], [0.4, -1.0, 0.7]), ([1.0, 0.2, 0.1], [1.0, 0.2, 0.1]),
                     ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])):
            u, w = al.AdsAlgebraElement(u), al.AdsAlgebraElement(w)
            au, aw = al.adjoint(g, u), al.adjoint(g, w)
            scale = float(np.max(np.abs(au.coeffs)) * np.max(np.abs(aw.coeffs)))
            assert scale > 1e14
            assert abs(al.inner(au, aw) - al.inner(u, w)) <= 1e-13 * scale


class TestNormalizedCommutator:
    def test_boost_plane_example(self):
        # l = t0, r = cosh2g t0 + sinh2g t1: oriented by [t0, t1] = 2 t2
        gam = 0.52
        r = al.AdsAlgebraElement(np.array([math.cosh(2 * gam), math.sinh(2 * gam), 0.0]))
        nhat, got = al.normalized_commutator(T0, r)
        assert np.allclose(nhat.coeffs, [0.0, 0.0, 1.0], atol=1e-14)
        assert abs(got - gam) <= 1e-14

    def test_unit_spacelike_and_anticommutes(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            l, r = random_timelike(rng).element, random_timelike(rng).element
            if -al.inner(l, r) <= 1.0 + 1e-6:
                continue
            nhat, gam = al.normalized_commutator(l, r)
            assert np.max(np.abs(nhat.matrix @ nhat.matrix - np.eye(2))) <= 1e-12
            assert np.max(np.abs(nhat.matrix @ r.matrix + r.matrix @ nhat.matrix)) <= 1e-12
            # exp(-2 gamma n) r = l as a one-sided matrix product
            e = al.exp_algebra(nhat, -2.0 * gam)
            assert np.max(np.abs(e.matrix @ r.matrix - l.matrix)) <= 1e-12

    def test_boost_parameter_pairing(self):
        rng = np.random.default_rng(9)
        l, r = random_timelike(rng).element, random_timelike(rng).element
        nhat, gam = al.normalized_commutator(l, r)
        for a in (-0.7, 0.0, 0.4, 1.9):
            assert abs(al.inner(l, al.boost(a, nhat, r))
                       + math.cosh(2 * (gam - a))) <= 1e-12

    def test_parallel_rejected(self):
        with pytest.raises(al.DegenerateConfigurationError):
            al.normalized_commutator(T0, T0)
        with pytest.raises(al.DegenerateConfigurationError):
            al.normalized_commutator(S3, S3)

    def test_sphere_rotation(self):
        rng = np.random.default_rng(10)
        l, r = random_sphere_unit(rng).element, random_sphere_unit(rng).element
        nhat, gam = al.normalized_commutator(l, r)
        assert np.max(np.abs(nhat.matrix @ nhat.matrix + np.eye(2))) <= 1e-12
        assert np.allclose(al.boost(gam, nhat, r).coeffs, l.coeffs, atol=1e-12)


class TestBoost:
    def test_endpoints_and_interpolation(self):
        rng = np.random.default_rng(11)
        l, r = random_timelike(rng).element, random_timelike(rng).element
        nhat, gam = al.normalized_commutator(l, r)
        assert np.allclose(al.boost(0.0, nhat, r).coeffs, r.coeffs, atol=1e-13)
        assert np.allclose(al.boost(gam, nhat, r).coeffs, l.coeffs, atol=1e-12)
        got = al.boost(2.0 * gam, nhat, r)
        expected = 2.0 * math.cosh(2 * gam) * l.coeffs - r.coeffs
        assert np.allclose(got.coeffs, expected, atol=1e-12)

    def test_sinh_combination(self):
        rng = np.random.default_rng(12)
        l, r = random_timelike(rng).element, random_timelike(rng).element
        nhat, gam = al.normalized_commutator(l, r)
        s2g = math.sinh(2 * gam)
        for a in (-0.3, 0.6, 1.1):
            expected = (math.sinh(2 * (gam - a)) / s2g) * r.coeffs \
                + (math.sinh(2 * a) / s2g) * l.coeffs
            assert np.allclose(al.boost(a, nhat, r).coeffs, expected, atol=1e-12)

    def test_mixed_sectors_rejected(self):
        nhat, _ = al.normalized_commutator(al.UnitTimelikeVector(0.4, 0.0).element,
                                           al.UnitTimelikeVector().element)
        with pytest.raises(al.SectorMismatchError):
            al.boost(0.3, nhat, al.UnitSphereVector(0.5, 0.2).element)


class TestRlrIdentity:
    def test_random_vectors(self):
        # r l' r = l' + 2 <r l'> r for unit timelike r
        rng = np.random.default_rng(13)
        for _ in range(30):
            r = random_timelike(rng).element
            lp = al.AdsAlgebraElement(rng.uniform(-2, 2, 3))
            lhs = r.matrix @ lp.matrix @ r.matrix
            rhs = lp.matrix + 2.0 * al.inner(r, lp) * r.matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestUnitVectors:
    def test_exact_norms(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            lv = random_timelike(rng)
            assert abs(al.inner(lv.element, lv.element) + 1.0) <= 4e-15
            sv = random_sphere_unit(rng)
            assert abs(al.inner(sv.element, sv.element) - 1.0) <= 4e-15

    def test_coefficient_roundtrip(self):
        v = al.UnitTimelikeVector(0.83, 2.4)
        back = al.UnitTimelikeVector.from_coeffs(v.coeffs)
        assert abs(back.rapidity - 0.83) <= 1e-12 and abs(back.angle - 2.4) <= 1e-12
        s = al.UnitSphereVector(1.2, 5.1)
        back_s = al.UnitSphereVector.from_coeffs(s.coeffs)
        assert abs(back_s.polar - 1.2) <= 1e-12
        assert abs((back_s.azimuth - 5.1 + math.pi) % (2 * math.pi) - math.pi) <= 1e-12

    @pytest.mark.parametrize("vector", [al.UnitTimelikeVector(1e-9, 0.3),
                                        al.UnitSphereVector(1e-9, 0.3),
                                        al.UnitSphereVector(math.pi - 1e-9, 0.3)])
    def test_roundtrip_keeps_digits_near_the_axis(self, vector):
        # acosh/acos of a coefficient near 1 kept only half the digits (1e-9 came back as 0)
        back = type(vector).from_coeffs(vector.coeffs)
        assert np.allclose(astuple(back), astuple(vector), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cls, field", [(al.UnitTimelikeVector, "rapidity"),
                                            (al.UnitTimelikeVector, "angle"),
                                            (al.UnitSphereVector, "polar"),
                                            (al.UnitSphereVector, "azimuth")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_chart_parameter_named(self, cls, field, value):
        with pytest.raises(al.ValidationError, match=f"^{field} = {value!r} is not finite$"):
            cls(**{field: value})

    def test_past_directed_rejected(self):
        with pytest.raises(al.ValidationError):
            al.UnitTimelikeVector.from_coeffs([-1.0, 0.0, 0.0])

    def test_bad_norm_rejected(self):
        with pytest.raises(al.ValidationError):
            al.UnitTimelikeVector.from_coeffs([1.1, 0.0, 0.0])
        with pytest.raises(al.ValidationError):
            al.UnitSphereVector.from_coeffs([0.5, 0.0, 0.0])


class TestGroupValidation:
    def test_determinant_enforced(self):
        with pytest.raises(al.ValidationError):
            al.AdsGroupElement(np.array([[1.0, 0.0], [0.0, 1.1]]))

    def test_unitarity_enforced(self):
        with pytest.raises(al.ValidationError):
            al.SphereGroupElement(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))


class TestSharedImplementations:
    VALIDATED = ("AdsGroupElement", "SphereGroupElement", "AdsAlgebraElement",
                 "SphereAlgebraElement", "UnitTimelikeVector", "UnitSphereVector")

    @pytest.mark.parametrize("name", VALIDATED)
    def test_each_class_validates_through_its_own_post_init(self, name):
        cls = getattr(al, name)
        assert "__post_init__" in vars(cls)
        bad = {"AdsGroupElement": np.full((2, 2), np.nan),
               "SphereGroupElement": np.full((2, 2), np.nan),
               "AdsAlgebraElement": [0.0, math.inf, 0.0],
               "SphereAlgebraElement": [0.0, 0.0],
               "UnitTimelikeVector": math.nan,
               "UnitSphereVector": math.inf}[name]
        with pytest.raises(al.ValidationError):
            cls(bad)

    def test_composition_rejects_mixed_sectors(self):
        with pytest.raises(al.SectorMismatchError):
            al.AdsGroupElement.identity() @ al.SphereGroupElement.identity()
        with pytest.raises(al.SectorMismatchError):
            al.adjoint(al.SphereGroupElement.identity(), T1)

    def test_identity_and_inverse_keep_the_sector(self):
        for cls, v in ((al.AdsGroupElement, T1), (al.SphereGroupElement, S2)):
            g = al.exp_algebra(v, 0.7)
            assert type(g) is cls and type(g.inverse()) is cls
            assert np.max(np.abs((g @ g.inverse()).matrix - cls.identity().matrix)) <= 1e-15

    def test_reference_axes(self):
        assert np.array_equal(al.UnitTimelikeVector.reference().coeffs, [1.0, 0.0, 0.0])
        assert np.array_equal(al.UnitSphereVector.reference().coeffs, [0.0, 0.0, 1.0])
        assert np.array_equal(al.UnitTimelikeVector().matrix, al.T0)
        assert np.array_equal(al.UnitSphereVector().matrix, al.S3)

    def test_square_sign_matches_inner_product_sign(self):
        # <v v> = sign tr(v v)/2 and v v = sign <v v> I in both sectors
        rng = np.random.default_rng(21)
        for cls in (al.AdsAlgebraElement, al.SphereAlgebraElement):
            v = cls(rng.normal(size=3))
            square = v.matrix @ v.matrix
            assert abs(al.inner(v, v) - cls.sign * 0.5 * np.trace(square).real) <= 1e-12
            assert np.max(np.abs(square - cls.sign * al.inner(v, v) * np.eye(2))) <= 1e-12


def trace_projection(m):
    """The su(2) coefficients by the trace rule v_k = -tr(s_k m)/2."""
    return np.array([-0.5 * np.trace(al.S_BASIS[k] @ m) for k in range(3)])


# bounded so that no sum of two entries overflows; signed zeros are drawn on their own
_FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
_COMPLEX = st.builds(complex, _FINITE, _FINITE)
_COEFF = st.one_of(st.sampled_from([0.0, -0.0]), _FINITE)


class TestSphereProjection:
    """SphereAlgebraElement._project in closed form against the trace rule."""

    @given(st.lists(_COMPLEX, min_size=4, max_size=4))
    def test_equals_trace_rule_in_value(self, entries):
        m = np.array(entries).reshape(2, 2)
        assert np.array_equal(al.SphereAlgebraElement._project(m), trace_projection(m))

    @given(st.lists(_COEFF, min_size=3, max_size=3))
    def test_equals_trace_rule_bit_for_bit_on_su2(self, coeffs):
        # the real part carries the coefficients, and charges print the sign of their zeros
        m = al.SphereAlgebraElement._matrix(np.array(coeffs))
        got, want = al.SphereAlgebraElement._project(m), trace_projection(m)
        assert got.real.tobytes() == want.real.tobytes()
        assert np.array_equal(got.imag, want.imag)


class TestInternalResultsAreProjected:
    """Validation happens at the boundary: the library's own results are projected onto the
    basis or rebuilt through an angle chart, never passed back through a converter that
    re-checks them against an absolute tolerance."""

    CHECKED_CONVERTERS = {"from_coeffs", "from_matrix", "_coeffs_from_matrix"}

    def test_no_module_uses_a_checked_converter(self):
        uses = []
        for path in sorted(Path(al.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = getattr(node, "attr", None) if isinstance(node, ast.Attribute) else (
                    getattr(node, "id", None))
                if name in self.CHECKED_CONVERTERS:
                    uses.append(f"{path.name}:{node.lineno} {name}")
        assert uses == []

    def test_matrix_converters_are_gone(self):
        for cls in (al.AdsAlgebraElement, al.SphereAlgebraElement):
            assert not hasattr(cls, "from_matrix") and not hasattr(cls, "_coeffs_from_matrix")
