"""2x2 matrix algebra for the two target-space sectors.

The AdS3 sector is the SL(2,R) group manifold with Lie algebra sl(2,R),
the sphere sector is SU(2) with su(2).  Basis conventions:

    t0 = [[0,1],[-1,0]]   t1 = [[0,1],[1,0]]   t2 = [[1,0],[0,-1]]
    s_n = i * sigma_n     (sigma_n the Pauli matrices)

so that t_mu t_nu = eta_{mu nu} I + eps_{mu nu}^rho t_rho with
eta = diag(-1,1,1), eps_{012} = 1, and s_m s_n = -delta_{mn} I - eps_{mnl} s_l.
Inner products: <u v> = sign * tr(uv)/2 with sign +1 on sl(2,R) and -1 on
su(2); these identify the algebras with 3d Minkowski space and R^3.

Each kind of object has one implementation shared by the sectors: a
group element (_GroupElement), an algebra element (_AlgebraElement) and a
unit direction (_UnitVector).  The public classes hold only what differs:
dtype, basis, sign, reference axis, embedding chart and the unitarity
check of SU(2).  The free functions read those class attributes, so they
branch on the sector only where the geometry differs: the Minkowski
metric and acosh of sl(2,R) against the Euclidean metric and acos of
su(2), and the sphere antipode in aligning_rotation.

Validation happens at the boundary: the classes check their data, and
normalized_commutator and the unit-vector charts wrap raw kernels on
coefficient and 2x2 arrays (an algebra class tags the sector), which
internal hot paths such as the string chart call directly.  The library's own results are
projected or rebuilt through exact angle charts, never re-checked, as from_coeffs checks input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

VALIDATION_TOL = 1e-10

T0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
T1 = np.array([[0.0, 1.0], [1.0, 0.0]])
T2 = np.array([[1.0, 0.0], [0.0, -1.0]])
T_BASIS = np.stack([T0, T1, T2])

S1 = np.array([[0.0, 1.0j], [1.0j, 0.0]])
S2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
S3 = np.array([[1.0j, 0.0], [0.0, -1.0j]])
S_BASIS = np.stack([S1, S2, S3])

ETA = np.diag([-1.0, 1.0, 1.0])

# Levi-Civita with all indices down, eps[0,1,2] = +1.
EPS = np.zeros((3, 3, 3))
for _p, _s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
    EPS[_p] = _s

# eps_{mu nu}^rho = eps_{mu nu sigma} eta^{sigma rho} (eta is its own inverse)
EPS_MIXED = np.einsum("mns,sr->mnr", EPS, ETA)


class ValidationError(ValueError):
    """Input data violates a constructor invariant."""


class SectorMismatchError(TypeError):
    """Operands live in different sectors (AdS vs sphere)."""


class DegenerateConfigurationError(ValueError):
    """Configuration is geometrically degenerate for the requested operation."""


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")


def _check_finite_fields(obj, names, kind=""):
    """Reject the first of these scalar fields of obj that is not finite, by name."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValidationError(f"{kind}{name} = {value!r} is not finite")


def _adjugate(m):
    """Inverse of a det-1 2x2 matrix, or of a stack of them, via the adjugate."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


@dataclass(frozen=True, eq=False)
class _GroupElement:
    """Validated 2x2 matrix of determinant 1; subclasses fix dtype and charts."""

    matrix: np.ndarray

    def _validate(self):
        m = np.asarray(self.matrix, dtype=self._dtype)
        _check_finite(m, "group element")
        if m.shape != (2, 2):
            raise ValidationError("expected a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det - 1.0) > VALIDATION_TOL:
            raise ValidationError(f"determinant {det} is not 1 within {VALIDATION_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls):
        return cls(np.eye(2, dtype=cls._dtype))

    @property
    def embedding(self):
        return self.embed(self.matrix)

    def inverse(self):
        return type(self)(_adjugate(self.matrix))

    def __matmul__(self, other):
        if not isinstance(other, type(self)):
            raise SectorMismatchError(
                f"mixed sectors: {type(self).__name__} @ {type(other).__name__}")
        return type(self)(self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class AdsGroupElement(_GroupElement):
    """SL(2,R) element, i.e. a point of AdS3."""

    _dtype = float
    __post_init__ = _GroupElement._validate

    @staticmethod
    def embed(m):
        """Embedding coordinates (Y0', Y0, Y1, Y2) of a matrix or a stack of them."""
        return np.stack([
            0.5 * (m[..., 0, 0] + m[..., 1, 1]),
            0.5 * (m[..., 0, 1] - m[..., 1, 0]),
            0.5 * (m[..., 0, 1] + m[..., 1, 0]),
            0.5 * (m[..., 0, 0] - m[..., 1, 1]),
        ], axis=-1)


@dataclass(frozen=True, eq=False)
class SphereGroupElement(_GroupElement):
    """SU(2) element, i.e. a point of S3."""

    _dtype = complex

    def __post_init__(self):
        self._validate()
        m = self.matrix
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > VALIDATION_TOL:
            raise ValidationError("matrix is not unitary within tolerance")

    @staticmethod
    def embed(m):
        """Embedding coordinates (X1, X2, X3, X4) of a matrix or a stack of them."""
        return np.stack([m[..., 0, 1].imag, m[..., 0, 1].real,
                         m[..., 0, 0].imag, m[..., 0, 0].real], axis=-1)


@dataclass(frozen=True, eq=False)
class _AlgebraElement:
    """Algebra element stored by its three real basis coefficients.

    Subclasses fix the basis, the group they exponentiate into and the sign
    with <u v> = sign * tr(uv)/2, which also gives v v = sign <v, v> I.
    """

    coeffs: np.ndarray

    def _validate(self):
        c = np.asarray(self.coeffs, dtype=float)
        _check_finite(c, "algebra coefficients")
        if c.shape != (3,):
            raise ValidationError("expected 3 basis coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _matrix(cls, coeffs):
        """Raw 2x2 array of the element with these basis coefficients, or a stack of them."""
        return np.einsum("...i,ijk->...jk", coeffs, cls._basis)

    @property
    def matrix(self):
        return self._matrix(self.coeffs)

    def __rmul__(self, scalar):
        return type(self)(float(scalar) * self.coeffs)


@dataclass(frozen=True, eq=False)
class AdsAlgebraElement(_AlgebraElement):
    """sl(2,R) element v = v0 t0 + v1 t1 + v2 t2, stored by coefficients."""

    _basis = T_BASIS
    _group = AdsGroupElement
    sign = 1.0
    __post_init__ = _AlgebraElement._validate

    @staticmethod
    def _project(m):
        # v^0 = -<t0 m>, v^1 = <t1 m>, v^2 = <t2 m>
        return 0.5 * np.array([m[0, 1] - m[1, 0], m[0, 1] + m[1, 0], m[0, 0] - m[1, 1]])


@dataclass(frozen=True, eq=False)
class SphereAlgebraElement(_AlgebraElement):
    """su(2) element v = v1 s1 + v2 s2 + v3 s3 with real coefficients."""

    _basis = S_BASIS
    _group = SphereGroupElement
    sign = -1.0
    __post_init__ = _AlgebraElement._validate

    @staticmethod
    def _project(m):
        # v_m = <s_m v> = -tr(s_m v)/2, which anti-hermiticity keeps real; the factors of 1j
        # inside the brackets give the same sign of zero in the real part as the trace
        return -0.5 * np.array([1j * (m[1, 0] + m[0, 1]), m[1, 0] - m[0, 1],
                                1j * (m[0, 0] - m[1, 1])])


# the sectors in the order (AdS, sphere) used by every per-sector tuple, and
# their signs of <A B> = sign * tr(AB)/2
SECTOR_ALGEBRAS = (AdsAlgebraElement, SphereAlgebraElement)
SECTOR_SIGNS = tuple(cls.sign for cls in SECTOR_ALGEBRAS)


def ads_basis():
    return tuple(AdsAlgebraElement(np.eye(3)[i]) for i in range(3))


def sphere_basis():
    return tuple(SphereAlgebraElement(np.eye(3)[i]) for i in range(3))


def ads_dot(y1, y2):
    """R^{2,2} inner product of embedding vectors ordered (Y0', Y0, Y1, Y2)."""
    return -y1[..., 0] * y2[..., 0] - y1[..., 1] * y2[..., 1] \
        + y1[..., 2] * y2[..., 2] + y1[..., 3] * y2[..., 3]


def _same_sector(u, v):
    """The common algebra class of u and v."""
    if isinstance(u, _AlgebraElement) and type(v) is type(u):
        return type(u)
    raise SectorMismatchError(
        f"mixed sectors: {type(u).__name__} with {type(v).__name__}")


def _dot(algebra, u, v):
    """<u v> of raw coefficient arrays in the sector of `algebra`."""
    return float(u @ (ETA @ v)) if algebra is AdsAlgebraElement else float(u @ v)


def inner(u, v):
    """Invariant inner product; Minkowski on sl(2,R), Euclidean on su(2)."""
    return _dot(_same_sector(u, v), u.coeffs, v.coeffs)


def _cosh_sinh_like(q):
    """c, s with exp(v) = c I + s v for v*v = q*I (series near the null cone)."""
    if q > 1e-10:
        w = math.sqrt(q)
        return math.cosh(w), math.sinh(w) / w
    if q < -1e-10:
        w = math.sqrt(-q)
        return math.cos(w), math.sin(w) / w
    # |q| <= 1e-10: truncation error below 1e-32
    return 1.0 + q / 2.0 + q * q / 24.0, 1.0 + q / 6.0 + q * q / 120.0


def exp_algebra(v, theta=1.0):
    """Group exponential exp(theta * v).

    Uses the closed form following from v^2 = sign <v,v> I: elliptic for
    timelike sl(2,R) directions and all of su(2), hyperbolic for spacelike
    directions, with a series expansion near the parabolic boundary.
    """
    if not math.isfinite(theta):
        raise ValidationError("non-finite exponent")
    c, s = _cosh_sinh_like(v.sign * theta * theta * _dot(type(v), v.coeffs, v.coeffs))
    return v._group(c * np.eye(2, dtype=v._group._dtype) + (s * theta) * v.matrix)


def to_embedding(g):
    """Embedding coordinates of a group element (either sector)."""
    if isinstance(g, _GroupElement):
        return g.embedding
    raise SectorMismatchError(f"not a group element: {type(g).__name__}")


def adjoint(g, v):
    """Adjoint action Ad_g v = g v g^{-1}; preserves the inner product."""
    if not (isinstance(v, _AlgebraElement) and isinstance(g, v._group)):
        raise SectorMismatchError(
            f"mixed sectors: {type(g).__name__} acting on {type(v).__name__}")
    return type(v)(v._project(g.matrix @ v.matrix @ _adjugate(g.matrix)).real)


def normalized_commutator(lhat, rhat):
    """Normalized commutator n = [l, r] / (2 sinh 2g) and the separation g.

    For unit timelike sl(2,R) vectors: cosh 2g = -<l r>, n is unit spacelike,
    anticommutes with r and exp(-2g n) r = l.  For unit su(2) vectors:
    cos 2g = <l r> with the same boost/rotation role.  Raises on (anti)parallel
    input where the commutator direction is undefined.
    """
    algebra = _same_sector(lhat, rhat)
    coeffs, gamma, *_ = _normalized_commutator(algebra, lhat.coeffs, rhat.coeffs)
    return algebra(coeffs), gamma


def _normalized_commutator(algebra, l, r):
    """Raw normalized_commutator: the coefficients of n, gamma, s = sinh or sin 2gamma and k.

    Near-(anti)parallel input keeps its digits: with k = +-1 picking the nearer of +-r,
    [l, r] = k [l - k r, l] and s^2 = |<l - r, l - r> <l + r, l + r>| / 4 are formed from
    differences, which float subtraction keeps exact, rather than from <l, r>^2 - 1.
    """
    ip = _dot(algebra, l, r)
    if algebra is AdsAlgebraElement:
        if -ip <= 1.0 + 1e-14:
            raise DegenerateConfigurationError(
                f"parallel timelike vectors (cosh 2gamma = {-ip})")
    elif abs(ip) >= 1.0 - 1e-14:
        raise DegenerateConfigurationError(
            f"(anti)parallel sphere vectors (cos 2gamma = {ip})")
    k = 1.0 if algebra.sign * ip < 0.0 else -1.0
    s2g = 0.5 * math.sqrt(abs(_dot(algebra, l - r, l - r) * _dot(algebra, l + r, l + r)))
    gamma = 0.5 * (math.asinh(s2g) if algebra is AdsAlgebraElement else math.atan2(s2g, ip))
    wm, lm = algebra._matrix(l - k * r), algebra._matrix(l)
    return (k / (2.0 * s2g)) * algebra._project(wm @ lm - lm @ wm).real, gamma, s2g, k


def boost(alpha, nhat, rhat):
    """One-parameter boost/rotation exp(-alpha n) r exp(alpha n).

    With (n, gamma) from normalized_commutator(l, r) this interpolates
    r (alpha = 0) through l (alpha = gamma) along the orbit in the l-r plane.
    """
    return adjoint(exp_algebra(nhat, -alpha), rhat)


class _UnitVector:
    """Exactly normalized unit direction in a two-angle chart.

    Subclasses are dataclasses of the two angles; they fix the algebra and
    the reference axis e = basis[_axis] the chart is centred on.
    """

    def _validate(self):
        _check_finite_fields(self, [f.name for f in fields(self)])
        try:
            self.coeffs  # cosh overflows from |rapidity| ~ 710 on
        except OverflowError as exc:
            raise ValidationError(f"chart parameters overflow: {exc}") from None

    @classmethod
    def from_coeffs(cls, coeffs):
        """The direction with these coefficients: <v,v> = -sign, future-directed on sl(2,R)."""
        c = np.asarray(coeffs, dtype=float)
        norm = _dot(cls._algebra, c, c)
        if abs(norm + cls._algebra.sign) > VALIDATION_TOL:
            raise ValidationError(f"<v,v> = {norm}, expected {-cls._algebra.sign:+g}")
        if cls._algebra is AdsAlgebraElement and c[0] <= 0.0:
            raise ValidationError("past-directed vector (t0 coefficient not positive)")
        return cls(*cls._to_angles(c))

    @classmethod
    def reference(cls):
        """The reference axis e as an algebra element."""
        return cls._algebra(np.eye(3)[cls._axis])

    @property
    def element(self):
        return self._algebra(self.coeffs)

    @property
    def matrix(self):
        return self._algebra._matrix(self.coeffs)


@dataclass(frozen=True)
class UnitTimelikeVector(_UnitVector):
    """Future-directed unit timelike sl(2,R) vector, exactly normalized.

    l = cosh(psi) t0 + sinh(psi) (cos(phi) t1 + sin(phi) t2), <l,l> = -1.
    """

    rapidity: float = 0.0
    angle: float = 0.0

    _algebra = AdsAlgebraElement
    _axis = 0
    __post_init__ = _UnitVector._validate

    @staticmethod
    def _to_angles(c):
        return math.asinh(math.hypot(c[1], c[2])), math.atan2(c[2], c[1])

    @staticmethod
    def _to_coeffs(rapidity, angle):
        ch, sh = math.cosh(rapidity), math.sinh(rapidity)
        return np.array([ch, sh * math.cos(angle), sh * math.sin(angle)])

    coeffs = property(lambda self: self._to_coeffs(self.rapidity, self.angle))


@dataclass(frozen=True)
class UnitSphereVector(_UnitVector):
    """Unit su(2) vector s = cos(polar) s3 + sin(polar)(cos(az) s1 + sin(az) s2)."""

    polar: float = 0.0
    azimuth: float = 0.0

    _algebra = SphereAlgebraElement
    _axis = 2
    __post_init__ = _UnitVector._validate

    @staticmethod
    def _to_angles(c):
        return math.atan2(math.hypot(c[0], c[1]), c[2]), math.atan2(c[1], c[0])

    @staticmethod
    def _to_coeffs(polar, azimuth):
        sp = math.sin(polar)
        return np.array([sp * math.cos(azimuth), sp * math.sin(azimuth), math.cos(polar)])

    coeffs = property(lambda self: self._to_coeffs(self.polar, self.azimuth))


def aligning_rotation(vhat):
    """Group element A with A e A^{-1} = vhat, e = t0 (timelike) or s3 (sphere).

    A = (I - vhat e) / sqrt(2 (1 + c)), c the e coefficient of vhat, is the
    minimal boost or rotation from e to vhat: (I - v e) e = v (I - v e) and
    det(I - v e) = 2 (1 + c).  It is the identity at vhat = e and keeps
    1 + c >= 2 on the hyperboloid.  Where the sphere quotient would divide by
    less than 1 (c < -1/2), the same rotation is built from the chart angles,
    A = exp(polar/2 (sin az s1 - cos az s2)), which stays defined at the
    antipode polar = pi.
    """
    algebra, axis = vhat._algebra, vhat._axis
    c = vhat.coeffs[axis]
    if c < -0.5:  # sphere only: a future timelike t0 coefficient is >= 1
        phi = vhat.azimuth
        tilt = SphereAlgebraElement(np.array([math.sin(phi), -math.cos(phi), 0.0]))
        return exp_algebra(tilt, 0.5 * vhat.polar)
    return algebra._group((np.eye(2) - vhat.matrix @ algebra._basis[axis])
                          / math.sqrt(2.0 * (1.0 + c)))
