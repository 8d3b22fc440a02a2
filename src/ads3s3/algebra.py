"""2x2 matrix algebra for the two target-space sectors.

The AdS3 sector is the SL(2,R) group manifold with Lie algebra sl(2,R),
the sphere sector is SU(2) with su(2).  Basis conventions:

    t0 = [[0,1],[-1,0]]   t1 = [[0,1],[1,0]]   t2 = [[1,0],[0,-1]]
    s_n = i * sigma_n     (sigma_n the Pauli matrices)

so that t_mu t_nu = eta_{mu nu} I + eps_{mu nu}^rho t_rho with
eta = diag(-1,1,1), eps_{012} = 1, and s_m s_n = -delta_{mn} I - eps_{mnl} s_l.
Inner products: <u v> = tr(uv)/2 on sl(2,R), <u v> = -tr(uv)/2 on su(2);
these identify the algebras with 3d Minkowski space and R^3 respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class AdsGroupElement:
    """SL(2,R) element, i.e. a point of AdS3."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
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
        return cls(np.eye(2))

    @classmethod
    def from_embedding(cls, y):
        """Build g from embedding coordinates (Y0', Y0, Y1, Y2) with Y.Y = -1."""
        y = np.asarray(y, dtype=float)
        if abs(ads_dot(y, y) + 1.0) > VALIDATION_TOL:
            raise ValidationError("embedding vector does not satisfy Y.Y = -1")
        y0p, y0, y1, y2 = y
        return cls(np.array([[y0p + y2, y1 + y0], [y1 - y0, y0p - y2]]))

    @property
    def embedding(self):
        """Embedding coordinates (Y0', Y0, Y1, Y2)."""
        m = self.matrix
        return np.array([
            0.5 * (m[0, 0] + m[1, 1]),
            0.5 * (m[0, 1] - m[1, 0]),
            0.5 * (m[0, 1] + m[1, 0]),
            0.5 * (m[0, 0] - m[1, 1]),
        ])

    def inverse(self):
        m = self.matrix
        return AdsGroupElement(np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]))

    def __matmul__(self, other):
        if not isinstance(other, AdsGroupElement):
            raise SectorMismatchError("can only compose AdS group elements")
        return AdsGroupElement(self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class SphereGroupElement:
    """SU(2) element, i.e. a point of S3."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_finite(m, "group element")
        if m.shape != (2, 2):
            raise ValidationError("expected a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det - 1.0) > VALIDATION_TOL:
            raise ValidationError(f"determinant {det} is not 1 within {VALIDATION_TOL}")
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > VALIDATION_TOL:
            raise ValidationError("matrix is not unitary within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls):
        return cls(np.eye(2, dtype=complex))

    @classmethod
    def from_embedding(cls, x):
        """Build h from embedding coordinates (X1, X2, X3, X4) with X.X = 1."""
        x = np.asarray(x, dtype=float)
        if abs(x @ x - 1.0) > VALIDATION_TOL:
            raise ValidationError("embedding vector does not satisfy X.X = 1")
        x1, x2, x3, x4 = x
        return cls(np.array([[x4 + 1j * x3, x2 + 1j * x1],
                             [-x2 + 1j * x1, x4 - 1j * x3]]))

    @property
    def embedding(self):
        """Embedding coordinates (X1, X2, X3, X4)."""
        m = self.matrix
        return np.array([m[0, 1].imag, m[0, 1].real, m[0, 0].imag, m[0, 0].real])

    def inverse(self):
        m = self.matrix
        return SphereGroupElement(np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]))

    def __matmul__(self, other):
        if not isinstance(other, SphereGroupElement):
            raise SectorMismatchError("can only compose sphere group elements")
        return SphereGroupElement(self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class AdsAlgebraElement:
    """sl(2,R) element v = v0 t0 + v1 t1 + v2 t2, stored by coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        _check_finite(c, "algebra coefficients")
        if c.shape != (3,):
            raise ValidationError("expected 3 basis coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=float)
        if abs(m[0, 0] + m[1, 1]) > VALIDATION_TOL:
            raise ValidationError("sl(2,R) element must be traceless")
        # project with v^0 = -<t0 m>, v^1 = <t1 m>, v^2 = <t2 m>
        return cls(np.array([0.5 * (m[0, 1] - m[1, 0]),
                             0.5 * (m[0, 1] + m[1, 0]),
                             0.5 * (m[0, 0] - m[1, 1])]))

    @property
    def matrix(self):
        return np.einsum("i,ijk->jk", self.coeffs, T_BASIS)

    def __add__(self, other):
        return AdsAlgebraElement(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return AdsAlgebraElement(self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return AdsAlgebraElement(float(scalar) * self.coeffs)

    def __neg__(self):
        return AdsAlgebraElement(-self.coeffs)


@dataclass(frozen=True, eq=False)
class SphereAlgebraElement:
    """su(2) element v = v1 s1 + v2 s2 + v3 s3 with real coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        _check_finite(c, "algebra coefficients")
        if c.shape != (3,):
            raise ValidationError("expected 3 basis coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=complex)
        # v_m = <s_m v> = -tr(s_m v)/2; anti-hermiticity keeps these real
        coeffs = np.array([-0.5 * np.trace(S_BASIS[i] @ m) for i in range(3)])
        if np.max(np.abs(coeffs.imag)) > VALIDATION_TOL:
            raise ValidationError("matrix is not in su(2)")
        return cls(coeffs.real)

    @property
    def matrix(self):
        return np.einsum("i,ijk->jk", self.coeffs, S_BASIS)

    def __add__(self, other):
        return SphereAlgebraElement(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return SphereAlgebraElement(self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return SphereAlgebraElement(float(scalar) * self.coeffs)

    def __neg__(self):
        return SphereAlgebraElement(-self.coeffs)


def ads_basis():
    return tuple(AdsAlgebraElement(np.eye(3)[i]) for i in range(3))


def sphere_basis():
    return tuple(SphereAlgebraElement(np.eye(3)[i]) for i in range(3))


def ads_dot(y1, y2):
    """R^{2,2} inner product of embedding vectors ordered (Y0', Y0, Y1, Y2)."""
    return -y1[..., 0] * y2[..., 0] - y1[..., 1] * y2[..., 1] \
        + y1[..., 2] * y2[..., 2] + y1[..., 3] * y2[..., 3]


def _same_sector(u, v):
    if isinstance(u, AdsAlgebraElement) and isinstance(v, AdsAlgebraElement):
        return "ads"
    if isinstance(u, SphereAlgebraElement) and isinstance(v, SphereAlgebraElement):
        return "sphere"
    raise SectorMismatchError(
        f"mixed sectors: {type(u).__name__} with {type(v).__name__}")


def inner(u, v):
    """Invariant inner product; Minkowski on sl(2,R), Euclidean on su(2)."""
    if _same_sector(u, v) == "ads":
        return float(u.coeffs @ (ETA @ v.coeffs))
    return float(u.coeffs @ v.coeffs)


def commutator(u, v):
    """Lie bracket [u, v], evaluated on the 2x2 matrices."""
    sector = _same_sector(u, v)
    m = u.matrix @ v.matrix - v.matrix @ u.matrix
    if sector == "ads":
        return AdsAlgebraElement.from_matrix(m)
    return SphereAlgebraElement.from_matrix(m)


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

    Uses the closed form following from v^2 = <v,v> I: elliptic for
    timelike sl(2,R) directions and all of su(2), hyperbolic for spacelike
    directions, with a series expansion near the parabolic boundary.
    """
    if not math.isfinite(theta):
        raise ValidationError("non-finite exponent")
    if isinstance(v, AdsAlgebraElement):
        # v^2 = <v,v> I on sl(2,R)
        c, s = _cosh_sinh_like(theta * theta * inner(v, v))
        return AdsGroupElement(c * np.eye(2) + (s * theta) * v.matrix)
    # v^2 = -<v,v> I on su(2): always elliptic
    c, s = _cosh_sinh_like(-theta * theta * inner(v, v))
    return SphereGroupElement(c * np.eye(2, dtype=complex) + (s * theta) * v.matrix)


def to_embedding(g):
    """Embedding coordinates of a group element (either sector)."""
    if isinstance(g, (AdsGroupElement, SphereGroupElement)):
        return g.embedding
    raise SectorMismatchError(f"not a group element: {type(g).__name__}")


def adjoint(g, v):
    """Adjoint action Ad_g v = g v g^{-1}; preserves the inner product."""
    if isinstance(g, AdsGroupElement) and isinstance(v, AdsAlgebraElement):
        return AdsAlgebraElement.from_matrix(g.matrix @ v.matrix @ g.inverse().matrix)
    if isinstance(g, SphereGroupElement) and isinstance(v, SphereAlgebraElement):
        return SphereAlgebraElement.from_matrix(g.matrix @ v.matrix @ g.inverse().matrix)
    raise SectorMismatchError(
        f"mixed sectors: {type(g).__name__} acting on {type(v).__name__}")


def normalized_commutator(lhat, rhat):
    """Normalized commutator n = [l, r] / (2 sinh 2g) and the separation g.

    For unit timelike sl(2,R) vectors: cosh 2g = -<l r>, n is unit spacelike,
    anticommutes with r and exp(-2g n) r = l.  For unit su(2) vectors:
    cos 2g = <l r> with the same boost/rotation role.  Raises on (anti)parallel
    input where the commutator direction is undefined.
    """
    sector = _same_sector(lhat, rhat)
    ip = inner(lhat, rhat)
    if sector == "ads":
        c2g = -ip
        if c2g <= 1.0 + 1e-14:
            raise DegenerateConfigurationError(
                f"parallel timelike vectors (cosh 2gamma = {c2g})")
        gamma = 0.5 * math.acosh(c2g)
        s2g = math.sqrt(c2g * c2g - 1.0)
    else:
        if abs(ip) >= 1.0 - 1e-14:
            raise DegenerateConfigurationError(
                f"(anti)parallel sphere vectors (cos 2gamma = {ip})")
        gamma = 0.5 * math.acos(ip)
        s2g = math.sqrt(1.0 - ip * ip)
    nhat = (1.0 / (2.0 * s2g)) * commutator(lhat, rhat)
    return nhat, gamma


def boost(alpha, nhat, rhat):
    """One-parameter boost/rotation exp(-alpha n) r exp(alpha n).

    With (n, gamma) from normalized_commutator(l, r) this interpolates
    r (alpha = 0) through l (alpha = gamma) along the orbit in the l-r plane.
    """
    e = exp_algebra(nhat, -alpha)
    m = e.matrix @ rhat.matrix @ e.inverse().matrix
    if isinstance(rhat, AdsAlgebraElement):
        return AdsAlgebraElement.from_matrix(m)
    return SphereAlgebraElement.from_matrix(m)


@dataclass(frozen=True)
class UnitTimelikeVector:
    """Future-directed unit timelike sl(2,R) vector, exactly normalized.

    l = cosh(psi) t0 + sinh(psi) (cos(phi) t1 + sin(phi) t2), <l,l> = -1.
    """

    rapidity: float = 0.0
    angle: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rapidity) and math.isfinite(self.angle)):
            raise ValidationError("non-finite chart parameters")

    @classmethod
    def from_coeffs(cls, coeffs):
        c = np.asarray(coeffs, dtype=float)
        norm = -c[0] ** 2 + c[1] ** 2 + c[2] ** 2
        if abs(norm + 1.0) > VALIDATION_TOL:
            raise ValidationError(f"<v,v> = {norm}, expected -1")
        if c[0] <= 0.0:
            raise ValidationError("past-directed vector (t0 coefficient not positive)")
        return cls(math.acosh(max(c[0], 1.0)), math.atan2(c[2], c[1]))

    @property
    def coeffs(self):
        ch, sh = math.cosh(self.rapidity), math.sinh(self.rapidity)
        return np.array([ch, sh * math.cos(self.angle), sh * math.sin(self.angle)])

    @property
    def element(self):
        return AdsAlgebraElement(self.coeffs)

    @property
    def matrix(self):
        return self.element.matrix


@dataclass(frozen=True)
class UnitSphereVector:
    """Unit su(2) vector s = cos(polar) s3 + sin(polar)(cos(az) s1 + sin(az) s2)."""

    polar: float = 0.0
    azimuth: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.polar) and math.isfinite(self.azimuth)):
            raise ValidationError("non-finite chart parameters")

    @classmethod
    def from_coeffs(cls, coeffs):
        c = np.asarray(coeffs, dtype=float)
        norm = float(c @ c)
        if abs(norm - 1.0) > VALIDATION_TOL:
            raise ValidationError(f"<v,v> = {norm}, expected +1")
        return cls(math.acos(min(1.0, max(-1.0, c[2]))), math.atan2(c[1], c[0]))

    @property
    def coeffs(self):
        sp = math.sin(self.polar)
        return np.array([sp * math.cos(self.azimuth),
                         sp * math.sin(self.azimuth),
                         math.cos(self.polar)])

    @property
    def element(self):
        return SphereAlgebraElement(self.coeffs)

    @property
    def matrix(self):
        return self.element.matrix


def aligning_rotation(vhat):
    """Group element A with A e A^{-1} = vhat, e = t0 (timelike) or s3 (sphere).

    A = (I - vhat e) / sqrt(2 (1 + c)), c the t0 or s3 coefficient of vhat,
    is the minimal boost or rotation from e to vhat: (I - v e) e = v (I - v e)
    and det(I - v e) = 2 (1 + c).  It is the identity at vhat = e and keeps
    1 + c >= 2 on the hyperboloid.  Where the sphere quotient would divide by
    less than 1 (c < -1/2), the same rotation is built from the chart angles,
    A = exp(polar/2 (sin az s1 - cos az s2)), which stays defined at the
    antipode polar = pi.
    """
    if isinstance(vhat, UnitTimelikeVector):
        c0 = vhat.coeffs[0]
        return AdsGroupElement((np.eye(2) - vhat.matrix @ T0) / math.sqrt(2.0 * (1.0 + c0)))
    c3 = vhat.coeffs[2]
    if c3 >= -0.5:
        return SphereGroupElement((np.eye(2) - vhat.matrix @ S3) / math.sqrt(2.0 * (1.0 + c3)))
    phi = vhat.azimuth
    axis = SphereAlgebraElement(np.array([math.sin(phi), -math.cos(phi), 0.0]))
    return exp_algebra(axis, 0.5 * vhat.polar)
