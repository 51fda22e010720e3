"""Single-photon focusing by a paraboloidal mirror.

The mirror surface is z = (x^2 + y^2) / (4 f).  A point source sits on the
axis at distance z1 from the vertex; the detection plane sits at z2 on the
other side, with 1/z1 + 1/z2 = 1/f.  Summing the phase e^{2 pi i L / lambda}
over mirror points inside the aperture gives the focal-plane amplitude.  In
the paraxial regime the integral over a circular aperture of radius R is the
classic Airy pattern

    A(u) = 2 pi R^2 J1(u) / u,   u = 2 pi R rho2 / (lambda z2),

with A(0) = pi R^2 (the aperture area).  Keeping the next order in the path
expansion adds the spherical-aberration phase 2 pi rho^4 / (32 lambda f^3).

The source and the detector enter the phase through one term linear in the
mirror point, and every other term, the aberration included, depends on it
only through rho.  So for any source position the angular integral is J0 in
closed form, and the quadrature is one radial integral in the detector's
distance from the geometric image point, evaluated for all radii at once.

Bessel J0 and J1 are evaluated in-house: an ascending power series up to
|x| = 12 and the large-argument asymptotic (Hankel) expansion beyond, good
to about 1e-10 absolute over the real line.  Arrays are summed in place, never
in the argument's buffer, by a float's operations in its order, so bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "MirrorGeometry",
    "FieldSample",
    "image_distance",
    "geometric_image_point",
    "exact_path_length",
    "paraxial_path_length",
    "aberration_phase",
    "aberration_phase_max",
    "bessel_j0",
    "bessel_j1",
    "AIRY_FIRST_ZERO",
    "airy_amplitude_closed",
    "airy_first_zero_radius",
    "focal_amplitude_quadrature",
    "airy_profile",
]

# First positive zero of J1, to double precision.
AIRY_FIRST_ZERO = 3.831705970207512

_SERIES_CUTOFF = 12.0
# Fixed, whatever |x| is: stopping early changes low bits, and the profile path
# would drop the series for J0 moments of its radial factor (ROADMAP) anyway.
_SERIES_TERMS = 40
_ASYMPTOTIC_TERMS = 12
# Most points in one J0 argument array of the radial quadrature, which bounds
# its peak memory whatever the number of detector radii.
_MAX_GRID_POINTS = 256 * 256


def _bessel_series(x, nu: int):
    """Ascending series sum_m (-1)^m (x/2)^{2m+nu} / (m! (m+nu)!), of a
    float, or of an array in place (never in x) by the float loop's
    operations in its order, so the two agree bit for bit."""
    q = 0.25 * x * x
    term = 0.0 * x + 1.0 if nu == 0 else 0.5 * x
    total = term * 1.0  # a copy, which += then updates in place
    if isinstance(x, float):
        for m in range(1, _SERIES_TERMS):
            term = term * (-q) / (m * (m + nu))
            total += term
        return total
    negq = np.negative(q, out=q)
    for m in range(1, _SERIES_TERMS):
        term *= negq
        term /= m * (m + nu)
        total += term
    return total


def _bessel_asymptotic(ax, nu: int, xp):
    """Hankel expansion at ax = |x| >= 12, of a float (``xp`` is ``math``)
    or elementwise of an array (``xp`` is numpy).  The caller restores the
    sign of J1 at negative x."""
    mu = 4.0 * nu * nu
    inv8x = 1.0 / (8.0 * ax)
    # P ~ sum of even terms, Q ~ sum of odd terms of the a_k sequence
    p, q, term, sign = 1.0, 0.0, 1.0, 1.0
    for k in range(1, 2 * _ASYMPTOTIC_TERMS):
        term = term * (mu - (2 * k - 1) ** 2) * inv8x / k
        if k % 2 == 1:
            q += sign * term
        else:
            p += -sign * term
            sign = -sign
    chi = ax - (0.5 * nu + 0.25) * math.pi
    return xp.sqrt(2.0 / (math.pi * ax)) * (xp.cos(chi) * p - xp.sin(chi) * q)


def _bessel(x, nu: int):
    # a finite Python number takes the same steps on floats, without numpy
    if isinstance(x, (int, float)) and math.isfinite(x):
        x = float(x)
        if abs(x) <= _SERIES_CUTOFF:
            return _bessel_series(x, nu)
        val = _bessel_asymptotic(abs(x), nu, math)
        return -val if nu == 1 and x < 0 else val
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = np.abs(arr) <= _SERIES_CUTOFF
    if small.all():  # every quadrature grid: no gather or scatter
        out = _bessel_series(arr, nu)
    else:
        out = np.empty_like(arr)
        out[small] = _bessel_series(arr[small], nu)
        big = arr[~small]  # NaN included: it stays NaN
        with np.errstate(invalid="ignore"):  # cos(inf); J0 and J1 tend to 0 there
            val = np.where(np.isinf(big), 0.0, _bessel_asymptotic(np.abs(big), nu, np))
        out[~small] = np.where(big < 0, -val, val) if nu == 1 else val
    return float(out[0]) if scalar else out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.  Array friendly."""
    return _bessel(x, 0)


def bessel_j1(x):
    """Bessel function of the first kind, order one.  Array friendly."""
    return _bessel(x, 1)


@dataclass(frozen=True)
class MirrorGeometry:
    """Paraboloidal mirror setup: all lengths in meters."""

    focal_length: float
    aperture_radius: float
    wavelength: float
    z1: float
    z2: float
    source: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("focal_length", "aperture_radius", "wavelength", "z1", "z2"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite")
        # the quadrature scales by pi R^2 and 2 pi / lambda, and divides by 4 f, z1, z2
        r = self.aperture_radius
        if math.pi * r * r == 0:  # every amplitude would be 0
            msg = f"aperture_radius must keep pi * aperture_radius**2 above zero, got {r!r}"
            raise ValueError(msg)
        for name, expr, value in (
            ("aperture_radius", "pi * aperture_radius**2", math.pi * r * r),
            ("wavelength", "2 pi / wavelength", 2.0 * math.pi / self.wavelength),
            ("focal_length", "1 / (4 * focal_length)", self.alpha),
            ("z1", "1 / z1", 1.0 / self.z1),
            ("z2", "1 / z2", 1.0 / self.z2),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must keep {expr} finite, got {getattr(self, name)!r}")

    @classmethod
    def imaging(
        cls,
        focal_length: float,
        aperture_radius: float,
        wavelength: float,
        z1: float,
        source: tuple[float, float] = (0.0, 0.0),
    ) -> "MirrorGeometry":
        """Place the detection plane at the image distance for this z1."""
        return cls(
            focal_length=focal_length,
            aperture_radius=aperture_radius,
            wavelength=wavelength,
            z1=z1,
            z2=image_distance(z1, focal_length),
            source=source,
        )

    @property
    def numerical_aperture(self) -> float:
        return self.aperture_radius / self.focal_length

    @property
    def alpha(self) -> float:
        """Surface coefficient in z = alpha (x^2 + y^2)."""
        return 1.0 / (4.0 * self.focal_length)


class FieldSample(NamedTuple):
    position: float
    amplitude: complex


def image_distance(z1: float, focal_length: float, plane: str = "source") -> float:
    """Solve 1/z1 + 1/z2 = 1/f for z2; errors call the plane at z1
    ``plane``.  A z1 inside the focal length gives a negative z2."""
    if z1 <= 0 or focal_length <= 0:
        raise ValueError("distances must be positive")
    if math.isclose(z1, focal_length, rel_tol=1e-12):
        raise ValueError(f"{plane} at the focal distance images at infinity")
    return 1.0 / (1.0 / focal_length - 1.0 / z1)


def geometric_image_point(
    source: tuple[float, float], z1: float, focal_length: float
) -> tuple[float, float]:
    """Transverse image location: inverted and scaled by z2/z1."""
    z2 = image_distance(z1, focal_length)
    scale = -z2 / z1
    return (scale * source[0], scale * source[1])


def exact_path_length(
    r1: tuple[float, float, float],
    mirror_xy: tuple[float, float],
    r2: tuple[float, float, float],
    focal_length: float,
) -> float:
    """Geometric length source -> mirror surface point -> detection point.

    The mirror point's z coordinate follows from the surface equation
    z = rho^2 / (4 f), which opens toward +z; source and detector sit at
    positive z, so pass e.g. (x1, y1, z1) for a source at distance z1.
    """
    x, y = mirror_xy
    z = (x * x + y * y) / (4.0 * focal_length)
    d1 = math.dist(r1, (x, y, z))
    d2 = math.dist(r2, (x, y, z))
    return d1 + d2


def paraxial_path_length(
    r1: tuple[float, float],
    mirror_xy: tuple[float, float],
    r2: tuple[float, float],
    geometry: MirrorGeometry,
) -> float:
    """Second-order expansion of the path length in the transverse offsets.

    r1 and r2 are transverse source/detector coordinates at distances z1
    and z2 from the vertex.  Terms quadratic in the mirror coordinates are
    kept, including the surface sag z = alpha (x^2 + y^2).
    """
    x1, y1 = r1
    x2, y2 = r2
    x, y = mirror_xy
    z1, z2 = geometry.z1, geometry.z2
    z = geometry.alpha * (x * x + y * y)
    return (
        z1
        + z2
        + (x1 * x1 + y1 * y1) / (2.0 * z1)
        + (x2 * x2 + y2 * y2) / (2.0 * z2)
        - (x1 / z1 + x2 / z2) * x
        - (y1 / z1 + y2 / z2) * y
        + 0.5 * (1.0 / z1 + 1.0 / z2) * (x * x + y * y + z * z)
        - 2.0 * z
    )


def aberration_phase(rho, geometry: MirrorGeometry):
    """Fourth-order (spherical aberration) phase at mirror radius rho."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr > geometry.aperture_radius * (1.0 + 1e-12)):
        raise ValueError("mirror radius outside the aperture")
    val = (
        2.0
        * math.pi
        * rho_arr**4
        / (32.0 * geometry.wavelength * geometry.focal_length**3)
    )
    return float(val) if np.ndim(rho) == 0 else val


def aberration_phase_max(geometry: MirrorGeometry) -> float:
    """Aberration phase at the aperture edge: (pi/16)(f/lambda) NA^4."""
    return aberration_phase(geometry.aperture_radius, geometry)


def airy_amplitude_closed(rho2: float, geometry: MirrorGeometry) -> float:
    """Paraxial focal-plane amplitude 2 pi R^2 J1(u)/u for an on-axis source.

    Normalization: the on-axis value equals the aperture area pi R^2.
    """
    radius = geometry.aperture_radius
    u = 2.0 * math.pi * radius * rho2 / (geometry.wavelength * geometry.z2)
    if abs(u) < 1e-8:
        # 2 J1(u)/u -> 1 - u^2/8
        return math.pi * radius * radius * (1.0 - u * u / 8.0)
    return 2.0 * math.pi * radius * radius * float(bessel_j1(u)) / u


def airy_first_zero_radius(geometry: MirrorGeometry) -> float:
    """Detector radius of the first dark ring."""
    return (
        AIRY_FIRST_ZERO
        / (2.0 * math.pi)
        * geometry.wavelength
        * geometry.z2
        / geometry.aperture_radius
    )


@lru_cache(maxsize=16)
def _gauss_nodes(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _radial_quadrature(
    rho2: np.ndarray, geometry: MirrorGeometry, n: int, include_aberration: bool
) -> np.ndarray:
    """Angular integral done analytically (J0), radial one by Gauss-Legendre.

    The source at s and the detector at p enter the phase only through
    -k q . m, linear in the mirror point m, with q = s / z1 + p / z2; every
    other term depends on m only through rho.  So for any source position
    integral = 2 pi int_0^R J0(k rho rho2 / z2) e^{i k (c rho^2 + a rho^4)} rho d rho
    where rho2 = z2 |q| is the detector's distance from the geometric image
    point, c collects the residual quadratic (defocus) phase, which vanishes
    at the imaging condition and leaves the plain Airy integral, and a rho^4
    is the spherical-aberration term (zero unless include_aberration).
    Evaluated for every detector radius in rho2 at once.
    """
    nodes, weights = _gauss_nodes(n)
    radius = geometry.aperture_radius
    rho = 0.5 * radius * (nodes + 1.0)
    w = 0.5 * radius * weights
    k = 2.0 * math.pi / geometry.wavelength
    mean_inv_z = 0.5 * (1.0 / geometry.z1 + 1.0 / geometry.z2)
    phase = (mean_inv_z - 2.0 * geometry.alpha) * rho * rho
    if include_aberration:
        sag = geometry.alpha * rho * rho
        phase = phase + mean_inv_z * sag * sag
    radial = 2.0 * math.pi * w * np.exp(1j * k * phase) * rho
    beta = k * np.asarray(rho2, dtype=float) / geometry.z2
    out = np.empty(beta.shape, dtype=complex)
    step = max(1, _MAX_GRID_POINTS // n)
    for i in range(0, beta.size, step):
        out[i : i + step] = bessel_j0(np.multiply.outer(beta[i : i + step], rho)) @ radial
    return out


def _settled(
    rho2, geometry: MirrorGeometry, include_aberration: bool, nodes: int | None = None
) -> np.ndarray:
    """Radial quadrature at every detector radius in rho2 with 2n nodes, once
    each value agrees with the one from n nodes (n is 256 unless ``nodes``).

    Raises ConvergenceError for the first value whose change exceeds 1e-8
    of max(|fine|, pi R^2); NaN never counts as settled.  A phase or a J0
    argument that overflows raises ValueError.
    """
    n = 256 if nodes is None else nodes
    try:
        with np.errstate(over="raise"):
            coarse = _radial_quadrature(rho2, geometry, n, include_aberration)
            fine = _radial_quadrature(rho2, geometry, 2 * n, include_aberration)
    except FloatingPointError as exc:
        raise ValueError(f"the quadrature's phase or J0 argument overflows ({exc})") from exc
    delta = np.abs(fine - coarse)
    scale = np.maximum(np.abs(fine), math.pi * geometry.aperture_radius**2)
    unsettled = np.flatnonzero(~(delta <= 1e-8 * scale))
    if unsettled.size:
        i = unsettled[0]
        raise ConvergenceError(
            f"quadrature not settled at {n} nodes: "
            f"|delta| = {delta[i]:.3e} against scale {scale[i]:.3e}"
        )
    return fine


def focal_amplitude_quadrature(
    point: tuple[float, float],
    geometry: MirrorGeometry,
    *,
    include_aberration: bool = False,
    nodes: int | None = None,
) -> complex:
    """Detection-plane amplitude by numerical sum over mirror points.

    Mirror-independent phase factors (the overall e^{2 pi i (z1+z2)/lambda}
    and the source- and detector-coordinate quadratics) are dropped, so an
    unaberrated evaluation at the geometric image point returns the real
    aperture area.  Convergence is verified by doubling the node count;
    failure to settle below 1e-8 relative raises ConvergenceError.
    """
    x1, y1 = geometry.source
    z1, z2 = geometry.z1, geometry.z2
    # an on-axis source shifts by exact zeros
    rho2 = math.hypot(point[0] + x1 * z2 / z1, point[1] + y1 * z2 / z1)
    return complex(_settled([rho2], geometry, include_aberration, nodes)[0])


def airy_profile(
    geometry: MirrorGeometry,
    n_samples: int = 200,
    *,
    r_max: float | None = None,
    include_aberration: bool = False,
) -> list[FieldSample]:
    """Radial cut of the detection-plane amplitude for an on-axis source.

    Samples run from the axis out to r_max (default: three times the first
    dark-ring radius), evenly spaced; r_max must be finite and non-negative,
    and so must r_max * (n_samples - 1) and 2 pi / wavelength * r_max.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if geometry.source != (0.0, 0.0):
        raise ValueError("a radial profile needs an on-axis source")
    what = "r_max"
    if r_max is None:
        r_max, what = 3.0 * airy_first_zero_radius(geometry), "the default r_max (--rmax sets it)"
    elif not 0 <= r_max < math.inf:  # also rejects NaN
        raise ValueError(f"r_max must be finite and non-negative, got {r_max!r}")
    if not max(r_max * (n_samples - 1), 2.0 * math.pi / geometry.wavelength * r_max) < math.inf:
        spans = "r_max * (n_samples - 1) and 2 pi / wavelength * r_max"
        raise ValueError(f"{what} must keep {spans} finite, got {r_max!r}")
    radii = r_max * np.arange(n_samples) / (n_samples - 1)
    amps = _settled(radii, geometry, include_aberration)
    return [
        FieldSample(position=float(r), amplitude=complex(a)) for r, a in zip(radii, amps)
    ]
