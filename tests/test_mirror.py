"""Mirror focusing: Bessel evaluation, path lengths, Airy pattern, quadrature."""

import math
import random

import numpy as np
import pytest

from fockpath import mirror
from fockpath import (
    AIRY_FIRST_ZERO,
    ConvergenceError,
    MirrorGeometry,
    aberration_phase,
    aberration_phase_max,
    airy_amplitude_closed,
    airy_first_zero_radius,
    airy_profile,
    bessel_j0,
    bessel_j1,
    exact_path_length,
    focal_amplitude_quadrature,
    geometric_image_point,
    image_distance,
    paraxial_path_length,
)

# Reference values frozen from an arbitrary-precision evaluation (50 digits,
# rounded to double).  Arguments cover both the power-series branch and the
# asymptotic branch, zeros included.
BESSEL_J0_REFS = [
    (0.0, 1.0),
    (0.3, 0.9776262465382961),
    (1.0, 0.7651976865579666),
    (2.404825557695773, -6.10876525973673e-17),
    (3.831705970207512, -0.402759395702553),
    (5.2, -0.11029043979098647),
    (7.015586669815619, 0.30011575252613254),
    (9.5, -0.19392874768742235),
    (11.791534439014281, -6.538994895807815e-17),
    (12.0, 0.047689310796833535),
    (13.3, 0.21829809031927708),
    (16.470630050877634, -0.1964653714686572),
    (21.2, 0.00201673881732338),
    (30.635, 5.673349739268559e-05),
    (55.0, -0.07454830264823682),
    (120.5, 0.0686910611201238),
    (333.75, 0.04363120561265956),
    (1000.0, 0.024786686152420176),
    (25000.0, -4.51337184888801e-05),
    (600100.0, 4.1079627944334515e-05),
]

BESSEL_J1_REFS = [
    (0.0, 0.0),
    (0.3, 0.148318816273104),
    (1.0, 0.4400505857449335),
    (2.404825557695773, 0.5191474972894667),
    (3.831705970207512, 1.1736302822728639e-16),
    (5.2, -0.3432230058719219),
    (7.015586669815619, 2.825339409478929e-17),
    (9.5, 0.16126443075752986),
    (11.791534439014281, -0.23245983136472478),
    (12.0, -0.2234471044906276),
    (13.3, -0.005177480554670804),
    (16.470630050877634, -3.180812762837805e-16),
    (21.2, 0.17334926424145805),
    (30.635, -0.14416411459358722),
    (55.0, -0.07825003830868466),
    (120.5, 0.02404746972070039),
    (333.75, -0.0018816168518141294),
    (1000.0, 0.004728311907089524),
    (25000.0, -0.00504606410553368),
    (600100.0, -0.0010291591413897768),
]


def desk_geometry(**overrides):
    kwargs = dict(focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.4)
    kwargs.update(overrides)
    return MirrorGeometry.imaging(**kwargs)


# --- Bessel evaluation --------------------------------------------------------


def test_bessel_j0_frozen_references():
    for x, want in BESSEL_J0_REFS:
        assert abs(bessel_j0(x) - want) < 1e-10, x


def test_bessel_j1_frozen_references():
    for x, want in BESSEL_J1_REFS:
        assert abs(bessel_j1(x) - want) < 1e-10, x


def test_bessel_parity():
    for x, _ in BESSEL_J0_REFS[1:]:
        assert bessel_j0(-x) == bessel_j0(x)
        assert bessel_j1(-x) == -bessel_j1(x)


def test_bessel_at_infinity_is_zero_without_a_warning():
    # pytest turns RuntimeWarning into an error here, so cos(inf) must not warn
    for f in (bessel_j0, bessel_j1):
        for x in (math.inf, -math.inf):
            assert f(x) == 0.0
        vals = f(np.array([math.inf, -math.inf, math.nan, 13.0]))
        assert vals[0] == vals[1] == 0.0
        assert math.isnan(vals[2]) and vals[3] == f(13.0)


def test_bessel_array_input():
    xs = np.array([x for x, _ in BESSEL_J0_REFS])
    vals = bessel_j0(xs)
    assert isinstance(vals, np.ndarray)
    for x, v in zip(xs, vals):
        assert v == bessel_j0(float(x))
    assert isinstance(bessel_j1(1.0), float)


def test_bessel_scalar_matches_array_path_bit_for_bit():
    rng = random.Random(12)
    xs = [rng.uniform(-40.0, 40.0) for _ in range(2000)]
    xs += [0.0, -0.0, 12.0, -12.0, 12.0 + 1e-6, 12.0 - 1e-6, -12.0 - 1e-6, 1e6, -1e6, 7, -13]
    # a grid wholly inside the series range is summed unmasked, in place
    grid = np.random.default_rng(12).uniform(-12.0, 12.0, (40, 50))
    grid[0, :4] = (0.0, -0.0, 12.0, -12.0)
    for fn in (bessel_j0, bessel_j1):
        for x, want in zip(xs, fn(np.array(xs, dtype=float))):
            got = fn(x)
            assert type(got) is float
            assert got.hex() == float(want).hex(), (fn.__name__, x)
        vals = fn(grid)
        assert vals.shape == grid.shape
        assert [float(v).hex() for v in vals.flat] == [fn(x).hex() for x in grid.flat]
        empty = fn(np.empty((0, 3)))
        assert (empty.shape, empty.dtype) == ((0, 3), np.float64)


def test_bessel_leaves_its_argument_unchanged():
    series = np.random.default_rng(5).uniform(-12.0, 12.0, (30, 40))
    mixed = np.concatenate([series[0], [math.nan, math.inf, -math.inf, 13.0, -40.0, 1e6]])
    for fn in (bessel_j0, bessel_j1):
        for x in (series, mixed):
            before = x.tobytes()
            vals = fn(x)
            assert x.tobytes() == before, fn.__name__
            assert [float(v).hex() for v in vals.flat] == [fn(v).hex() for v in x.ravel().tolist()]


def test_bessel_returns_nan_for_nan():
    nan = float("nan")
    for fn in (bessel_j0, bessel_j1):
        assert math.isnan(fn(nan))
        vals = fn(np.array([1.0, nan, 20.0, -nan]))
        assert np.isnan(vals).tolist() == [False, True, False, True]
        assert vals[0] == fn(1.0) and vals[2] == fn(20.0)


def test_bessel_branch_seam_is_continuous():
    # the evaluator switches from series to asymptotic at |x| = 12;
    # |J'| <= 1 bounds how much nearby values may differ
    for nu_fn in (bessel_j0, bessel_j1):
        below = nu_fn(12.0 - 1e-7)
        above = nu_fn(12.0 + 1e-7)
        assert abs(above - below) < 1e-6


def test_j1_first_zero_matches_constant():
    lo, hi = 3.0, 4.5
    assert bessel_j1(lo) > 0 and bessel_j1(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j1(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - AIRY_FIRST_ZERO) < 1e-10


# --- geometry ----------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        MirrorGeometry(focal_length=0.0, aperture_radius=0.01, wavelength=1e-6, z1=1, z2=1)
    with pytest.raises(ValueError):
        MirrorGeometry(focal_length=0.2, aperture_radius=-1, wavelength=1e-6, z1=1, z2=1)


@pytest.mark.parametrize("name", ["focal_length", "aperture_radius", "wavelength", "z1", "z2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_geometry_rejects_non_finite_lengths(name, bad):
    lengths = dict(focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.4, z2=0.4)
    MirrorGeometry(**lengths)
    with pytest.raises(ValueError, match=name):
        MirrorGeometry(**{**lengths, name: bad})


@pytest.mark.parametrize(
    "name, value, derived",
    [("aperture_radius", 1e154, "pi * aperture_radius**2"), ("wavelength", 1e-320, "2 pi / wavelength")],
)
def test_geometry_rejects_lengths_whose_area_or_wavenumber_overflows(name, value, derived):
    lengths = dict(focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.4, z2=0.4)
    with pytest.raises(ValueError) as info:
        MirrorGeometry(**{**lengths, name: value})
    assert str(info.value) == f"{name} must keep {derived} finite, got {value!r}"


def test_geometry_rejects_an_aperture_whose_area_underflows():
    lengths = dict(focal_length=0.2, wavelength=0.5e-6, z1=0.4, z2=0.4)
    with pytest.raises(ValueError) as info:
        MirrorGeometry(aperture_radius=1e-170, **lengths)
    want = "aperture_radius must keep pi * aperture_radius**2 above zero, got 1e-170"
    assert str(info.value) == want


@pytest.mark.parametrize(
    "name, derived",
    [("focal_length", "1 / (4 * focal_length)"), ("z1", "1 / z1"), ("z2", "1 / z2")],
    ids=["focal_length", "z1", "z2"],
)
def test_geometry_rejects_lengths_whose_reciprocal_overflows(name, derived):
    # a subnormal length is positive and finite, but the quadrature's phase
    # divides by it and would turn NaN
    lengths = dict(focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.4, z2=0.4)
    with pytest.raises(ValueError) as info:
        MirrorGeometry(**{**lengths, name: 5e-310})
    assert str(info.value) == f"{name} must keep {derived} finite, got 5e-310"


def test_geometry_derived_quantities():
    g = desk_geometry()
    assert g.z2 == pytest.approx(0.4)
    assert g.numerical_aperture == pytest.approx(0.05)
    assert g.alpha == pytest.approx(1.25)
    assert 1.0 / g.z1 + 1.0 / g.z2 == pytest.approx(1.0 / g.focal_length)


def test_image_distance_goldens():
    assert image_distance(0.4, 0.2) == pytest.approx(0.4)
    assert image_distance(0.5, 0.2) == pytest.approx(1.0 / 3.0)
    assert image_distance(1e9, 0.2) == pytest.approx(0.2, rel=1e-8)
    with pytest.raises(ValueError):
        image_distance(0.2, 0.2)
    with pytest.raises(ValueError):
        image_distance(-1.0, 0.2)


def test_geometric_image_point_inverts_and_scales():
    x, y = geometric_image_point((1e-4, -2e-5), 0.5, 0.2)
    # z2 = 1/3, scale = -z2/z1 = -2/3
    assert x == pytest.approx(-2e-4 / 3.0)
    assert y == pytest.approx(4e-5 / 3.0)


# --- path lengths ------------------------------------------------------------


def test_vertex_path_is_axial_distance():
    length = exact_path_length((0, 0, 0.4), (0.0, 0.0), (0, 0, 0.4), 0.2)
    assert length == pytest.approx(0.8, abs=1e-15)


def test_exact_path_swap_symmetry():
    r1, r2 = (1e-5, -3e-6, 0.4), (-2e-6, 4e-6, 0.5)
    m = (0.004, -0.007)
    assert exact_path_length(r1, m, r2, 0.2) == exact_path_length(r2, m, r1, 0.2)


def test_paraxial_matches_exact_at_low_aperture():
    g = desk_geometry()
    rng = random.Random(11)
    for _ in range(120):
        rho = rng.uniform(0, g.aperture_radius)
        th = rng.uniform(0, 2 * math.pi)
        m = (rho * math.cos(th), rho * math.sin(th))
        r1 = (rng.uniform(-2e-5, 2e-5), rng.uniform(-2e-5, 2e-5))
        r2 = (rng.uniform(-2e-5, 2e-5), rng.uniform(-2e-5, 2e-5))
        exact = exact_path_length((*r1, g.z1), m, (*r2, g.z2), g.focal_length)
        par = paraxial_path_length(r1, m, r2, g)
        assert abs(exact - par) < g.wavelength / 100.0
        assert abs(exact - par) < 1e-6 * (g.z1 + g.z2)


def test_paraxial_residual_is_aberration_at_imaging_condition():
    g = desk_geometry()
    k = 2.0 * math.pi / g.wavelength
    rng = random.Random(5)
    for _ in range(100):
        rho = rng.uniform(0, g.aperture_radius)
        th = rng.uniform(0, 2 * math.pi)
        m = (rho * math.cos(th), rho * math.sin(th))
        resid = k * (paraxial_path_length((0, 0), m, (0, 0), g) - g.z1 - g.z2)
        assert abs(resid - aberration_phase(rho, g)) < 1e-8


def test_linear_term_vanishes_at_geometric_image_point():
    g = desk_geometry(z1=0.5)
    source = (3e-5, -1.2e-5)
    image = geometric_image_point(source, g.z1, g.focal_length)
    g = MirrorGeometry(
        focal_length=g.focal_length,
        aperture_radius=g.aperture_radius,
        wavelength=g.wavelength,
        z1=g.z1,
        z2=g.z2,
        source=source,
    )
    for m in [(0.004, 0.001), (-0.006, 0.003), (0.0, -0.008)]:
        plus = paraxial_path_length(source, m, image, g)
        minus = paraxial_path_length(source, (-m[0], -m[1]), image, g)
        assert abs(plus - minus) < 1e-15


# --- aberration ---------------------------------------------------------------


def test_aberration_phase_values():
    g = desk_geometry()
    assert aberration_phase(0.0, g) == 0.0
    edge = (math.pi / 16.0) * (g.focal_length / g.wavelength) * g.numerical_aperture**4
    assert aberration_phase_max(g) == pytest.approx(edge)
    assert aberration_phase_max(g) == pytest.approx(0.4908738521234052)


def test_aberration_phase_scales_quartically():
    g = desk_geometry()
    half = aberration_phase(g.aperture_radius / 2.0, g)
    assert aberration_phase_max(g) == pytest.approx(16.0 * half)


def test_aberration_phase_outside_aperture():
    g = desk_geometry()
    with pytest.raises(ValueError):
        aberration_phase(g.aperture_radius * 1.01, g)


def test_aberration_phase_array():
    g = desk_geometry()
    rho = np.array([0.0, 0.005, 0.01])
    vals = aberration_phase(rho, g)
    assert vals.shape == (3,)
    assert vals[2] == pytest.approx(aberration_phase_max(g))


# --- Airy pattern -------------------------------------------------------------


def test_closed_form_peak_is_aperture_area():
    g = desk_geometry()
    area = math.pi * g.aperture_radius**2
    assert airy_amplitude_closed(0.0, g) == pytest.approx(area)


def test_closed_form_at_unit_argument():
    g = desk_geometry()
    # u = 1 when rho2 = lambda z2 / (2 pi R)
    rho2 = g.wavelength * g.z2 / (2.0 * math.pi * g.aperture_radius)
    want = math.pi * g.aperture_radius**2 * 2.0 * bessel_j1(1.0)
    assert airy_amplitude_closed(rho2, g) == pytest.approx(want, rel=1e-12)


def test_first_dark_ring():
    g = desk_geometry()
    r0 = airy_first_zero_radius(g)
    assert r0 == pytest.approx(
        AIRY_FIRST_ZERO / (2 * math.pi) * g.wavelength * g.z2 / g.aperture_radius
    )
    # 0.61 lambda z2 / R to two decimals in the prefactor
    assert r0 == pytest.approx(
        0.6098349456 * g.wavelength * g.z2 / g.aperture_radius, rel=1e-9
    )
    area = math.pi * g.aperture_radius**2
    assert abs(airy_amplitude_closed(r0, g)) < 1e-10 * area


def test_small_argument_branch_is_smooth():
    g = desk_geometry()
    # straddle the small-argument switchover near u = 1e-8
    r_switch = 1e-8 * g.wavelength * g.z2 / (2 * math.pi * g.aperture_radius)
    below = airy_amplitude_closed(r_switch * 0.99, g)
    above = airy_amplitude_closed(r_switch * 1.01, g)
    assert below == pytest.approx(above, rel=1e-12)


# --- quadrature ----------------------------------------------------------------


def test_quadrature_reproduces_closed_form():
    g = desk_geometry()
    area = math.pi * g.aperture_radius**2
    r0 = airy_first_zero_radius(g)
    worst = 0.0
    for frac in np.linspace(0.0, 3.0, 25):
        got = focal_amplitude_quadrature((frac * r0, 0.0), g)
        want = airy_amplitude_closed(frac * r0, g)
        worst = max(worst, abs(got - want) / area)
    assert worst < 1e-8


def test_quadrature_on_axis_is_aperture_area():
    g = desk_geometry()
    area = math.pi * g.aperture_radius**2
    got = focal_amplitude_quadrature((0.0, 0.0), g)
    assert got.real == pytest.approx(area, rel=1e-12)
    assert abs(got.imag) < 1e-12 * area


def test_quadrature_node_doubling_is_stable():
    g = desk_geometry()
    r0 = airy_first_zero_radius(g)
    a = focal_amplitude_quadrature((1.7 * r0, 0.0), g, nodes=256)
    b = focal_amplitude_quadrature((1.7 * r0, 0.0), g, nodes=512)
    assert abs(a - b) < 1e-9 * math.pi * g.aperture_radius**2


def test_quadrature_flags_non_convergence():
    g = desk_geometry()
    r0 = airy_first_zero_radius(g)
    for aberration in (False, True):
        with pytest.raises(ConvergenceError):
            focal_amplitude_quadrature(
                (3.0 * r0, 0.0), g, include_aberration=aberration, nodes=2
            )


@pytest.mark.parametrize("source", [(0.0, 0.0), (1e-6, 0.0)])
def test_quadrature_never_settles_on_nan(source):
    # a subnormal wavelength overflows the wavenumber to inf and every phase
    # factor to NaN; the geometry now refuses one, so it is set past the
    # constructor to reach the quadrature's own guard
    g = MirrorGeometry(
        focal_length=0.2,
        aperture_radius=0.01,
        wavelength=0.5e-6,
        z1=0.4,
        z2=0.4,
        source=source,
    )
    object.__setattr__(g, "wavelength", 5e-310)
    with pytest.raises(ConvergenceError), np.errstate(invalid="ignore"):
        focal_amplitude_quadrature((0.0, 0.0), g)


def test_quadrature_rotational_symmetry():
    g = desk_geometry()
    r = 0.7 * airy_first_zero_radius(g)
    a = focal_amplitude_quadrature((r, 0.0), g)
    b = focal_amplitude_quadrature((0.0, -r), g)
    c = focal_amplitude_quadrature((-r, 0.0), g)
    assert a == pytest.approx(b, rel=1e-9)
    assert a == pytest.approx(c, rel=1e-9)


def test_defocus_suppresses_on_axis_amplitude():
    g = MirrorGeometry(
        focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.41, z2=0.4
    )
    area = math.pi * g.aperture_radius**2
    amp = focal_amplitude_quadrature((0.0, 0.0), g)
    assert abs(amp) < 0.1 * area


def test_off_axis_source_peaks_at_geometric_image():
    # at the image plane the pattern is the Airy profile about the geometric
    # image point, out to the last point, more than 20 dark rings away
    source = (8e-6, -6e-6)
    g = MirrorGeometry(
        focal_length=0.2,
        aperture_radius=0.01,
        wavelength=0.5e-6,
        z1=0.4,
        z2=0.4,
        source=source,
    )
    area = math.pi * g.aperture_radius**2
    image = geometric_image_point(source, g.z1, g.focal_length)
    r0 = airy_first_zero_radius(g)
    points = [image, (0.0, 0.0), (image[0] + 1.3 * r0, image[1] - 0.4 * r0)]
    points.append((image[0] - 16.0 * r0, image[1] + 17.0 * r0))  # 23.3 dark rings
    for point in points:
        got = focal_amplitude_quadrature(point, g)
        shift = math.hypot(point[0] - image[0], point[1] - image[1])
        assert abs(got - airy_amplitude_closed(shift, g)) < 1e-12 * area, point
    assert abs(focal_amplitude_quadrature(image, g)) == pytest.approx(area, rel=1e-12)


def test_aberration_reduces_on_axis_peak_slightly():
    g = desk_geometry()
    area = math.pi * g.aperture_radius**2
    amp = focal_amplitude_quadrature((0.0, 0.0), g, include_aberration=True)
    deficit = 1.0 - abs(amp) / area
    assert 0.001 < deficit < 0.02


def polar_grid_sum(point, g, aberration, n_rho=128, n_theta=96):
    """The sum over mirror points written out on a 2-D grid: Gauss-Legendre
    in the mirror radius, trapezoid (exact for periodic integrands) in the
    angle, over every mirror-dependent term of the paraxial path, with the
    rho^4 sag term only if ``aberration``."""
    x, w = np.polynomial.legendre.leggauss(n_rho)
    rho = 0.5 * g.aperture_radius * (x + 1.0)
    w_rho = 0.5 * g.aperture_radius * w
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    r, t = np.meshgrid(rho, theta, indexing="ij")
    (x1, y1), (x2, y2) = g.source, point
    sag = r * r / (4.0 * g.focal_length)
    mean_inv_z = 0.5 * (1.0 / g.z1 + 1.0 / g.z2)
    path = (
        -(x1 / g.z1 + x2 / g.z2) * r * np.cos(t)
        - (y1 / g.z1 + y2 / g.z2) * r * np.sin(t)
        + mean_inv_z * r * r
        - 2.0 * sag
    )
    if aberration:
        path = path + mean_inv_z * sag * sag
    k = 2.0 * math.pi / g.wavelength
    angular = np.exp(1j * k * path).sum(axis=1) * (2.0 * math.pi / n_theta)
    return complex(np.sum(w_rho * rho * angular))


@pytest.mark.parametrize("source", [(0.0, 0.0), (8e-6, -6e-6), (-2.1e-5, 1.3e-5)])
@pytest.mark.parametrize("defocus", [1.0, 1.001])
@pytest.mark.parametrize("aberration", [False, True])
def test_quadrature_matches_a_polar_grid_sum(source, defocus, aberration):
    focused = desk_geometry()
    g = MirrorGeometry(
        focal_length=focused.focal_length,
        aperture_radius=focused.aperture_radius,
        wavelength=focused.wavelength,
        z1=focused.z1,
        z2=focused.z2 * defocus,
        source=source,
    )
    area = math.pi * g.aperture_radius**2
    r0 = airy_first_zero_radius(g)
    cx, cy = geometric_image_point(source, g.z1, g.focal_length)
    for frac, angle in zip(np.linspace(0.0, 3.0, 7), np.linspace(0.3, 5.9, 7)):
        point = (cx + frac * r0 * math.cos(angle), cy + frac * r0 * math.sin(angle))
        got = focal_amplitude_quadrature(point, g, include_aberration=aberration)
        want = polar_grid_sum(point, g, aberration)
        assert abs(got - want) < 1e-12 * area, point


def test_every_focal_amplitude_reaches_bessel_j0(monkeypatch):
    # one quadrature serves every source position: the angle integrates to J0
    calls = []
    real = mirror.bessel_j0

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(mirror, "bessel_j0", counting)
    g = desk_geometry()
    off_axis = MirrorGeometry(
        focal_length=0.2,
        aperture_radius=0.01,
        wavelength=0.5e-6,
        z1=0.4,
        z2=0.4,
        source=(8e-6, -6e-6),
    )
    for aberration in (False, True):
        for geometry in (g, off_axis):
            calls.clear()
            focal_amplitude_quadrature((1e-6, 2e-6), geometry, include_aberration=aberration)
            assert calls, (geometry.source, aberration)
        calls.clear()
        airy_profile(g, n_samples=3, include_aberration=aberration)
        assert calls, aberration


@pytest.mark.parametrize("aberration", [False, True])
def test_profile_matches_a_scalar_bessel_bit_for_bit(monkeypatch, aberration):
    # each profile sums about 5,400 J0 values: the array path against the floats
    def hexed(samples):
        return [(s.amplitude.real.hex(), s.amplitude.imag.hex()) for s in samples]

    g = desk_geometry()
    want = hexed(airy_profile(g, 7, include_aberration=aberration))
    real = mirror.bessel_j0

    def one_at_a_time(x):
        return np.array([real(v) for v in x.ravel().tolist()]).reshape(x.shape)

    monkeypatch.setattr(mirror, "bessel_j0", one_at_a_time)
    assert hexed(airy_profile(g, 7, include_aberration=aberration)) == want


# --- profile -------------------------------------------------------------------


def test_profile_shape_and_peak():
    g = desk_geometry()
    samples = airy_profile(g, n_samples=31)
    assert len(samples) == 31
    assert samples[0].position == 0.0
    assert samples[-1].position == pytest.approx(3.0 * airy_first_zero_radius(g))
    area = math.pi * g.aperture_radius**2
    assert abs(samples[0].amplitude) == pytest.approx(area, rel=1e-10)


def test_profile_monotone_to_first_zero():
    g = desk_geometry()
    r0 = airy_first_zero_radius(g)
    samples = airy_profile(g, n_samples=25, r_max=r0)
    mags = [abs(s.amplitude) for s in samples]
    for a, b in zip(mags, mags[1:]):
        assert b < a


# 1e308 overflows r_max * (n_samples - 1), 1e302 only 2 pi / wavelength * r_max
@pytest.mark.parametrize("r_max", [math.nan, math.inf, -1e-6, 1e308, 1e302])
def test_profile_rejects_bad_outer_radius(r_max):
    with pytest.raises(ValueError, match="r_max"):
        airy_profile(desk_geometry(), n_samples=4, r_max=r_max)


def test_profile_names_the_default_outer_radius_when_it_overflows():
    # three dark-ring radii scale as lambda z2 / R: inf at lambda = 1e308
    g = MirrorGeometry(0.2, 0.01, 1e308, 0.4, 0.4)
    with pytest.raises(ValueError, match=r"^the default r_max \(--rmax sets it\) .* got inf$"):
        airy_profile(g, n_samples=3)


@pytest.mark.parametrize(
    "geometry, r_max, aberration",
    [
        (MirrorGeometry(0.2, 0.01, 0.5e-6, 0.4, 0.4), 1e301, False),
        (MirrorGeometry(0.2, 1e3, 0.5e-6, 0.4, 0.4), 1e300, False),
        (MirrorGeometry(1e-170, 0.01, 0.5e-6, 2e-170, 2e-170), None, True),
    ],
    ids=["bessel_argument", "rim_argument", "aberration_phase"],
)
def test_profile_rejects_an_overflowing_phase_or_argument_without_a_warning(
    geometry, r_max, aberration
):
    with pytest.raises(ValueError, match="^the quadrature's phase or J0 argument overflows"):
        airy_profile(geometry, n_samples=3, r_max=r_max, include_aberration=aberration)


def test_profile_accepts_zero_outer_radius():
    samples = airy_profile(desk_geometry(), n_samples=3, r_max=0.0)
    assert [s.position for s in samples] == [0.0, 0.0, 0.0]


def test_profile_needs_two_samples():
    g = desk_geometry()
    with pytest.raises(ValueError):
        airy_profile(g, n_samples=1)


@pytest.mark.parametrize("aberration", [False, True])
def test_profile_matches_pointwise_quadrature(aberration):
    # 300 samples span three chunks of the fine (512-node) radial pass
    g = desk_geometry()
    area = math.pi * g.aperture_radius**2
    samples = airy_profile(g, n_samples=300, include_aberration=aberration)
    for s in samples:
        want = focal_amplitude_quadrature(
            (s.position, 0.0), g, include_aberration=aberration
        )
        assert abs(s.amplitude - want) < 1e-14 * area, s.position


def test_profile_needs_on_axis_source():
    g = MirrorGeometry(
        focal_length=0.2,
        aperture_radius=0.01,
        wavelength=0.5e-6,
        z1=0.4,
        z2=0.4,
        source=(8e-6, 0.0),
    )
    with pytest.raises(ValueError):
        airy_profile(g, n_samples=5)
