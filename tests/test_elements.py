"""Element constructors: validation gates, matrices, golden plate states."""

import cmath
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockpath import (
    BasisState,
    EnergyConservationError,
    Mode,
    ModeMismatchError,
    NonUnitaryError,
    PhaseRelationError,
    PhotonState,
    make_pbs,
    make_phase_shifter,
    make_polarization_rotation,
    make_rbs,
    make_split50_rbs,
    make_waveplate,
    thin_sheet_coefficients,
    unitarity_defect,
)
from fockpath.elements import mat2_mul
from fockpath.paths import apply_transform

INV_SQRT2 = 1.0 / math.sqrt(2.0)
AX, AY = Mode("a", "x"), Mode("a", "y")


def linpol_state(angle, n, port="a"):
    alpha, beta = math.cos(angle), math.sin(angle)
    terms = {}
    for k in range(n + 1):
        amp = math.sqrt(math.comb(n, k)) * alpha**k * beta ** (n - k)
        terms[BasisState({Mode(port, "x"): k, Mode(port, "y"): n - k})] = amp
    return PhotonState(terms)


# --- regular beam splitter gates ---------------------------------------


def test_make_rbs_accepts_canonical_pairs():
    make_rbs(INV_SQRT2, 1j * INV_SQRT2)
    make_rbs(0.6, 0.8j)
    make_rbs(0.6j, 0.8)  # phase difference -90 degrees


def test_make_rbs_rejects_energy_violation():
    with pytest.raises(EnergyConservationError):
        make_rbs(0.9, 0.8j)


def test_make_rbs_rejects_phase_violation():
    with pytest.raises(PhaseRelationError):
        make_rbs(0.6, 0.8)


def test_make_rbs_zero_magnitude_skips_phase_check():
    make_rbs(1.0, 0.0)
    make_rbs(0.0, 1.0)


def test_make_rbs_matrix_is_symmetric():
    t = make_rbs(0.6, 0.8j)
    assert t.matrix[0][1] == t.matrix[1][0]


def test_split50_is_the_canonical_pair():
    t = make_split50_rbs()
    assert t.matrix[0][0] == pytest.approx(INV_SQRT2)
    assert t.matrix[0][1] == pytest.approx(1j * INV_SQRT2)


def test_constructor_matrices_unitary_tightly():
    candidates = [
        make_split50_rbs(),
        make_rbs(0.6, 0.8j),
        make_pbs(0.0),
        make_pbs(math.radians(30)),
        make_waveplate(math.pi, math.radians(45)),
        make_waveplate(math.pi / 2, math.radians(10)),
        make_polarization_rotation(math.radians(25)),
        make_phase_shifter(0.7),
    ]
    for t in candidates:
        assert unitarity_defect(t.matrix) < 1e-12


def test_unitarity_defect_matches_entrywise_sum():
    def reference(m):
        size = range(len(m))
        errors = [
            abs(sum(m[i][k] * m[j][k].conjugate() for k in size) - (1.0 if i == j else 0.0))
            for i in size
            for j in size
        ]
        return math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0)

    rng = random.Random(4)
    specials = [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 1e300, 2**-0.5]

    def entry():
        if rng.random() < 0.2:
            return complex(rng.choice(specials), rng.choice(specials))
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    for _ in range(2000):
        size = rng.choice([1, 2])
        m = tuple(tuple(entry() for _ in range(size)) for _ in range(size))
        got, want = unitarity_defect(m), reference(m)
        assert got == want or (math.isnan(got) and math.isnan(want)), m


def test_unitarity_gate_rejects_nan_matrix():
    nan = float("nan")
    assert math.isnan(unitarity_defect(((nan, 0j), (0j, 1.0 + 0j))))
    with pytest.raises(NonUnitaryError):
        make_waveplate(float("inf"), 0.0)


def test_inverse_round_trips_matrix():
    t = make_rbs(0.6, 0.8j)
    inv = t.inverse()
    composed = mat2_mul(inv.matrix, t.matrix)
    assert abs(composed[0][0] - 1) < 1e-12
    assert abs(composed[1][1] - 1) < 1e-12
    assert abs(composed[0][1]) < 1e-12
    assert abs(composed[1][0]) < 1e-12


# --- polarization rotation ----------------------------------------------


def test_rotation_zero_is_identity():
    t = make_polarization_rotation(0.0)
    assert t.matrix == ((1.0, 0.0), (0.0, 1.0))


def test_rotation_single_photon_signs():
    t = make_polarization_rotation(math.radians(45), port="a")
    s = PhotonState({BasisState({AX: 1}): 1.0})
    out = apply_transform(s, t)
    # x photon lands on the rotated pair with amplitudes (cos, -sin)
    assert out.amplitude(BasisState({AX: 1})) == pytest.approx(INV_SQRT2)
    assert out.amplitude(BasisState({AY: 1})) == pytest.approx(-INV_SQRT2)


def test_rotation_then_inverse_is_identity():
    theta = math.radians(33.0)
    a = make_polarization_rotation(theta).matrix
    b = make_polarization_rotation(-theta).matrix
    composed = mat2_mul(b, a)
    assert abs(composed[0][0] - 1) < 1e-12
    assert abs(composed[0][1]) < 1e-12


# --- wave plates ---------------------------------------------------------


def test_waveplate_aligned_is_diagonal():
    t = make_waveplate(math.pi / 2, 0.0)
    assert t.matrix[0][0] == pytest.approx(1.0)
    assert t.matrix[1][1] == pytest.approx(1j)
    assert abs(t.matrix[0][1]) == 0.0


def test_half_wave_at_45_swaps_axes():
    t = make_waveplate(math.pi, math.radians(45))
    assert t.matrix[0][0] == pytest.approx(0.0, abs=1e-15)
    assert t.matrix[0][1] == pytest.approx(1.0)
    assert t.matrix[1][0] == pytest.approx(1.0)
    assert t.matrix[1][1] == pytest.approx(0.0, abs=1e-15)


def test_waveplate_composition_doubles_phase():
    theta = math.radians(20.0)
    single = make_waveplate(0.8, theta).matrix
    double = make_waveplate(1.6, theta).matrix
    composed = mat2_mul(single, single)
    for i in range(2):
        for j in range(2):
            assert abs(composed[i][j] - double[i][j]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_wave_at_45_rotates_x_fock_to_y(n):
    t = make_waveplate(math.pi, math.radians(45), port="a")
    s = PhotonState({BasisState({AX: n}): 1.0})
    out = apply_transform(s, t)
    want = linpol_state(math.radians(90), n)
    for bs, amp in want:
        assert out.amplitude(bs) == pytest.approx(amp, abs=1e-12)


def test_quarter_wave_aligned_on_45_linpol_pair():
    s = linpol_state(math.radians(45), 2)
    out = apply_transform(s, make_waveplate(math.pi / 2, 0.0, port="a"))
    assert out.amplitude(BasisState({AX: 2})) == pytest.approx(0.5)
    assert out.amplitude(BasisState({AY: 2})) == pytest.approx(-0.5)
    assert out.amplitude(BasisState({AX: 1, AY: 1})) == pytest.approx(
        1j * INV_SQRT2
    )


def test_half_wave_aligned_on_45_linpol_pair():
    s = linpol_state(math.radians(45), 2)
    out = apply_transform(s, make_waveplate(math.pi, 0.0, port="a"))
    assert out.amplitude(BasisState({AX: 2})) == pytest.approx(0.5)
    assert out.amplitude(BasisState({AY: 2})) == pytest.approx(0.5)
    assert out.amplitude(BasisState({AX: 1, AY: 1})) == pytest.approx(
        -INV_SQRT2
    )


def test_half_wave_aligned_preserves_two_photon_pair_state():
    s = PhotonState(
        {BasisState({AX: 2}): INV_SQRT2, BasisState({AY: 2}): INV_SQRT2}
    )
    out = apply_transform(s, make_waveplate(math.pi, 0.0, port="a"))
    assert out.amplitude(BasisState({AX: 2})) == pytest.approx(INV_SQRT2)
    assert out.amplitude(BasisState({AY: 2})) == pytest.approx(INV_SQRT2)


def test_quarter_wave_aligned_flips_pair_sign():
    s = PhotonState(
        {BasisState({AX: 2}): INV_SQRT2, BasisState({AY: 2}): INV_SQRT2}
    )
    out = apply_transform(s, make_waveplate(math.pi / 2, 0.0, port="a"))
    assert out.amplitude(BasisState({AX: 2})) == pytest.approx(INV_SQRT2)
    assert out.amplitude(BasisState({AY: 2})) == pytest.approx(-INV_SQRT2)


# --- phase shifter --------------------------------------------------------


def test_phase_shifter_two_photons():
    s = PhotonState({BasisState({AX: 2}): 1.0})
    full = apply_transform(s, make_phase_shifter(math.pi, mode=AX))
    assert full.amplitude(BasisState({AX: 2})) == pytest.approx(1.0)
    half = apply_transform(s, make_phase_shifter(math.pi / 2, mode=AX))
    assert half.amplitude(BasisState({AX: 2})) == pytest.approx(-1.0)


# --- polarizing beam splitter ---------------------------------------------


def test_pbs_aligned_routes_by_polarization():
    t = make_pbs(0.0, in_port="1", transmitted_port="4", reflected_port="3")
    s = PhotonState({BasisState({Mode("1", "x"): 1}): 1.0})
    out = apply_transform(s, t)
    assert out.amplitude(BasisState({Mode("4", "x"): 1})) == pytest.approx(1.0)


def test_pbs_aligned_keeps_input_axis_tags():
    t = make_pbs(0.0)
    assert {m.pol for m in t.out_modes} == {"x", "y"}


def test_pbs_rotated_relabels_axes():
    t = make_pbs(math.radians(30))
    assert {m.pol for m in t.out_modes} == {"x'", "y'"}


def test_pbs_equals_aligned_pbs_after_rotation():
    theta = math.radians(30)
    direct = make_pbs(theta).matrix
    composed = mat2_mul(make_pbs(0.0).matrix, make_polarization_rotation(theta).matrix)
    for i in range(2):
        for j in range(2):
            assert abs(direct[i][j] - composed[i][j]) < 1e-12


def test_pbs_45_on_45_linpol_pair_transmits_both():
    t = make_pbs(
        math.radians(45), in_port="a", transmitted_port="t4", reflected_port="r3"
    )
    s = linpol_state(math.radians(45), 2)
    out = apply_transform(s, t)
    tx = Mode("t4", "x'")
    assert out.amplitude(BasisState({tx: 2})) == pytest.approx(1.0)
    assert len(out.terms) == 1


def test_pbs_45_partial_amplitudes_at_general_angle():
    theta = math.radians(30)
    t = make_pbs(theta, in_port="a", transmitted_port="t4", reflected_port="r3")
    s = linpol_state(math.radians(45), 2)
    out = apply_transform(s, t)
    two = math.radians(60)
    both_r = out.amplitude(BasisState({Mode("r3", "y'"): 2}))
    split = out.amplitude(BasisState({Mode("t4", "x'"): 1, Mode("r3", "y'"): 1}))
    both_t = out.amplitude(BasisState({Mode("t4", "x'"): 2}))
    assert both_r == pytest.approx(0.5 * (1 - math.sin(two)), abs=1e-12)
    assert split == pytest.approx(math.cos(two) * INV_SQRT2, abs=1e-12)
    assert both_t == pytest.approx(0.5 * (1 + math.sin(two)), abs=1e-12)


def test_pbs_rejects_colliding_ports():
    with pytest.raises(ModeMismatchError):
        make_pbs(0.0, in_port="a", transmitted_port="a", reflected_port="b")
    with pytest.raises(ModeMismatchError):
        make_pbs(0.0, in_port="a", transmitted_port="b", reflected_port="b")


# --- thin sheet ------------------------------------------------------------


def test_thin_sheet_transparent_limit():
    rho, tau = thin_sheet_coefficients(0.0)
    assert rho == 0.0
    assert tau == 1.0


def test_thin_sheet_quarter_turn_values():
    rho, tau = thin_sheet_coefficients(-math.pi / 4)
    assert rho == pytest.approx((-1 - 1j) / 2, abs=1e-15)
    assert tau == pytest.approx((1 - 1j) / 2, abs=1e-15)


def test_thin_sheet_feeds_make_rbs_over_grid():
    for deg in range(-80, 81, 10):
        rho, tau = thin_sheet_coefficients(math.radians(deg))
        energy = abs(rho) ** 2 + abs(tau) ** 2
        assert energy == pytest.approx(1.0, abs=1e-12)
        if abs(rho) > 1e-12:
            diff = math.remainder(
                cmath.phase(rho) - cmath.phase(tau), math.tau
            )
            assert abs(abs(diff) - math.pi / 2) < 1e-12
        make_rbs(rho, tau)


def test_thin_sheet_transmission_is_one_plus_reflection():
    for deg in range(-80, 81, 10):
        rho, tau = thin_sheet_coefficients(math.radians(deg))
        assert abs(tau - (1 + rho)) < 1e-15


def test_thin_sheet_rejects_edge_of_domain():
    with pytest.raises(ValueError):
        thin_sheet_coefficients(math.pi / 2)
    with pytest.raises(ValueError):
        thin_sheet_coefficients(-math.pi / 2)


@given(st.floats(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6))
def test_thin_sheet_always_passes_the_gate(phi_tau):
    rho, tau = thin_sheet_coefficients(phi_tau)
    make_rbs(rho, tau)
