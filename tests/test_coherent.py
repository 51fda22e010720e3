"""Coherent-state truncation, classical element action, engine fidelity."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockpath import (
    BasisState,
    CoherentParams,
    Mode,
    NullStateError,
    PhaseRelationError,
    TruncationError,
    coherent_fidelity,
    coherent_fock_coefficients,
    coherent_state,
    combine_polarized_coherent,
    default_truncation,
    parse_circuit,
    poisson_tail,
    rbs_coherent_output,
    run_circuit,
    waveplate_coherent_output,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Survival function of the Poisson distribution, frozen from an
# arbitrary-precision evaluation of 1 - e^-m sum_{k<=n} m^k / k!.
# Entries: (mean, n, P(X > n)).
POISSON_TAIL_REFS = [
    (0.0225, 0, 0.022248762806663637),
    (0.0225, 4, 4.7161814620742164e-11),
    (0.25, 6, 9.734521814031624e-09),
    (0.25, 8, 8.396399108985122e-12),
    (1.0, 20, 7.542625077205278e-21),
    (1.21, 10, 6.75678930342007e-08),
    (1.21, 13, 5.363063234842455e-11),
    (4.0, 8, 0.021363434487984164),
    (4.0, 30, 1.1732435431464345e-17),
]


def test_poisson_tail_against_frozen_references():
    # below ~1e-16 the float subtraction saturates, hence the abs floor
    for mean, n, expected in POISSON_TAIL_REFS:
        got = poisson_tail(mean, n)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-13), (mean, n)
        assert 0.0 <= got <= 1.0


def test_poisson_tail_edge_cases():
    assert poisson_tail(0.0, 0) == 0.0
    assert poisson_tail(0.0, 5) == 0.0
    with pytest.raises(ValueError):
        poisson_tail(-1.0, 3)


def test_poisson_tail_rejects_underflowing_start():
    # e^{-800} underflows: the sum read 1 - 0, a tail of 1 where it is ~0
    with pytest.raises(TruncationError, match="underflows"):
        poisson_tail(800.0, 2000)
    assert poisson_tail(700.0, 2000) < 1e-12  # e^{-700} is still normal


def test_coherent_params_reject_negative_truncation():
    with pytest.raises(ValueError, match="truncation"):
        CoherentParams(0.1, -1)


def test_default_truncation_goldens():
    assert default_truncation(0.0) == 0
    assert default_truncation(0.15) == 4
    assert default_truncation(0.4 + 0.3j) == 8
    assert default_truncation(1.1) == 13


def test_default_truncation_cap():
    assert default_truncation(1.1, cap=13) == 13
    with pytest.raises(TruncationError):
        default_truncation(1.1, cap=8)


@pytest.mark.parametrize(
    "gamma",
    [
        complex(math.inf),
        complex(0, -math.inf),
        complex(math.nan),
        1e200,
        1e200j,
        complex(1.7e308, 1.7e308),
    ],
)
def test_default_truncation_rejects_non_finite_mean(gamma):
    with pytest.raises(TruncationError):
        default_truncation(gamma)
    with pytest.raises(TruncationError):
        default_truncation(gamma, cap=8)


def test_default_truncation_rejects_underflowing_tail():
    # e^{-900} underflows, so no cutoff's Poisson tail can be resolved
    assert default_truncation(20) == 534
    with pytest.raises(TruncationError):
        default_truncation(30)


def test_coefficients_reject_non_finite_mean():
    for gamma in (1e200, complex(1.7e308, 1.7e308), complex(math.nan)):
        with pytest.raises(TruncationError):
            coherent_fock_coefficients(CoherentParams(gamma, 3))


def test_coefficients_vacuum():
    coeffs = coherent_fock_coefficients(CoherentParams(0j, 3))
    assert coeffs == [1.0, 0.0, 0.0, 0.0]


def test_coefficients_unit_gamma():
    coeffs = coherent_fock_coefficients(CoherentParams(1.0 + 0j, 20))
    assert coeffs[0] == pytest.approx(math.exp(-0.5))
    for n, c in enumerate(coeffs):
        assert abs(c) ** 2 == pytest.approx(
            math.exp(-1.0) / math.factorial(n), rel=1e-12
        )


def test_coefficients_carry_gamma_phase():
    gamma = 0.5 * cmath.exp(0.7j)
    coeffs = coherent_fock_coefficients(CoherentParams(gamma, 8))
    for n in range(1, 9):
        assert coeffs[n] == pytest.approx(coeffs[n - 1] * gamma / math.sqrt(n))


def test_coefficients_reject_lossy_truncation():
    # one term short of the tail tolerance for |gamma| = 1.1
    with pytest.raises(TruncationError):
        coherent_fock_coefficients(CoherentParams(1.1, 12))


def test_coherent_state_is_normalized():
    state = coherent_state(CoherentParams(0.9, default_truncation(0.9)), Mode("a", "x"))
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
    c0 = state.amplitude(BasisState({Mode("a", "x"): 0}))
    c1 = state.amplitude(BasisState({Mode("a", "x"): 1}))
    assert c1 / c0 == pytest.approx(0.9)


def test_rbs_output_balanced():
    g3, g4 = rbs_coherent_output(0.8, 0.0, INV_SQRT2, 1j * INV_SQRT2)
    assert g3 == pytest.approx(0.8 * INV_SQRT2)
    assert g4 == pytest.approx(0.8j * INV_SQRT2)


def test_rbs_output_conserves_energy():
    g3, g4 = rbs_coherent_output(0.3 + 0.4j, -0.2j, 0.6, 0.8j)
    assert abs(g3) ** 2 + abs(g4) ** 2 == pytest.approx(
        abs(0.3 + 0.4j) ** 2 + abs(0.2j) ** 2
    )


def test_rbs_output_validates_coefficients():
    with pytest.raises(PhaseRelationError):
        rbs_coherent_output(1.0, 0.0, 0.6, 0.8)


def test_waveplate_output():
    assert waveplate_coherent_output(0.5j, math.pi) == pytest.approx(-0.5j)
    assert waveplate_coherent_output(1.0, math.pi / 2) == pytest.approx(1j)


def test_combine_polarized_goldens():
    gamma, theta, dphi = combine_polarized_coherent(1.0, 0.0)
    assert (gamma, theta, dphi) == (1.0, 0.0, 0.0)

    gamma, theta, dphi = combine_polarized_coherent(1.0, 1j)
    assert gamma == pytest.approx(math.sqrt(2.0))
    assert theta == pytest.approx(math.pi / 4)
    assert dphi == pytest.approx(math.pi / 2)

    gamma, theta, dphi = combine_polarized_coherent(3.0, 4.0)
    assert gamma == pytest.approx(5.0)
    assert theta == pytest.approx(math.atan2(4.0, 3.0))
    assert dphi == 0.0


def test_combine_polarized_zero_first_component():
    gamma, theta, dphi = combine_polarized_coherent(0.0, 2j)
    assert gamma == pytest.approx(2j)
    assert theta == pytest.approx(math.pi / 2)
    assert dphi == 0.0


def test_combine_polarized_rejects_dark_beam():
    with pytest.raises(NullStateError):
        combine_polarized_coherent(0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
# phases that underflow: cmath.phase raised OverflowError on these
@example(2 + 5e-324j, 0j)
@example(1 + 0j, 2 + 5e-324j)
def test_combine_polarized_reconstructs(g1, g2):
    if abs(g1) == 0.0 and abs(g2) == 0.0:
        return
    gamma, theta, dphi = combine_polarized_coherent(g1, g2)
    assert abs(gamma * math.cos(theta) - g1) < 1e-12 * max(1.0, abs(gamma))
    assert (
        abs(gamma * cmath.exp(1j * dphi) * math.sin(theta) - g2)
        < 1e-12 * max(1.0, abs(gamma))
    )


def test_fidelity_of_exact_truncated_state():
    mode = Mode("a", "x")
    params = CoherentParams(0.4 + 0.3j, default_truncation(0.4 + 0.3j))
    state = coherent_state(params, mode)
    assert coherent_fidelity(state, {mode: params}) >= 1.0 - 1e-10


def test_fidelity_requires_targets():
    state = coherent_state(CoherentParams(0j, 0), Mode("a", "x"))
    with pytest.raises(ValueError):
        coherent_fidelity(state, {})


def test_engine_evolution_matches_classical_mixing():
    text = (
        "port a\nport b\nport c\nport d\n"
        "source a coherent re=1.1 im=0 pol x\n"
        "source b coherent re=0.4 im=0.3 pol x\n"
        "rbs split=50 a b -> c d\n"
    )
    circuit = parse_circuit(text)
    result = run_circuit(circuit, engine="both", max_photons=21)
    assert result.discrepancy < 1e-10

    g3, g4 = rbs_coherent_output(1.1, 0.4 + 0.3j, INV_SQRT2, 1j * INV_SQRT2)
    targets = {
        Mode("c", "x"): CoherentParams(g3, default_truncation(g3)),
        Mode("d", "x"): CoherentParams(g4, default_truncation(g4)),
    }
    assert coherent_fidelity(result.state, targets) >= 1.0 - 1e-8


def test_corpus_circuit_interferes_onto_one_port(circuits_dir):
    text = (circuits_dir / "coherent.fpc").read_text()
    result = run_circuit(parse_circuit(text), engine="paths")
    # rho g1 + tau g2 vanishes for this input, so port c stays dark
    # up to the truncation error of the sources
    p_c_excited = sum(
        p for n, p in result.distributions["c"].items() if n >= 1
    )
    assert p_c_excited < 1e-9

    g4 = rbs_coherent_output(0.15, 0.15j, INV_SQRT2, 1j * INV_SQRT2)[1]
    g4 = waveplate_coherent_output(g4, math.radians(30.0))
    mean_d = sum(n * p for n, p in result.distributions["d"].items())
    assert mean_d == pytest.approx(abs(g4) ** 2, abs=1e-8)
    fid = coherent_fidelity(
        result.state,
        {
            Mode("c", "x"): CoherentParams(0j, 0),
            Mode("d", "x"): CoherentParams(g4, default_truncation(g4)),
        },
    )
    assert fid >= 1.0 - 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False)
)
def test_truncation_keeps_norm_within_tolerance(gamma):
    coeffs = coherent_fock_coefficients(
        CoherentParams(gamma, default_truncation(gamma))
    )
    kept = math.fsum(abs(c) ** 2 for c in coeffs)
    assert 1.0 - 1e-10 <= kept <= 1.0 + 1e-12
