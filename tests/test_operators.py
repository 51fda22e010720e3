"""Creation-operator engine: polynomial round trips, substitution, inverses."""

import math
import random
import warnings

import pytest

from fockpath import (
    BasisState,
    CreationPolynomial,
    Mode,
    PhotonState,
    inner_product,
    make_pbs,
    make_phase_shifter,
    make_polarization_rotation,
    make_rbs,
    make_split50_rbs,
    make_waveplate,
    polynomial_to_state,
    state_to_polynomial,
    substitute_modes,
)
from fockpath import operators, paths
from fockpath.fock import max_amplitude_difference, normalize

M1, M2 = Mode("1", "x"), Mode("2", "x")
M3, M4 = Mode("3", "x"), Mode("4", "x")
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_state_to_polynomial_divides_by_sqrt_factorials():
    s = PhotonState({BasisState({M1: 2, M2: 1}): 1.0})
    poly = state_to_polynomial(s)
    assert poly.coefficient(BasisState({M1: 2, M2: 1})) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )


def test_state_to_polynomial_single_photon_untouched():
    s = PhotonState({BasisState({M1: 1}): 1.0})
    poly = state_to_polynomial(s)
    assert poly.coefficient(BasisState({M1: 1})) == 1.0


def test_state_to_polynomial_two_photon_pair_state():
    s = PhotonState(
        {BasisState({M1: 2}): INV_SQRT2, BasisState({M2: 2}): INV_SQRT2}
    )
    poly = state_to_polynomial(s)
    # (1/sqrt2) / sqrt(2!) = 1/2 on each squared operator
    assert poly.coefficient(BasisState({M1: 2})) == pytest.approx(0.5)
    assert poly.coefficient(BasisState({M2: 2})) == pytest.approx(0.5)


def test_polynomial_to_state_round_trip():
    rng = random.Random(3)
    terms = {}
    for _ in range(5):
        occ = BasisState(
            {M1: rng.randint(0, 2), M2: rng.randint(0, 2), M3: rng.randint(0, 2)}
        )
        terms[occ] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    s = PhotonState(terms)
    from fockpath.fock import normalize

    s = normalize(s)
    back = polynomial_to_state(state_to_polynomial(s))
    assert max_amplitude_difference(s, back) < 1e-12


def test_polynomial_to_state_bose_enhancement_unnormalized():
    poly = CreationPolynomial({BasisState({M1: 3}): 1.0})
    with pytest.warns(RuntimeWarning):
        raw = polynomial_to_state(poly, normalized=False)
    assert raw.amplitude(BasisState({M1: 3})) == pytest.approx(math.sqrt(6.0))


def test_polynomial_to_state_product_operators():
    poly = CreationPolynomial({BasisState({M1: 1, M2: 1}): 1.0})
    s = polynomial_to_state(poly)
    assert s.amplitude(BasisState({M1: 1, M2: 1})) == pytest.approx(1.0)


def test_substitution_expands_squared_times_single():
    rho, tau = 0.6, 0.8j
    t = make_rbs(rho, tau, in_modes=(M1, M2), out_modes=(M3, M4))
    poly = CreationPolynomial({BasisState({M1: 2, M2: 1}): 1.0})
    out = substitute_modes(poly, t)
    assert out.coefficient(BasisState({M3: 3})) == pytest.approx(rho**2 * tau)
    assert out.coefficient(BasisState({M3: 2, M4: 1})) == pytest.approx(
        rho**3 + 2 * rho * tau**2
    )
    assert out.coefficient(BasisState({M3: 1, M4: 2})) == pytest.approx(
        tau**3 + 2 * rho**2 * tau
    )
    assert out.coefficient(BasisState({M4: 3})) == pytest.approx(rho * tau**2)


def test_substitution_50_50_pair_gives_product_term():
    t = make_split50_rbs(in_modes=(M1, M2), out_modes=(M3, M4))
    poly = CreationPolynomial(
        {BasisState({M1: 2}): 0.5, BasisState({M2: 2}): 0.5}
    )
    out = substitute_modes(poly, t)
    # 2*rho*tau = 2*(1/sqrt2)*(i/sqrt2) = i
    assert out.coefficient(BasisState({M3: 1, M4: 1})) == pytest.approx(1j)
    assert abs(out.coefficient(BasisState({M3: 2}))) < 1e-15
    assert abs(out.coefficient(BasisState({M4: 2}))) < 1e-15


def test_substitution_then_inverse_restores_polynomial():
    rng = random.Random(11)
    for _ in range(10):
        rho = rng.uniform(0.1, 0.95)
        tau = 1j * math.sqrt(1 - rho * rho)
        t = make_rbs(rho, tau, in_modes=(M1, M2), out_modes=(M3, M4))
        poly = CreationPolynomial(
            {
                BasisState({M1: 2, M2: 1}): 0.3 + 0.1j,
                BasisState({M1: 1}): -0.4j,
            }
        )
        back = substitute_modes(substitute_modes(poly, t), t.inverse())
        for key, coeff in poly.terms.items():
            assert abs(back.coefficient(key) - coeff) < 1e-12


def test_untouched_operators_pass_through():
    t = make_split50_rbs(in_modes=(M1, M2), out_modes=(M3, M4))
    spectator = Mode("z", "y")
    poly = CreationPolynomial({BasisState({M1: 1, spectator: 2}): 1.0})
    out = substitute_modes(poly, t)
    for key in out.terms:
        assert key.count(spectator) == 2


def test_insertion_order_never_matters():
    t = make_split50_rbs(in_modes=(M1, M2), out_modes=(M3, M4))
    p1 = CreationPolynomial({BasisState({M1: 1, M2: 2}): 1.0})
    p2 = CreationPolynomial({BasisState({M2: 2, M1: 1}): 1.0})
    o1, o2 = substitute_modes(p1, t), substitute_modes(p2, t)
    assert set(o1.terms) == set(o2.terms)
    for key, coeff in o1.terms.items():
        assert o2.coefficient(key) == coeff


def test_apply_transform_agrees_with_paths_engine():
    rng = random.Random(2024)
    for _ in range(25):
        half = rng.uniform(0.05, math.pi / 2 - 0.05)
        phi = rng.uniform(-math.pi, math.pi)
        rho = math.cos(half) * complex(math.cos(phi), math.sin(phi))
        tau = math.sin(half) * complex(
            math.cos(phi + math.pi / 2), math.sin(phi + math.pi / 2)
        )
        t = make_rbs(rho, tau, in_modes=(M1, M2), out_modes=(M3, M4))
        n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
        s = PhotonState({BasisState({M1: n1, M2: n2}): 1.0}, ports=["1", "2"])
        a = paths.apply_transform(s, t)
        b = operators.apply_transform(s, t)
        assert max_amplitude_difference(a, b) < 1e-12


@pytest.mark.parametrize("engine", [paths, operators])
@pytest.mark.parametrize("out_modes", [(M1, M2), (M3, M4)])
def test_apply_transform_ports_are_state_plus_element_ports(engine, out_modes):
    t = make_split50_rbs(in_modes=(M1, M2), out_modes=out_modes)
    s = PhotonState({BasisState({M1: 1}): 1.0}, ports=["1", "9"])
    assert engine.apply_transform(s, t).ports == {"1", "9"} | {
        m.port for m in t.in_modes + t.out_modes
    }


def test_apply_transform_pair_through_splitter_is_product_state():
    t = make_split50_rbs(in_modes=(M1, M2), out_modes=(M3, M4))
    s = PhotonState(
        {BasisState({M1: 2}): INV_SQRT2, BasisState({M2: 2}): INV_SQRT2}
    )
    out = operators.apply_transform(s, t)
    assert out.amplitude(BasisState({M3: 1, M4: 1})) == pytest.approx(1j)
    assert len(out.terms) == 1


def test_identity_transform_preserves_state():
    t = make_rbs(1.0, 0.0, in_modes=(M1, M2), out_modes=(M1, M2))
    s = PhotonState(
        {BasisState({M1: 2}): 0.6, BasisState({M1: 1, M2: 1}): 0.8}
    )
    out = operators.apply_transform(s, t)
    assert abs(inner_product(out, s) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "t",
    [
        make_rbs(0.6, 0.8j, in_modes=(M1, M2), out_modes=(M3, M4)),
        make_pbs(0.3, in_port="1", transmitted_port="4", reflected_port="3"),
        make_waveplate(1.1, 0.4, port="1"),
        make_polarization_rotation(0.7, port="1"),
        make_phase_shifter(2.0, mode=M1),
    ],
    ids=lambda t: t.kind,
)
def test_normalized_state_through_each_element_kind_raises_no_warning(t):
    rng = random.Random(11)
    a, b = t.in_modes if len(t.in_modes) == 2 else (t.in_modes[0], Mode("9", "x"))
    terms = {
        BasisState({a: n1, b: n2}): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n1 in range(4)
        for n2 in range(4 - n1)
    }
    state = normalize(PhotonState(terms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = operators.apply_transform(state, t)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert max_amplitude_difference(out, paths.apply_transform(state, t)) < 1e-12


# --- amplitude-space substitution against the public polynomial route --------

Z = Mode("z", "y")  # a spectator the elements never touch


def _random_superposition(rng, modes, max_photons=4):
    """Normalized random superposition over ``modes`` with up to 4 photons."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        counts = [0] * len(modes)
        for _ in range(rng.randint(0, max_photons)):
            counts[rng.randrange(len(modes))] += 1
        key = BasisState(zip(modes, counts))
        terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return normalize(PhotonState(terms, ports=["0"]))


def _with_empty_slots(state, empty):
    """``state`` with a zero-count slot for each mode in ``empty``."""
    zeros = (0,) * len(empty)
    terms = {k + zeros: a for k, a in state._terms.items()}
    return PhotonState._from_slots(state._slots + tuple(empty), terms, state.ports)


PX, PY = Mode("1", "x"), Mode("1", "y")
PINNED = [
    ("rbs_in_place", make_rbs(0.6, 0.8j, in_modes=(M1, M2), out_modes=(M1, M2)), ()),
    ("rbs_swapped", make_rbs(0.6, 0.8j, in_modes=(M1, M2), out_modes=(M2, M1)), ()),
    ("rbs_fresh", make_rbs(0.6, 0.8j, in_modes=(M1, M2), out_modes=(M3, M4)), ()),
    ("rbs_empty_slots", make_split50_rbs(in_modes=(M2, M1), out_modes=(M4, M3)), (M3, M4)),
    ("pbs", make_pbs(0.3, in_port="1", transmitted_port="4", reflected_port="3"), ()),
    ("waveplate", make_waveplate(1.1, 0.4, port="1"), ()),
    ("rotpol", make_polarization_rotation(0.7, port="1"), ()),
    ("phase", make_phase_shifter(2.0, mode=M1), ()),
]


@pytest.mark.parametrize("name, t, empty", PINNED, ids=[p[0] for p in PINNED])
def test_apply_transform_matches_polynomial_route(name, t, empty):
    rng = random.Random(name)
    ins = t.in_modes if len(t.in_modes) == 2 else (t.in_modes[0], PY)
    for trial in range(40):
        # the first trial leaves the second input mode without a slot
        modes = ins[:1] if trial == 0 else (*ins, Z)
        state = _with_empty_slots(_random_superposition(rng, modes), empty)
        ports = state.ports.union(m.port for m in t.in_modes + t.out_modes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = operators.apply_transform(state, t)
            ref = polynomial_to_state(
                substitute_modes(state_to_polynomial(state), t), ports=ports
            )
        assert out.terms.keys() == ref.terms.keys()
        assert out.ports == ref.ports
        assert max_amplitude_difference(out, ref) <= 1e-15
