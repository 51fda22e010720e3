"""Creation-operator engine: polynomial round trips, substitution, inverses."""

import itertools
import math
import operator
import random
import re
import warnings

import pytest

from fockpath import (
    BasisState,
    CreationPolynomial,
    Mode,
    ModeMismatchError,
    PhotonBudgetError,
    PhotonState,
    initial_state,
    inner_product,
    make_pbs,
    make_phase_shifter,
    make_polarization_rotation,
    make_rbs,
    make_split50_rbs,
    make_waveplate,
    parse_circuit,
    polynomial_to_state,
    random_circuit_text,
    run_circuit,
    state_to_polynomial,
    substitute_modes,
)
from fockpath import fock, operators, paths
from fockpath.fock import _at, _counts, _key, max_amplitude_difference, normalize

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


def _tuple_product(p, q):
    """Product of two polynomials keyed by exponent tuples."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(map(operator.add, k1, k2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _image_reference(matrix, exponents):
    """Each column power expanded from scratch over exponent tuples, with no
    shared powers."""
    n = len(exponents)
    one = {(0,) * n: 1.0 + 0j}
    image = one
    for j, e in enumerate(exponents):
        base = {
            tuple(int(r == i) for r in range(n)): matrix[i][j]
            for i in range(n)
            if matrix[i][j] != 0
        }
        power = one
        for _ in range(e):
            power = _tuple_product(power, base)
        image = _tuple_product(image, power)
    return list(image.items())


@pytest.mark.parametrize(
    "matrix",
    [
        make_rbs(0.6, 0.8j).matrix,
        make_waveplate(0.7, 0.3).matrix,
        make_pbs(0.0).matrix,
        make_phase_shifter(1.1).matrix,
    ],
)
def test_image_with_shared_powers_matches_fresh_expansion(matrix):
    n = len(matrix)
    tuples = [t for t in itertools.product(range(5), repeat=n) if sum(t) <= 4]
    # rerouted slot tables are not sorted, so output slots come in any order
    for outs in (tuple(range(1, 2 * n, 2)), tuple(range(2 * n - 1, 0, -2))):
        for order in (tuples, tuples[::-1], random.Random(2).sample(tuples, len(tuples))):
            powers = {}
            for exponents in order:
                image = operators._image(matrix, exponents, outs, powers)
                got = [(tuple(_at(k, outs)), c) for k, c in image]
                # repr tells -0.0 from 0.0, so this is equality bit for bit
                assert repr(got) == repr(_image_reference(matrix, exponents)), (outs, exponents)


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
    """``state`` with a zero-count slot for each mode in ``empty``, placed
    first, so that every key moves to the fields above them."""
    size, zeros = len(state._slots), [0] * len(empty)
    terms = {_key(zeros + list(_counts(k, size))): a for k, a in state._terms.items()}
    return PhotonState._from_slots(tuple(empty) + state._slots, terms, state.ports)


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


# --- the whole circuit at once ------------------------------------------------


def test_evolve_matches_element_by_element_substitution(circuits_dir):
    """Composing every element before the one expansion gives what
    expanding after each element gives, term for term."""
    rng = random.Random(404)
    texts = [f.read_text() for f in sorted(circuits_dir.glob("*.fpc"))]
    texts += [random_circuit_text(rng, max_elements=6) for _ in range(200)]
    for text in texts:
        circuit = parse_circuit(text)
        start = initial_state(circuit)
        stepped = start
        for t, _ in circuit.bound:
            stepped = operators.apply_transform(stepped, t)
        whole = operators.evolve(start, circuit.bound)
        assert whole.terms.keys() == stepped.terms.keys(), text
        assert whole.ports == stepped.ports
        assert max_amplitude_difference(whole, stepped) < 1e-14, text


def _run(text, engine):
    return run_circuit(parse_circuit(text), engine=engine).state


# circuits whose operators walk stops before a rerouting element, expands,
# and walks on: a photon at 45 degrees turned to x keeps a row at r.y that
# cancels in the state
WALK_SPLITTING = [
    "port a\nport t\nport r\nport e\nport f\nport g\nsource a linpol angle=45 n=1\n"
    "rotpol angle=45 on a\npbs axis=0 a -> t r\nrbs split=50 e f -> r g\n",
    "port a\nport b\nport t\nport r\nport e\nport f\nport g\nsource a linpol angle=45 n=2\n"
    "source b fock 1 pol x\nrotpol angle=45 on a\npbs axis=0 a -> t r\n"
    "rbs split=50 b f -> r g\nrbs split=50 t g -> e f\nphase deg=30 on e\n",
]


def test_both_engines_end_every_circuit_on_one_slot_table(circuits_dir, monkeypatch):
    """Slot tables only grow, each element appending the modes it names
    that have none yet, inputs before outputs, so the two engines end on
    one table, and a state's ports are its declared ports plus every
    element's."""
    walks = []
    composed = operators._composed

    def counted(slots, terms, bound):
        walks.append(bound)
        return composed(slots, terms, bound)

    monkeypatch.setattr(operators, "_composed", counted)
    rng = random.Random(30)
    texts = [f.read_text() for f in sorted(circuits_dir.glob("*.fpc"))] + WALK_SPLITTING
    texts += [random_circuit_text(rng, max_elements=6) for _ in range(200)]
    split = 0
    for text in texts:
        circuit = parse_circuit(text)
        start = initial_state(circuit)
        walks.clear()
        by_paths = paths.evolve(start, circuit.bound)
        by_operators = operators.evolve(start, circuit.bound)
        split += len(walks) > 1
        named = [m for t, _ in circuit.bound for m in t.in_modes + t.out_modes]
        assert by_paths._slots == by_operators._slots == start._slots + tuple(
            m for m in dict.fromkeys(named) if m not in start._slots
        ), text
        ports = set(circuit.ports) | {m.port for m in named}
        assert by_paths.ports == by_operators.ports == ports, text
    assert split >= 2


def test_polynomial_to_state_ports_include_every_slot():
    # a slot empty in every monomial still names its port, as in an engine
    # state: the input modes a substitution emptied, or a hand-built table
    poly = state_to_polynomial(PhotonState({BasisState({M1: 1, M2: 1}): 1.0}))
    moved = substitute_modes(poly, make_split50_rbs(in_modes=(M1, M2), out_modes=(M3, M4)))
    assert moved._slots == (M1, M2, M3, M4)
    assert polynomial_to_state(moved).ports == {"1", "2", "3", "4"}
    spare = CreationPolynomial._trusted((M1, M3), {_key([1, 0]): 1.0 + 0j})
    assert polynomial_to_state(spare).ports == {"1", "3"}
    assert polynomial_to_state(spare, ports=["9"]).ports == {"1", "3", "9"}


@pytest.mark.parametrize("engine", ["paths", "operators"])
def test_rerouting_into_a_mode_an_earlier_element_filled_fails_at_its_line(engine):
    text = (
        "port a\nport b\nport c\nport d\nport e\nport f\nport g\n"
        "source a fock 1 pol x\nrbs split=50 a b -> c d\nrbs split=50 e f -> c g\n"
    )
    with pytest.raises(ModeMismatchError, match="^line 10: output mode c.x is already occupied$"):
        _run(text, engine)
    # once the photon has moved on, its mode may be filled again
    moved_on = text.replace("rbs split=50 e f", "rbs split=50 c d -> e f\nrbs split=50 e f")
    assert _run(moved_on, engine).terms.keys() == _run(moved_on, "paths").terms.keys()


@pytest.mark.parametrize("engine", ["paths", "operators", "both"])
def test_rounding_leaves_no_mode_occupied(engine):
    # two half-wave plates at 22.5 degrees give the x photon back with a y
    # part of about 1e-17, which the pbs sends to r.y; the splitter after it
    # may still write to r, since no amplitude of PRUNE_EPS reaches it
    text = (
        "port a\nport b\nport t\nport r\nport e\nport f\nport g\nsource a fock 1 pol x\n"
        "waveplate phase=180 axis=22.5 on a\nwaveplate phase=180 axis=22.5 on a\n"
        "pbs axis=0 a -> t r\nrbs split=50 e f -> r g\n"
    )
    [(basis, amp)] = _run(text, engine)
    assert basis.label() == "t.x=1" and abs(amp - 1) < 1e-15


@pytest.mark.parametrize("engine", ["paths", "operators", "both"])
@pytest.mark.parametrize("angle", [45, -45])
def test_rerouting_into_a_mode_whose_amplitudes_cancelled(engine, angle):
    # one photon at 45 degrees holds the x and y slots of a; turned to x, its
    # y coefficient is nonzero in each slot's image but cancels in the sum,
    # so the pbs leaves r.y empty and the splitter may write to r; turned to
    # y, it fills r.y
    text = (
        "port a\nport t\nport r\nport e\nport f\nport g\nsource a linpol angle=45 n=1\n"
        f"rotpol angle={angle} on a\npbs axis=0 a -> t r\nrbs split=50 e f -> r g\n"
    )
    if angle < 0:
        with pytest.raises(ModeMismatchError, match="^line 10: output mode r.y is already occupied$"):
            _run(text, engine)
        return
    [(basis, amp)] = _run(text, engine)
    assert basis.label() == "t.x=1" and abs(abs(amp) - 1) < 1e-15


@pytest.mark.parametrize("engine", ["paths", "operators"])
def test_state_size_guard_counts_only_terms_that_survive_pruning(engine, monkeypatch):
    # |1, 1> at a 50:50 splitter: the operators engine's expansion holds the
    # (1, 1) key too, but its amplitude cancels below PRUNE_EPS
    hom = "port a\nport b\nsource a fock 1\nsource b fock 1\nrbs split=50 a b -> a b\n"
    monkeypatch.setattr(fock, "MAX_TERMS", 2)
    assert len(_run(hom, engine)) == 2


# two weak coherent beams on ports no element touches: 25 spectator terms
SPECTATORS = (
    "port a\nport b\nport c\nport d\nport s\nport u\n{source}\n"
    "source s coherent re=0.1 im=0.02\nsource u coherent re=0 im=0.1 pol y\n{elements}"
)


@pytest.mark.parametrize("engine", ["paths", "operators", "both"])
def test_state_size_guard_allows_cancellation_between_input_terms(engine, monkeypatch):
    # the three terms of two photons at 45 degrees reach ten keys each at the
    # splitter, but the half-wave plate turns them to x first, so only three
    # survive their sum; the first source's terms come first in the input,
    # so the expansion holds ten keys per spectator term for a while
    text = SPECTATORS.format(
        source="source a linpol angle=45 n=2",
        elements="waveplate phase=180 axis=22.5 on a\nrbs split=50 a b -> c d\n",
    )
    monkeypatch.setattr(fock, "MAX_TERMS", 100)
    state = run_circuit(parse_circuit(text), engine=engine, max_photons=12).state
    assert len(state) == 75


def test_state_size_guard_stops_the_expansion_early(monkeypatch):
    # each spectator term's image lands on keys of its own, so once the sum
    # holds more terms than those still to come can cancel, the final state
    # must pass the limit, long before the last input term
    text = SPECTATORS.format(source="source a fock 1", elements="rbs split=50 a b -> c d\n")
    circuit = parse_circuit(text)
    full = len(run_circuit(circuit, engine="operators", max_photons=12).state)
    monkeypatch.setattr(fock, "MAX_TERMS", full // 2)  # the input's size
    with pytest.raises(PhotonBudgetError, match="^line 10: the state has at least ") as caught:
        run_circuit(circuit, engine="operators", max_photons=12)
    reached = int(re.search(r"at least (\d+) terms", str(caught.value)).group(1))
    assert full // 2 < reached < full
