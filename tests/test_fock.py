"""State container behavior: canonical form, norms, distributions, JSON."""

import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockpath import (
    BasisState,
    Mode,
    NullStateError,
    PhotonState,
    UnknownPortError,
    expected_photon_number,
    inner_product,
    make_rbs,
    max_amplitude_difference,
    normalize,
    number_distribution,
    state_from_json,
    state_to_json,
    tensor_product,
)
from fockpath import paths

AX = Mode("a", "x")
AY = Mode("a", "y")
BX = Mode("b", "x")


def test_basis_state_drops_zero_counts():
    assert BasisState({AX: 2, AY: 0}) == BasisState({AX: 2})


def test_basis_state_insertion_order_irrelevant():
    assert BasisState({AX: 1, BX: 2}) == BasisState({BX: 2, AX: 1})
    assert hash(BasisState({AX: 1, BX: 2})) == hash(BasisState({BX: 2, AX: 1}))


def test_basis_state_rejects_negative_counts():
    with pytest.raises(ValueError):
        BasisState({AX: -1})


def test_basis_state_replace_rejects_negative_counts():
    bs = BasisState({AX: 2, BX: 1})
    with pytest.raises(ValueError):
        bs.replace({AX: -1})
    assert bs.replace({AX: 0, AY: 3}) == BasisState({AY: 3, BX: 1})


def test_basis_state_label_and_parse():
    bs = BasisState({AX: 2, BX: 1})
    assert bs.label() == "a.x=2;b.x=1"
    assert BasisState().label() == "vacuum"
    assert Mode.from_label("a.x") == AX


def test_basis_state_totals():
    bs = BasisState({AX: 2, AY: 1, BX: 3})
    assert bs.total == 6
    assert bs.port_total("a") == 3
    assert bs.port_total("b") == 3
    assert bs.port_total("missing") == 0


def test_photon_state_accumulates_duplicate_terms():
    k = BasisState({AX: 1})
    s = PhotonState([(k, 0.5), (k, 0.5)])
    assert s.amplitude(k) == 1.0


def test_photon_state_rejects_non_finite():
    with pytest.raises(ValueError):
        PhotonState({BasisState({AX: 1}): complex("nan")})


def test_normalize_345():
    s = PhotonState({BasisState({AX: 1}): 3.0, BasisState(): 4.0})
    out = normalize(s)
    assert abs(out.amplitude(BasisState({AX: 1})) - 0.6) < 1e-15
    assert abs(out.amplitude(BasisState()) - 0.8) < 1e-15


def test_normalize_identity_on_unit_state():
    s = PhotonState({BasisState({AX: 2, BX: 1}): 1.0})
    out = normalize(s)
    assert out.amplitude(BasisState({AX: 2, BX: 1})) == 1.0


def test_normalize_null_state_raises():
    with pytest.raises(NullStateError):
        normalize(PhotonState({}))


def test_normalize_scales_by_positive_real():
    # a state of squared norm 2 gets divided by sqrt(2), phases untouched
    s = PhotonState({BasisState({AX: 1}): 1j, BasisState({AY: 1}): 1.0})
    out = normalize(s)
    assert abs(out.amplitude(BasisState({AX: 1})) - 1j / math.sqrt(2)) < 1e-15
    assert abs(out.norm_squared() - 1.0) < 1e-12


def test_inner_product_conjugate_linear_in_first_argument():
    k1, k2 = BasisState({AX: 1}), BasisState({AY: 1})
    a = PhotonState({k1: 1j})
    b = PhotonState({k1: 0.5, k2: 0.5})
    # <i k1 | b> = conj(i) * 0.5
    assert inner_product(a, b) == pytest.approx(-0.5j)
    assert inner_product(b, a) == pytest.approx(0.5j)


def test_inner_product_orthogonal_states():
    a = PhotonState({BasisState({AX: 2}): 1.0})
    b = PhotonState({BasisState({AY: 2}): 1.0})
    assert inner_product(a, b) == 0.0
    assert inner_product(a, a) == 1.0


def test_number_distribution_single_port():
    s = PhotonState(
        {
            BasisState({AX: 2}): 0.5,
            BasisState({AX: 1, AY: 1}): 1 / math.sqrt(2),
            BasisState({AY: 2}): 0.5,
        }
    )
    # counting y photons is done by the caller via a dedicated port in
    # circuits; here the whole port holds 2 photons always
    dist = number_distribution(s, "a")
    assert dist == {2: pytest.approx(1.0)}


def test_number_distribution_marginalizes():
    s = PhotonState(
        {
            BasisState({AX: 2}): 0.5,
            BasisState({AX: 1, BX: 1}): 1 / math.sqrt(2),
            BasisState({BX: 2}): 0.5,
        }
    )
    dist = number_distribution(s, "a")
    assert dist[0] == pytest.approx(0.25)
    assert dist[1] == pytest.approx(0.5)
    assert dist[2] == pytest.approx(0.25)
    joint = number_distribution(s, ["a", "b"])
    assert joint[(2, 0)] == pytest.approx(0.25)
    assert joint[(1, 1)] == pytest.approx(0.5)
    assert joint[(0, 2)] == pytest.approx(0.25)
    assert sum(joint.values()) == pytest.approx(1.0)


def test_number_distribution_vacuum():
    assert number_distribution(PhotonState.vacuum(), "anything") == {0: 1.0}


def test_number_distribution_unknown_port():
    s = PhotonState({BasisState({AX: 1}): 1.0}, ports=["a"])
    with pytest.raises(UnknownPortError):
        number_distribution(s, "zzz")


def test_expected_photon_number():
    s = PhotonState(
        {BasisState({AX: 2}): 1 / math.sqrt(2), BasisState(): 1 / math.sqrt(2)}
    )
    assert expected_photon_number(s, "a") == pytest.approx(1.0)


def test_tensor_product_disjoint():
    a = PhotonState({BasisState({AX: 1}): 1.0})
    b = PhotonState({BasisState({BX: 2}): 1.0})
    t = tensor_product(a, b)
    assert t.amplitude(BasisState({AX: 1, BX: 2})) == 1.0


def test_tensor_product_rejects_shared_modes():
    a = PhotonState({BasisState({AX: 1}): 1.0})
    with pytest.raises(ValueError):
        tensor_product(a, a)


def test_json_round_trip():
    s = PhotonState(
        {
            BasisState({AX: 2, BX: 1}): 0.6,
            BasisState({AY: 3}): 0.8j,
        },
        ports=["a", "b"],
    )
    text = state_to_json(s)
    rows = json.loads(text)
    assert rows[0]["occupancy"] == {"a.x": 2, "b.x": 1}
    back = state_from_json(text)
    assert back.terms == s.terms


def test_json_is_sorted_deterministically():
    s1 = PhotonState({BasisState({AX: 1}): 0.6, BasisState({BX: 1}): 0.8})
    s2 = PhotonState({BasisState({BX: 1}): 0.8, BasisState({AX: 1}): 0.6})
    assert state_to_json(s1) == state_to_json(s2)


def test_amplitude_of_mode_outside_the_state_is_zero():
    s = PhotonState({BasisState({AX: 1}): 1.0})
    assert s.amplitude(BasisState({BX: 1})) == 0j
    assert s.amplitude({AX: 1, BX: 1}) == 0j
    assert s.amplitude({AX: 1, BX: 0}) == 1.0


def test_slot_order_never_shows():
    # an identity splitter's outputs take its inputs' slots, so the moved
    # state keys its terms over (b.x, a.x) where a direct build sorts them
    cx, dx = Mode("c", "x"), Mode("d", "x")
    start = PhotonState({BasisState({cx: 1, dx: 1}): 0.6, BasisState({cx: 2}): 0.8j})
    identity = make_rbs(1.0, 0.0, in_modes=(dx, cx), out_modes=(AX, BX))
    moved = paths.apply_transform(start, identity)
    assert moved._slots == (BX, AX)
    terms = {BasisState({AX: 1, BX: 1}): 0.6, BasisState({BX: 2}): 0.8j}
    for direct in (PhotonState(terms), PhotonState(dict(reversed(terms.items())))):
        direct = normalize(direct)
        assert direct.terms == moved.terms
        assert direct.sorted_terms() == moved.sorted_terms()
        assert state_to_json(direct) == state_to_json(moved)
        assert max_amplitude_difference(direct, moved) == 0.0


def test_max_amplitude_difference_across_mode_sets():
    a = PhotonState({BasisState({AX: 1}): 0.6, BasisState({BX: 1}): 0.8})
    b = PhotonState({BasisState({AX: 1}): 0.6, BasisState({AY: 1}): -0.8})
    assert max_amplitude_difference(a, b) == 0.8
    assert max_amplitude_difference(a, a) == 0.0


def _public_key_difference(a, b):
    """max_amplitude_difference written over the public BasisState keys."""
    ta, tb = a.terms, b.terms
    keys = ta.keys() | tb.keys()
    if not keys:
        return 0.0
    return max(abs(ta.get(k, 0j) - tb.get(k, 0j)) for k in keys)


def _random_state_pairs(seed, count):
    """Pairs of states over random slot orders and mode sets; about a third
    hold the same terms over a permuted slot table."""
    rng = random.Random(seed)
    modes = [AX, AY, BX, Mode("c", "x"), Mode("d", "x")]

    def random_state():
        # slots in random order, some of them empty in every term
        slots = tuple(rng.sample(modes, rng.randint(0, len(modes))))
        terms = {
            tuple(rng.randint(0, 2) for _ in slots): complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for _ in range(rng.randint(0, 6))
        }
        return PhotonState._from_slots(slots, terms, {m.port for m in slots})

    for _ in range(count):
        a, b = random_state(), random_state()
        if rng.random() < 0.3:
            order = rng.sample(range(len(a._slots)), len(a._slots))
            slots = tuple(a._slots[i] for i in order)
            terms = {tuple(k[i] for i in order): v for k, v in a._terms.items()}
            b = PhotonState._from_slots(slots, terms, a.ports)
        yield a, b


def test_max_amplitude_difference_matches_public_key_formula():
    for a, b in _random_state_pairs(8, 300):
        for x, y in ((a, b), (b, a), (a, a)):
            assert max_amplitude_difference(x, y) == _public_key_difference(x, y)


def test_inner_product_matches_public_key_formula():
    for a, b in _random_state_pairs(9, 300):
        for x, y in ((a, b), (b, a), (a, a)):
            tx, ty = x.terms, y.terms
            want = sum(amp.conjugate() * ty.get(bs, 0j) for bs, amp in tx.items())
            assert inner_product(x, y) == pytest.approx(want, abs=1e-15)


def test_expected_photon_number_matches_public_key_formula():
    for a, _ in _random_state_pairs(10, 300):
        for port in a.ports:
            want = math.fsum(abs(amp) ** 2 * bs.port_total(port) for bs, amp in a.terms.items())
            assert expected_photon_number(a, port) == pytest.approx(want, rel=1e-15, abs=1e-15)


amplitudes = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@given(st.lists(amplitudes, min_size=1, max_size=6))
def test_normalize_always_unit_norm(amps):
    terms = {BasisState({Mode(f"p{i}", "x"): 1}): a for i, a in enumerate(amps)}
    s = PhotonState(terms)
    if s.norm_squared() <= 0:  # everything below the pruning threshold
        return
    out = normalize(s)
    assert abs(out.norm_squared() - 1.0) < 1e-12


@given(
    st.lists(
        st.tuples(st.integers(0, 3), amplitudes), min_size=1, max_size=5
    )
)
def test_pruning_changes_no_probability_much(entries):
    terms = {}
    for n, a in entries:
        terms[BasisState({AX: n})] = terms.get(BasisState({AX: n}), 0) + a
    # the constructor drops amplitudes strictly below the threshold, so an
    # amplitude of exactly 1e-14 survives
    kept = {k: v for k, v in terms.items() if abs(v) >= 1e-14}
    if not kept:
        return
    s = PhotonState(terms)
    for k, v in kept.items():
        assert abs(s.amplitude(k) - v) < 1e-13
    dropped = set(terms) - set(kept)
    for k in dropped:
        assert abs(s.amplitude(k)) == 0.0


@given(st.integers(0, 5), st.integers(0, 5))
def test_basis_state_combine_adds_counts(n, m):
    a = BasisState({AX: n}) if n else BasisState()
    b = BasisState({AX: m, BX: 1})
    c = a.combine(b)
    assert c.count(AX) == n + m
    assert c.count(BX) == 1
