"""State container behavior: canonical form, norms, distributions, JSON."""

import itertools
import json
import math
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockpath import (
    BasisState,
    Mode,
    NullStateError,
    PhotonBudgetError,
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
from fockpath.fock import (
    MAX_COUNT,
    PRUNE_EPS,
    _aligned,
    _counts,
    _finished,
    _key,
    check_photon_budget,
)

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
    with pytest.raises(ValueError, match="port.pol"):
        Mode.from_label("ax")


def test_basis_state_coerces_tuples_and_copies_itself():
    bs = BasisState([(("a", "x"), 1)])
    assert bs == BasisState({AX: 1})
    copy = BasisState(bs)
    assert copy == bs and hash(copy) == hash(bs)
    assert repr(bs) == "BasisState(a.x=1)"


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


def test_number_distribution_sorts_a_set_of_ports_and_needs_one():
    s = PhotonState({BasisState({AX: 2, BX: 1}): 1.0})
    assert number_distribution(s, {"b", "a"}) == {(2, 1): 1.0}
    assert number_distribution(s, ["b", "a"]) == {(1, 2): 1.0}
    with pytest.raises(ValueError, match="at least one port"):
        number_distribution(s, [])


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


def test_tensor_product_drops_slots_no_term_occupies():
    # a.y and b.x are empty in every term of a; a.y comes before occupied
    # slots, so a's keys must be re-keyed, not only shifted
    by, cx = Mode("b", "y"), Mode("c", "x")
    a = PhotonState._from_slots((AY, AX, BX, by), {_key([0, 1, 0, 2]): 1.0}, {"a", "b"})
    b = PhotonState({BasisState({BX: 1, cx: 1}): 0.6, BasisState({AY: 3}): 0.8})
    t = tensor_product(b, a)
    assert t._slots == (AY, BX, cx, AX, by)
    assert t.terms == {
        BasisState({BX: 1, cx: 1, AX: 1, by: 2}): 0.6,
        BasisState({AY: 3, AX: 1, by: 2}): 0.8,
    }


def test_tensor_product_of_an_engine_output_matches_a_direct_build():
    # the splitter leaves a.x and b.x as empty slots of the moved state,
    # which the product drops; its ports keep every factor's ports
    cx, dx, ex = Mode("c", "x"), Mode("d", "x"), Mode("e", "x")
    start = PhotonState({BasisState({AX: 1, BX: 1}): 0.6, BasisState({AX: 2}): 0.8}, ports=["z"])
    moved = paths.apply_transform(start, make_rbs(0.6, 0.8j, in_modes=(AX, BX), out_modes=(cx, dx)))
    assert moved._slots == (AX, BX, cx, dx)
    other = PhotonState({BasisState({AY: 2}): 0.6, BasisState({ex: 1}): 0.8j}, ports=["f"])
    for factors in ((moved, other), (other, moved)):
        product = tensor_product(*factors)
        direct = PhotonState(
            {b1.combine(b2): a1 * a2 for b1, a1 in factors[0] for b2, a2 in factors[1]}
        )
        assert product.terms == direct.terms
        assert set(product._slots) == {cx, dx, AY, ex}
        assert product.ports == {"a", "b", "c", "d", "e", "f", "z"}


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


def test_keys_pack_one_byte_per_slot():
    assert _key([]) == 0
    assert _key([3, 0, MAX_COUNT]) == 3 + (MAX_COUNT << 16)
    assert _counts(_key([3, 0, MAX_COUNT]), 4) == bytes([3, 0, MAX_COUNT, 0])


def test_counts_beyond_max_count_cannot_be_keyed():
    with pytest.raises(PhotonBudgetError, match="171 photons in slot 1 exceed the limit of 170"):
        _key([0, MAX_COUNT + 1])
    with pytest.raises(PhotonBudgetError, match="300 photons in b.x exceed the limit of 170"):
        PhotonState({BasisState({AX: 1, BX: 300}): 1.0})
    full = PhotonState({BasisState({AX: MAX_COUNT}): 1.0})
    assert full.amplitude({AX: MAX_COUNT}) == 1.0
    # an occupancy no key can hold has amplitude zero
    assert full.amplitude({AX: MAX_COUNT + 1}) == 0j
    assert full.amplitude({AX: 256}) == 0j


def test_photon_budget_never_exceeds_max_count():
    check_photon_budget(MAX_COUNT, None)
    check_photon_budget(MAX_COUNT, 1000)
    for budget in (None, MAX_COUNT + 1, 1000):
        with pytest.raises(PhotonBudgetError, match="171 photons exceed the limit of 170"):
            check_photon_budget(MAX_COUNT + 1, budget)
    with pytest.raises(PhotonBudgetError, match="configured maximum of 8"):
        check_photon_budget(MAX_COUNT + 1, 8)


def test_slot_order_never_shows():
    # an identity splitter's outputs get new slots after its inputs', which
    # it empties, so the moved state keys its terms over (c.x, d.x, a.x,
    # b.x) where a direct build keys them over the sorted occupied modes
    cx, dx = Mode("c", "x"), Mode("d", "x")
    start = PhotonState({BasisState({cx: 1, dx: 1}): 0.6, BasisState({cx: 2}): 0.8j})
    identity = make_rbs(1.0, 0.0, in_modes=(dx, cx), out_modes=(AX, BX))
    moved = paths.apply_transform(start, identity)
    assert moved._slots == (cx, dx, AX, BX)
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
            _key([rng.randint(0, 2) for _ in slots]): complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for _ in range(rng.randint(0, 6))
        }
        return PhotonState._from_slots(slots, terms, {m.port for m in slots})

    for _ in range(count):
        a, b = random_state(), random_state()
        if rng.random() < 0.3:
            order = rng.sample(range(len(a._slots)), len(a._slots))
            slots = tuple(a._slots[i] for i in order)
            size = len(a._slots)
            terms = {_key([_counts(k, size)[i] for i in order]): v for k, v in a._terms.items()}
            b = PhotonState._from_slots(slots, terms, a.ports)
        yield a, b


def test_terms_keys_match_validated_basis_states():
    for a, b in _random_state_pairs(11, 200):
        for x in (a, b):
            want = [BasisState(zip(x._slots, _counts(k, len(x._slots)))) for k in x._terms]
            got = list(x.terms)
            assert [k.items() for k in got] == [k.items() for k in want]
            assert list(map(hash, got)) == list(map(hash, want))
            assert x.sorted_terms() == sorted(zip(want, x._terms.values()))


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


def test_rekeyed_comparison_reads_what_basis_state_keys_read():
    """``_aligned`` keys both states over the first one's slot table followed
    by the modes only the second has, instead of building a BasisState per
    term; the difference and the overlap come out identical to the
    BasisState route.  Pairs where neither table holds every mode the other
    occupies, which once fell back to BasisState keys, are among them."""
    routes = Counter()
    for a, b in _random_state_pairs(12, 400):
        for x, y in ((a, b), (b, a)):
            tx, ty = _aligned(x, y)
            assert tx is x._terms
            table = x._slots + tuple(m for m in y._slots if m not in x._slots)
            assert PhotonState._trusted(table, tx).terms == x.terms
            assert PhotonState._trusted(table, ty).terms == y.terms
            occupied = [{m for bs in s.terms for m, _ in bs.items()} for s in (x, y)]
            covered = occupied[0] <= set(y._slots) or occupied[1] <= set(x._slots)
            routes["packed" if covered else "basis"] += 1
            tx, ty = x.terms, y.terms
            assert max_amplitude_difference(x, y) == _public_key_difference(x, y)
            overlap = complex(sum(v.conjugate() * ty[k] for k, v in tx.items() if k in ty))
            assert inner_product(x, y) == overlap
    assert min(routes.values()) > 50


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


def _three_pass_finish(terms: dict, normalized: bool = True) -> dict:
    """The finish step as three separate passes over the terms: prune, take
    the squared norm, then rescale and prune again.  ``fock._finished`` must
    match it bit for bit."""
    kept = {k: a for k, a in terms.items() if abs(a) >= PRUNE_EPS}
    n2 = math.fsum([abs(a) ** 2 for a in kept.values()])
    if abs(n2 - 1.0) > 1e-9:
        warnings.warn(f"squared norm {n2:.12g} differs from 1", RuntimeWarning)
    if not normalized:
        return kept
    if n2 <= 0.0:
        raise NullStateError("cannot normalize a null state")
    scale = 1.0 / math.sqrt(n2)
    return {k: b for k, a in kept.items() if abs(b := a * scale) >= PRUNE_EPS}


FINISH_SLOTS = (AX, AY, BX)


def _hexed(terms: dict) -> list:
    return [(k, a.real.hex(), a.imag.hex()) for k, a in terms.items()]


def _random_terms(rng, size: int, norm2: float) -> dict:
    """``size`` random amplitudes (never a zero component) over FINISH_SLOTS
    with squared norm ``norm2`` up to rounding."""
    terms = {}
    while len(terms) < size:
        key = _key([rng.randint(0, 2) for _ in FINISH_SLOTS])
        terms[key] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    root = math.sqrt(math.fsum(abs(a) ** 2 for a in terms.values()) / norm2)
    return {k: a / root for k, a in terms.items()}


def _unit_scale(terms: dict) -> bool:
    kept = [abs(a) ** 2 for a in terms.values() if abs(a) >= PRUNE_EPS]
    return 1.0 / math.sqrt(math.fsum(kept)) == 1.0


def _check_finish(terms: dict, normalized: bool = True) -> None:
    want = _three_pass_finish(dict(terms), normalized)
    # the ports are the given ones plus every slot's, b.x empty or not
    got = _finished(FINISH_SLOTS, dict(terms), {"c"}, normalized=normalized)
    assert _hexed(got._terms) == _hexed(want)
    assert got._slots == FINISH_SLOTS and got.ports == {"a", "b", "c"}


def _finish_cases(seed: int, count: int, *, tiny: float | None, norm2: float, unit: bool):
    """Random term dicts, each with one extra amplitude of magnitude ``tiny``
    at a random place when given, whose rescale factor is exactly 1.0 or
    not, as ``unit`` asks."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        terms = _random_terms(rng, rng.randint(1, 12), norm2)
        if tiny is not None:
            keys = map(_key, itertools.product(range(3), repeat=3))
            free = [k for k in keys if k not in terms]
            items = list(terms.items())
            items.insert(rng.randint(0, len(items)), (rng.choice(free), tiny * complex(0.6, -0.8)))
            terms = dict(items)
        if _unit_scale(terms) == unit:
            found += 1
            yield terms


def test_finished_keeps_terms_when_nothing_to_prune_and_scale_is_one():
    for terms in _finish_cases(21, 200, tiny=None, norm2=1.0, unit=True):
        _check_finish(terms)


def test_finished_rescales_when_scale_is_off_one_within_the_warning_bound():
    # squared norm 1 up to rounding, yet 1/sqrt(n2) is not exactly 1.0
    for terms in _finish_cases(22, 200, tiny=None, norm2=1.0, unit=False):
        _check_finish(terms)


@pytest.mark.parametrize("unit", [True, False], ids=["scale_one", "scale_off_one"])
def test_finished_prunes_a_term_below_prune_eps(unit):
    for terms in _finish_cases(23, 200, tiny=PRUNE_EPS / 3, norm2=1.0, unit=unit):
        _check_finish(terms)
        _check_finish(terms, normalized=False)


def test_finished_prunes_a_term_that_drops_below_prune_eps_only_after_scaling():
    # squared norm 4 halves every amplitude: 1.5 eps survives the first prune
    # and falls to 0.75 eps
    for terms in _finish_cases(24, 100, tiny=1.5 * PRUNE_EPS, norm2=4.0, unit=False):
        with pytest.warns(RuntimeWarning, match="squared norm 4 differs"):
            _check_finish(terms)
            _check_finish(terms, normalized=False)
            assert len(_finished(FINISH_SLOTS, dict(terms), ())) == len(terms) - 1


def test_finished_raises_null_state_when_every_term_is_pruned():
    terms = {_key((1, 0, 0)): PRUNE_EPS / 2, _key((0, 1, 0)): complex(0, PRUNE_EPS / 4)}
    with pytest.warns(RuntimeWarning, match="squared norm 0 differs"):
        with pytest.raises(NullStateError):
            _finished(FINISH_SLOTS, terms, ())
    with pytest.warns(RuntimeWarning, match="squared norm 0 differs"):
        assert len(_finished(FINISH_SLOTS, terms, (), normalized=False)) == 0


@pytest.mark.parametrize(
    "terms",
    [
        # NaN after a pruned term
        {_key((0, 1, 0)): 1e-20, _key((1, 0, 0)): complex(math.nan, 0)},
        # |a| overflows
        {_key((0, 1, 0)): complex(1e308, 1e308), _key((1, 0, 0)): complex(0, math.inf)},
        # |a|^2 overflows
        {_key((0, 1, 0)): 1e300, _key((1, 0, 0)): math.inf},
    ],
    ids=["nan", "abs_overflow", "square_overflow"],
)
def test_finished_reports_a_non_finite_amplitude_before_any_overflow(terms):
    with pytest.raises(ValueError, match="non-finite amplitude for a.x=1"):
        _finished(FINISH_SLOTS, terms, ())


def test_finished_raises_overflow_for_a_huge_finite_amplitude():
    with pytest.raises(OverflowError):
        _finished(FINISH_SLOTS, {_key((1, 0, 0)): 1e200}, ())
