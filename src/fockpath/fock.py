"""Photon-number states over labeled optical modes.

A mode is a spatial port paired with a polarization axis.  States are sparse
superpositions of Fock basis states with complex amplitudes.  A state keeps a
slot table, a tuple of modes, and keys each amplitude by one int, slot i's
photon count in bits 8i..8i+7; only the key helpers (:func:`_key` and the
four after it) know that layout.  The evolution engines read and write
these keys directly, each by its own code, under one rule: a table only
grows, each element appending the modes it names that have no slot yet,
inputs before outputs, so both engines end one circuit on one table.
Other states over different tables compare by re-keying the second onto
the first's table followed by the modes only the second has.
:class:`BasisState`, the public key type, is built only where terms leave
a state (``terms``, iteration, ``sorted_terms``, JSON), so neither the
slot order nor the order of construction ever shows.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from collections.abc import Iterable, Mapping, Sequence
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .errors import NullStateError, PhotonBudgetError, UnknownPortError

__all__ = [
    "DEFAULT_MAX_PHOTONS",
    "Mode",
    "BasisState",
    "PhotonState",
    "normalize",
    "inner_product",
    "number_distribution",
    "expected_photon_number",
    "max_amplitude_difference",
    "tensor_product",
    "state_to_json",
    "state_from_json",
]

# Photon budget applied where photons enter the system (sources, scattering).
DEFAULT_MAX_PHOTONS = 8

# Most terms a state may reach during a circuit run before the run fails
# fast (20,000 is well above every corpus circuit and benchmark workload).
MAX_TERMS = 20_000

# Most photons any slot of a term may hold and any element may act on,
# whatever the budget: the Bose factors take sqrt(n!), and 171! overflows a
# float.  It also keeps each count within its 8-bit field of a key.
MAX_COUNT = 170

# Amplitudes below this magnitude are dropped from superpositions.
PRUNE_EPS = 1e-14


def check_photon_budget(total: int, max_photons: int | None) -> None:
    """Raise PhotonBudgetError if ``total`` photons exceed ``max_photons``
    (``None`` sets no bound) or MAX_COUNT."""
    if max_photons is not None and total > max_photons:
        raise PhotonBudgetError(
            f"{total} photons exceed the configured maximum of {max_photons}"
        )
    if total > MAX_COUNT:
        raise PhotonBudgetError(f"{total} photons exceed the limit of {MAX_COUNT}")


def _check_size(count: int, what: str) -> None:
    """Raise PhotonBudgetError naming ``what`` if its ``count`` terms exceed
    MAX_TERMS."""
    if count > MAX_TERMS:
        raise PhotonBudgetError(
            f"{what} has {count} terms, more than the maximum of {MAX_TERMS}"
        )


class Mode(NamedTuple):
    """One optical mode: a spatial port plus a polarization axis tag."""

    port: str
    pol: str

    def label(self) -> str:
        return f"{self.port}.{self.pol}"

    @classmethod
    def from_label(cls, label: str) -> "Mode":
        port, _, pol = label.partition(".")
        if not port or not pol:
            raise ValueError(f"mode label must look like 'port.pol', got {label!r}")
        return cls(port, pol)


# a slot table
Slots = tuple[Mode, ...]


def _key(counts: Sequence[int], slots: Slots = ()) -> int:
    """The key of the photon ``counts`` over a slot table: slot i's count in
    bits 8i..8i+7.  A count above MAX_COUNT raises PhotonBudgetError naming
    its mode in ``slots`` (or its slot number)."""
    for i, n in enumerate(counts):
        if n > MAX_COUNT:
            where = slots[i].label() if slots else f"slot {i}"
            raise PhotonBudgetError(f"{n} photons in {where} exceed the limit of {MAX_COUNT}")
    return int.from_bytes(bytes(counts), "little")


def _counts(key: int, size: int) -> bytes:
    """The photon counts in the first ``size`` slots of ``key``."""
    return key.to_bytes(size, "little")


def _mask(slots: Iterable[int]) -> int:
    """The bits of a key that hold its counts in ``slots``."""
    mask = 0
    for i in slots:
        mask |= 0xFF << 8 * i
    return mask


def _at(key: int, slots: Iterable[int]) -> list[int]:
    """The photon counts of ``key`` in ``slots``."""
    return [(key >> 8 * i) & 0xFF for i in slots]


def _unit(slot: int) -> int:
    """The key of one photon in ``slot``.  Keys add like their counts, as
    long as no count exceeds MAX_COUNT."""
    return 1 << 8 * slot


def _occupied(keys: Iterable[int], size: int) -> list[int]:
    """The slots, of the first ``size``, with a photon in some of ``keys``."""
    union = 0
    for k in keys:
        union |= k
    return [i for i, n in enumerate(_counts(union, size)) if n]


def _checked_count(mode, n) -> tuple[Mode, int]:
    if not isinstance(mode, Mode):
        mode = Mode(*mode)
    n = int(n)
    if n < 0:
        raise ValueError(f"negative photon count {n} for mode {mode.label()}")
    return mode, n


class BasisState:
    """Occupancy of a set of modes: how many photons sit in each.

    Counts are non-negative; zero counts are dropped, and modes are kept
    sorted by (port, pol), so two occupancies built in any order compare
    equal.  Instances are immutable and hashable.  This is the public key
    of state amplitudes and of creation-polynomial coefficients.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, occupancy: Mapping[Mode, int] | Iterable[tuple[Mode, int]] = ()):
        if isinstance(occupancy, BasisState):
            self._items = occupancy._items
            self._hash = occupancy._hash
            return
        pairs = occupancy.items() if isinstance(occupancy, Mapping) else occupancy
        acc: dict[Mode, int] = {}
        for mode, n in pairs:
            mode, n = _checked_count(mode, n)
            if n:
                acc[mode] = acc.get(mode, 0) + n
        self._items = tuple(sorted(acc.items()))
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls, items: tuple[tuple[Mode, int], ...]) -> "BasisState":
        """Constructor that checks nothing: ``items`` must be the distinct
        modes with their positive counts, sorted by mode."""
        obj = object.__new__(cls)
        obj._items, obj._hash = items, hash(items)
        return obj

    def items(self) -> tuple[tuple[Mode, int], ...]:
        return self._items

    @property
    def total(self) -> int:
        return sum(n for _, n in self._items)

    def count(self, mode: Mode) -> int:
        for m, n in self._items:
            if m == mode:
                return n
        return 0

    def port_total(self, port: str) -> int:
        return sum(n for m, n in self._items if m.port == port)

    def replace(self, changes: Mapping[Mode, int]) -> "BasisState":
        """Return a copy with the given mode counts overwritten (0 removes)."""
        return BasisState({**dict(self._items), **changes})

    def combine(self, other: "BasisState") -> "BasisState":
        """Mode-wise sum of two occupancies."""
        return BasisState(self._items + other._items)

    def label(self) -> str:
        if not self._items:
            return "vacuum"
        return ";".join(f"{m.label()}={n}" for m, n in self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisState) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "BasisState") -> bool:
        return self._items < other._items

    def __repr__(self) -> str:
        return f"BasisState({self.label()})"


class _SlotTerms:
    """Values keyed by packed counts over a slot table.

    The representation behind :class:`PhotonState` and the operator
    engine's ``CreationPolynomial``.  ``_slots`` is a tuple of distinct
    modes and each key of ``_terms`` is the int :func:`_key` packs from the
    photon counts in those slots; a slot may be empty in every key.  Only
    ``terms`` and ``_lookup`` convert to and from :class:`BasisState` keys.
    """

    __slots__ = ("_slots", "_terms")

    def _set_basis_terms(self, terms: Mapping[BasisState, object]) -> None:
        """Key ``terms`` by packed counts over the sorted modes they occupy;
        a count above MAX_COUNT raises PhotonBudgetError."""
        slots = tuple(sorted({m for bs in terms for m, _ in bs.items()}))
        index = {m: i for i, m in enumerate(slots)}
        self._slots, self._terms = slots, {}
        for bs, value in terms.items():
            counts = [0] * len(slots)
            for m, n in bs.items():
                counts[index[m]] = n
            self._terms[_key(counts, slots)] = value

    @classmethod
    def _trusted(cls, slots: Slots, terms: dict) -> "_SlotTerms":
        """Constructor that checks nothing: ``terms`` must be keyed by
        packed counts over ``slots``."""
        obj = object.__new__(cls)
        obj._slots, obj._terms = slots, terms
        return obj

    @property
    def terms(self) -> dict[BasisState, complex]:
        slots = self._slots
        order = sorted(range(len(slots)), key=slots.__getitem__)
        modes = [slots[i] for i in order]
        keys = []
        for k in self._terms:
            counts = bytes(map(_counts(k, len(slots)).__getitem__, order))
            keys.append(BasisState._trusted(tuple(compress(zip(modes, counts), counts))))
        return dict(zip(keys, self._terms.values()))

    def _lookup(self, key: BasisState | Mapping[Mode, int]) -> complex:
        if not isinstance(key, BasisState):
            key = BasisState(key)
        counts = [0] * len(self._slots)
        for m, n in key.items():
            if m not in self._slots or n > MAX_COUNT:  # then no key equals it
                return 0j
            counts[self._slots.index(m)] = n
        return self._terms.get(_key(counts), 0j)

    def __len__(self) -> int:
        return len(self._terms)


def _finite(terms: dict, slots: Slots | None = None) -> dict:
    """``terms``, or ValueError naming the key of a non-finite value: a
    BasisState, or a packed key over ``slots`` when they are given."""
    if not all(map(cmath.isfinite, terms.values())):
        key = next(k for k, a in terms.items() if not cmath.isfinite(a))
        if slots is not None:
            key = BasisState(zip(slots, _counts(key, len(slots))))
        raise ValueError(f"non-finite amplitude for {key.label()}")
    return terms


def _pruned(terms: Mapping) -> dict:
    """``terms`` without the amplitudes below PRUNE_EPS in magnitude."""
    return {k: a for k, a in terms.items() if abs(a) >= PRUNE_EPS}


class PhotonState(_SlotTerms):
    """Sparse superposition of Fock basis states.

    ``terms`` maps each :class:`BasisState` to a complex amplitude.  The
    constructor accumulates duplicate keys, rejects non-finite sums and
    prunes amplitudes below PRUNE_EPS in magnitude.  ``ports`` records the
    port universe: ports mentioned by any term plus any explicitly declared
    ones, which lets marginals reject typo'd port labels while an
    undeclared vacuum stays permissive.

    The engines read ``_slots`` and ``_terms`` (see :class:`_SlotTerms`)
    and build their results with :func:`_finished`.
    """

    __slots__ = ("_ports",)

    def __init__(
        self,
        terms: Mapping[BasisState, complex] | Iterable[tuple[BasisState, complex]] = (),
        *,
        ports: Iterable[str] = (),
    ):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[BasisState, complex] = {}
        for bs, amp in pairs:
            if not isinstance(bs, BasisState):
                bs = BasisState(bs)
            acc[bs] = acc.get(bs, 0j) + complex(amp)
        self._set_basis_terms(_pruned(_finite(acc)))
        self._ports = frozenset(ports).union(m.port for m in self._slots)

    @classmethod
    def _from_slots(
        cls, slots: Slots, terms: Mapping[int, complex], ports: Iterable[str]
    ) -> "PhotonState":
        """Trusted constructor for this module and the engines: ``terms``
        maps packed counts over ``slots`` to complex amplitudes, and ``ports``
        holds the port of every occupied slot.  Non-finite amplitudes raise
        ValueError; amplitudes below PRUNE_EPS are dropped."""
        state = cls._trusted(
            slots, _pruned(_finite(terms, slots))
        )
        state._ports = frozenset(ports)
        return state

    @classmethod
    def vacuum(cls, ports: Iterable[str] = ()) -> "PhotonState":
        return cls({BasisState(): 1.0 + 0j}, ports=ports)

    @classmethod
    def from_occupancy(
        cls, occupancy: Mapping[Mode, int], ports: Iterable[str] = ()
    ) -> "PhotonState":
        """Single-basis-state ket with amplitude one."""
        return cls({BasisState(occupancy): 1.0 + 0j}, ports=ports)

    @property
    def ports(self) -> frozenset[str]:
        return self._ports

    def amplitude(self, key: BasisState | Mapping[Mode, int]) -> complex:
        return self._lookup(key)

    def norm_squared(self) -> float:
        return math.fsum([abs(a) ** 2 for a in self._terms.values()])

    def sorted_terms(self) -> list[tuple[BasisState, complex]]:
        return sorted(self.terms.items(), key=lambda term: term[0]._items)

    def __iter__(self):
        return iter(self.terms.items())

    def __repr__(self) -> str:
        parts = [f"{a:.4g}*{bs.label()}" for bs, a in self.sorted_terms()[:4]]
        more = "" if len(self) <= 4 else f" ... ({len(self)} terms)"
        return f"PhotonState({' + '.join(parts)}{more})"


def normalize(state: PhotonState) -> PhotonState:
    """Rescale so the squared amplitudes sum to one."""
    return _rescaled(state, state.norm_squared())


def _rescaled(state: PhotonState, n2: float) -> PhotonState:
    """``state`` divided by sqrt(n2), where n2 is its squared norm, and
    pruned in the same pass.  Every |a|^2 <= n2, so the result needs no
    finiteness check."""
    if n2 <= 0.0:
        raise NullStateError("cannot normalize a null state")
    scale = 1.0 / math.sqrt(n2)
    out = PhotonState._trusted(
        state._slots,
        {k: b for k, a in state._terms.items() if abs(b := a * scale) >= PRUNE_EPS},
    )
    out._ports = state.ports
    return out


def _finished(slots: Slots, terms: dict, ports: Iterable[str], *, normalized=True) -> PhotonState:
    """An engine's last step: the state of the amplitudes ``terms`` over
    ``slots``, whose ports are ``ports`` plus those of ``slots``.

    The magnitudes are taken once.  Amplitudes below PRUNE_EPS are dropped,
    and the squared norm is the fsum of the kept |a|^2; a non-finite
    amplitude raises ValueError, as in :meth:`PhotonState._from_slots`.  A
    squared norm off from one by more than 1e-9 is warned about, and unless
    ``normalized`` is false it is divided out (see :func:`_rescaled`).  A new
    dict is built only where pruning or rescaling changes a term, so the
    state may keep ``terms`` itself.
    """
    try:
        mags = list(map(abs, terms.values()))
        if mags and min(mags) < PRUNE_EPS:
            # "not m < eps" keeps NaN, which the fsum below then reports
            terms = {k: a for (k, a), m in zip(terms.items(), mags) if not m < PRUNE_EPS}
            mags = [m for m in mags if not m < PRUNE_EPS]
        n2 = math.fsum([m**2 for m in mags])
    except OverflowError:  # from a huge finite |a|; a non-finite one is reported first
        _finite(terms, slots)
        raise
    if not math.isfinite(n2):
        _finite(terms, slots)
    if abs(n2 - 1.0) > 1e-9:
        warnings.warn(f"squared norm {n2:.12g} differs from 1", RuntimeWarning, stacklevel=3)
    state = PhotonState._trusted(slots, terms)
    state._ports = frozenset(ports).union(m.port for m in slots)
    # Skipping a rescale by exactly 1.0 is bit-identical: a * 1.0 == a, sign
    # of zero included, for every finite complex a without a -0.0 component.
    # Engine terms have none, since every engine sum starts from 0j and
    # 0.0 + x is -0.0 only when both are.  A hand-built polynomial passed to
    # polynomial_to_state may have one; then only the sign of a zero differs.
    if normalized and (n2 <= 0.0 or 1.0 / math.sqrt(n2) != 1.0):
        state = _rescaled(state, n2)
    return state


def _rekeyed(state: PhotonState, slots: Slots) -> dict:
    """The terms of ``state`` keyed over the slot table ``slots``.  A mode
    of ``state``'s own table that ``slots`` lacks must be empty in every
    key; a mode that only ``slots`` has is empty in every new key."""
    size = len(state._slots)
    index = {m: i for i, m in enumerate(state._slots)}
    # byte j of a new key is byte source[j] of the old key written with one
    # more byte, a zero at ``size``; the last, extra zero keeps the getter's
    # result a tuple and adds nothing to the key
    source = itemgetter(*(index.get(m, size) for m in slots), size)
    return {
        int.from_bytes(bytes(source(k.to_bytes(size + 1, "little"))), "little"): a
        for k, a in state._terms.items()
    }


def _aligned(a: PhotonState, b: PhotonState) -> tuple[dict, dict]:
    """The terms of ``a`` and ``b`` keyed over one slot table: ``a``'s,
    followed by the modes only ``b`` has.  Those new slots are empty in
    every key of ``a``, so its keys stay as they are."""
    if a._slots == b._slots:
        return a._terms, b._terms
    return a._terms, _rekeyed(b, a._slots + tuple(m for m in b._slots if m not in a._slots))


def inner_product(a: PhotonState, b: PhotonState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    ta, tb = _aligned(a, b)
    return complex(sum(amp.conjugate() * tb[k] for k, amp in ta.items() if k in tb))


def _port_list(state: PhotonState, ports) -> tuple[list[str], bool]:
    single = isinstance(ports, str)
    if single:
        names = [ports]
    elif isinstance(ports, (set, frozenset)):
        names = sorted(ports)
    else:
        names = list(ports)
    if not names:
        raise ValueError("at least one port label is required")
    known = state.ports
    for p in names:
        if known and p not in known:
            raise UnknownPortError(p)
    return names, single


def number_distribution(state: PhotonState, ports) -> dict:
    """Marginal photon-count distribution over the listed ports.

    ``ports`` may be a single port label (keys are plain counts) or an
    iterable of labels (keys are count tuples in the given order; sets are
    sorted first).  Unlisted ports are traced out.
    """
    names, single = _port_list(state, ports)
    groups = [[i for i, m in enumerate(state._slots) if m.port == p] for p in names]
    # the listed ports' bits of a key, and the counts of each such part
    mask = _mask(i for g in groups for i in g)
    outcomes: dict[int, object] = {}
    dist: dict = {}
    for k, amp in state._terms.items():
        part = k & mask
        key = outcomes.get(part)
        if key is None:
            key = tuple(sum(_at(part, g)) for g in groups)
            key = outcomes[part] = key[0] if single else key
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dict(sorted(dist.items()))


def expected_photon_number(state: PhotonState, port: str) -> float:
    """Mean photon count in one port."""
    return math.fsum(n * p for n, p in number_distribution(state, port).items())


def max_amplitude_difference(a: PhotonState, b: PhotonState) -> float:
    """Largest |amplitude difference| over the union of both supports."""
    ta, tb = _aligned(a, b)
    keys = ta.keys() | tb.keys()
    if not keys:
        return 0.0
    return max(abs(ta.get(k, 0j) - tb.get(k, 0j)) for k in keys)


def tensor_product(*states: PhotonState) -> PhotonState:
    """Combine states living on disjoint mode sets into one: its slots are
    each factor's occupied ones, its ports every factor's ports."""
    slots: Slots = ()
    terms = {0: 1.0 + 0j}
    for st in states:
        occupied = tuple(st._slots[i] for i in _occupied(st._terms, len(st._slots)))
        overlap = sorted(m.label() for m in set(slots) & set(occupied))
        if overlap:
            raise ValueError(f"tensor product requires disjoint modes, got {overlap}")
        slots += occupied
        part = _rekeyed(st, slots)  # empty at the slots placed so far
        terms = {k + k2: amp * amp2 for k, amp in terms.items() for k2, amp2 in part.items()}
    ports = frozenset().union(*(st.ports for st in states))
    return PhotonState._from_slots(slots, terms, ports)


def state_to_json_obj(state: PhotonState) -> list[dict]:
    return [
        {
            "occupancy": {m.label(): n for m, n in bs.items()},
            "re": amp.real,
            "im": amp.imag,
        }
        for bs, amp in state.sorted_terms()
    ]


def state_from_json_obj(obj: Sequence[Mapping], ports: Iterable[str] = ()) -> PhotonState:
    terms = {}
    for entry in obj:
        occ = {Mode.from_label(k): int(v) for k, v in entry["occupancy"].items()}
        terms[BasisState(occ)] = complex(entry["re"], entry["im"])
    return PhotonState(terms, ports=ports)


def state_to_json(state: PhotonState) -> str:
    return json.dumps(state_to_json_obj(state), indent=2)


def state_from_json(text: str, ports: Iterable[str] = ()) -> PhotonState:
    return state_from_json_obj(json.loads(text), ports=ports)
