"""Photon-number states over labeled optical modes.

A mode is a spatial port paired with a polarization axis.  States are sparse
superpositions of Fock basis states with complex amplitudes.  A state keeps a
slot table, a tuple of modes, and keys each amplitude by the tuple of photon
counts in those slots; the evolution engines read and write these count
tuples directly.  :class:`BasisState`, the public key type, is built only
where terms leave a state (``terms``, iteration, ``sorted_terms``, JSON), so
neither the slot order nor the order of construction ever shows.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .errors import ModeMismatchError, NullStateError, PhotonBudgetError, UnknownPortError

__all__ = [
    "DEFAULT_MAX_PHOTONS",
    "MAX_TERMS",
    "PRUNE_EPS",
    "check_photon_budget",
    "Mode",
    "BasisState",
    "PhotonState",
    "normalize",
    "inner_product",
    "number_distribution",
    "expected_photon_number",
    "max_amplitude_difference",
    "tensor_product",
    "state_to_json_obj",
    "state_from_json_obj",
    "state_to_json",
    "state_from_json",
]

# Photon budget applied where photons enter the system (sources, scattering).
DEFAULT_MAX_PHOTONS = 8

# Most terms a state may reach during a circuit run before the run fails
# fast (20,000 is well above every corpus circuit and benchmark workload).
MAX_TERMS = 20_000

# Amplitudes below this magnitude are dropped from superpositions.
PRUNE_EPS = 1e-14


def check_photon_budget(total: int, max_photons: int | None) -> None:
    """Raise PhotonBudgetError if ``total`` photons exceed ``max_photons``
    (``None`` sets no bound)."""
    if max_photons is not None and total > max_photons:
        raise PhotonBudgetError(
            f"{total} photons exceed the configured maximum of {max_photons}"
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


# a slot table, and a key over one: the photon count in each slot
Slots = tuple[Mode, ...]
Counts = tuple[int, ...]


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

    def items(self) -> tuple[tuple[Mode, int], ...]:
        return self._items

    @property
    def modes(self) -> tuple[Mode, ...]:
        return tuple(m for m, _ in self._items)

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
    """Values keyed by count tuples over a slot table.

    The representation behind :class:`PhotonState` and the operator
    engine's ``CreationPolynomial``.  ``_slots`` is a tuple of distinct
    modes and each key of ``_terms`` is the tuple of photon counts in those
    slots; a slot may be empty in every key.  Only ``terms`` and
    ``_lookup`` convert to and from :class:`BasisState` keys.
    """

    __slots__ = ("_slots", "_terms")

    def _set_basis_terms(self, terms: Mapping[BasisState, object]) -> None:
        """Key ``terms`` by count tuples over the sorted modes they occupy."""
        slots = tuple(sorted({m for bs in terms for m, _ in bs.items()}))
        index = {m: i for i, m in enumerate(slots)}
        self._slots, self._terms = slots, {}
        for bs, value in terms.items():
            counts = [0] * len(slots)
            for m, n in bs.items():
                counts[index[m]] = n
            self._terms[tuple(counts)] = value

    @classmethod
    def _trusted(cls, slots: Slots, terms: dict) -> "_SlotTerms":
        """Constructor that checks nothing: ``terms`` must be keyed by count
        tuples over ``slots``."""
        obj = object.__new__(cls)
        obj._slots, obj._terms = slots, terms
        return obj

    @property
    def terms(self) -> dict[BasisState, complex]:
        return {BasisState(zip(self._slots, k)): v for k, v in self._terms.items()}

    def _lookup(self, key: BasisState | Mapping[Mode, int]) -> complex:
        if not isinstance(key, BasisState):
            key = BasisState(key)
        counts = [0] * len(self._slots)
        for m, n in key.items():
            if m not in self._slots:  # then no key over the slots equals it
                return 0j
            counts[self._slots.index(m)] = n
        return self._terms.get(tuple(counts), 0j)

    def __len__(self) -> int:
        return len(self._terms)


def _element_slots(
    state: _SlotTerms, t, max_photons: int | None = None
) -> tuple[Slots, Mapping[Counts, complex], Counts, Counts]:
    """An engine's first step through the element ``t`` (a ModeTransform):
    check ``state``'s photon budget, then find the slot table after ``t``.

    Returns ``(table, terms, ins, outs)``.  An input mode missing from the
    state's slots first gets a zero slot, and ``terms`` comes back keyed
    over the widened table.  ``t`` reads ``t.in_modes[k]`` at slot ``ins[k]``
    of those keys and writes ``t.out_modes[k]`` at slot ``outs[k]`` of keys
    over ``table``; both index the same set of slots.  The output modes of
    a rerouting element (disjoint from its inputs) take over its input
    modes' slots, so ``outs == ins``.  An output mode that already has a
    slot must be empty in every key, or ModeMismatchError is raised; its
    slot passes to the input mode it replaces, which is now empty.
    """
    slots, terms, in_modes, out_modes = state._slots, state._terms, t.in_modes, t.out_modes
    check_photon_budget(max(map(sum, terms), default=0), max_photons)
    fresh = tuple(m for m in in_modes if m not in slots)
    if fresh:
        slots += fresh
        zeros = (0,) * len(fresh)
        terms = {k + zeros: v for k, v in terms.items()}
    ins = tuple(map(slots.index, in_modes))
    if set(in_modes) == set(out_modes):
        return slots, terms, ins, tuple(map(slots.index, out_modes))
    table = list(slots)
    for m_in, m_out, i in zip(in_modes, out_modes, ins):
        if m_out in slots:
            j = slots.index(m_out)
            if any(k[j] for k in terms):
                raise ModeMismatchError(f"output mode {m_out.label()} is already occupied")
            table[j] = m_in
        table[i] = m_out
    return tuple(table), terms, ins, ins


def _finite(terms: dict, label) -> dict:
    """``terms``, or ValueError naming ``label(key)`` of a non-finite value."""
    if not all(map(cmath.isfinite, terms.values())):
        key = next(k for k, a in terms.items() if not cmath.isfinite(a))
        raise ValueError(f"non-finite amplitude for {label(key)}")
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
    and build their results with :meth:`_from_slots`.
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
        self._set_basis_terms(_pruned(_finite(acc, BasisState.label)))
        self._ports = frozenset(ports).union(m.port for m in self._slots)

    @classmethod
    def _from_slots(
        cls, slots: Slots, terms: Mapping[Counts, complex], ports: Iterable[str]
    ) -> "PhotonState":
        """Trusted constructor for this module and the engines: ``terms``
        maps count tuples over ``slots`` to complex amplitudes, and ``ports``
        holds the port of every occupied slot.  Non-finite amplitudes raise
        ValueError; amplitudes below PRUNE_EPS are dropped."""
        state = cls._trusted(
            slots, _pruned(_finite(terms, lambda k: BasisState(zip(slots, k)).label()))
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
        return sorted(self.terms.items())

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
    """``state`` divided by sqrt(n2), where n2 is its squared norm.  Every
    |a|^2 <= n2, so the result needs no finiteness check."""
    if n2 <= 0.0:
        raise NullStateError("cannot normalize a null state")
    scale = 1.0 / math.sqrt(n2)
    out = PhotonState._trusted(
        state._slots, _pruned({k: a * scale for k, a in state._terms.items()})
    )
    out._ports = state.ports
    return out


def _finished(
    slots: Slots, terms: dict, ports: Iterable[str], modes: Iterable[Mode] = (), *, normalized=True
) -> PhotonState:
    """An engine's last step: the state of the amplitudes ``terms`` over
    ``slots`` (see :meth:`PhotonState._from_slots`), whose ports are
    ``ports`` plus those of ``modes``.  Its squared norm, taken once, is
    warned about when off from one by more than 1e-9 and then divided out
    unless ``normalized`` is false."""
    state = PhotonState._from_slots(slots, terms, frozenset(ports).union(m.port for m in modes))
    n2 = state.norm_squared()
    if abs(n2 - 1.0) > 1e-9:
        warnings.warn(f"squared norm {n2:.12g} differs from 1", RuntimeWarning, stacklevel=3)
    return _rescaled(state, n2) if normalized else state


def _aligned(a: PhotonState, b: PhotonState) -> tuple[dict, dict]:
    """The terms of ``a`` and ``b`` keyed over one slot table: ``a``'s slots
    followed by the slots only ``b`` has."""
    slots = a._slots + tuple(m for m in b._slots if m not in a._slots)
    pad = (0,) * (len(slots) - len(a._slots))
    # each slot's place in a key of b padded with one zero count
    take = [b._slots.index(m) if m in b._slots else len(b._slots) for m in slots]
    ta = {k + pad: v for k, v in a._terms.items()}
    tb = {tuple(map((k + (0,)).__getitem__, take)): v for k, v in b._terms.items()}
    return ta, tb


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
    dist: dict = {}
    for counts, amp in state._terms.items():
        key = tuple(sum([counts[i] for i in g]) for g in groups)
        if single:
            key = key[0]
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
    """Combine states living on disjoint mode sets into one."""
    slots: Slots = ()
    terms = {(): 1.0 + 0j}
    for st in states:
        keep = [i for i, column in enumerate(zip(*st._terms)) if any(column)]
        occupied = tuple(st._slots[i] for i in keep)
        overlap = sorted(m.label() for m in set(slots) & set(occupied))
        if overlap:
            raise ValueError(f"tensor product requires disjoint modes, got {overlap}")
        part = {tuple(k[i] for i in keep): amp for k, amp in st._terms.items()}
        slots += occupied
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
