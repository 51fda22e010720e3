"""Photon-number states over labeled optical modes.

A mode is a spatial port paired with a polarization axis.  States are sparse
superpositions of Fock basis states with complex amplitudes, kept in
canonical (sorted, zero-free) form so that insertion order never matters.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .errors import NullStateError, PhotonBudgetError, UnknownPortError

__all__ = [
    "DEFAULT_MAX_PHOTONS",
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
    equal.  Instances are immutable and hashable.  The same canonical
    structure doubles as the exponent vector of a creation-operator
    monomial in the operator engine.
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
    def _from_counts(cls, counts: dict[Mode, int]) -> "BasisState":
        """Trusted constructor for this module and the engines: ``counts``
        must map :class:`Mode` instances to ints >= 0 (zeros are dropped).
        Nothing checks that; ``__init__`` is bypassed."""
        bs = object.__new__(cls)
        bs._items = tuple(sorted([kv for kv in counts.items() if kv[1]]))
        bs._hash = hash(bs._items)
        return bs

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
        occ = dict(self._items)
        for mode, n in changes.items():
            mode, n = _checked_count(mode, n)
            occ[mode] = n
        return BasisState._from_counts(occ)

    def combine(self, other: "BasisState") -> "BasisState":
        """Mode-wise sum of two occupancies (used as monomial product)."""
        occ = dict(self._items)
        for mode, n in other._items:
            occ[mode] = occ.get(mode, 0) + n
        return BasisState._from_counts(occ)

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


class PhotonState:
    """Sparse superposition of Fock basis states.

    ``terms`` maps each :class:`BasisState` to a complex amplitude.  The
    constructor accumulates duplicate keys and prunes amplitudes below
    ``prune`` in magnitude.  ``ports`` records the port universe: ports
    mentioned by any term plus any explicitly declared ones, which lets
    marginals reject typo'd port labels while an undeclared vacuum stays
    permissive.
    """

    __slots__ = ("_terms", "_ports")

    def __init__(
        self,
        terms: Mapping[BasisState, complex] | Iterable[tuple[BasisState, complex]] = (),
        *,
        ports: Iterable[str] = (),
        prune: float | None = PRUNE_EPS,
    ):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[BasisState, complex] = {}
        for bs, amp in pairs:
            if not isinstance(bs, BasisState):
                bs = BasisState(bs)
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {bs.label()}")
            acc[bs] = acc.get(bs, 0j) + amp
        if prune is not None:
            acc = {bs: a for bs, a in acc.items() if abs(a) >= prune}
        self._terms = acc
        universe = set(ports)
        for bs in acc:
            universe.update(m.port for m in bs.modes)
        self._ports = frozenset(universe)

    @classmethod
    def _from_terms(cls, terms: dict, ports: frozenset[str]) -> "PhotonState":
        """Trusted constructor for this module and the engines: ``terms``
        maps BasisStates whose modes all lie on ``ports`` to complex
        amplitudes.  ``__init__`` is bypassed and the ports are not
        rescanned; non-finite amplitudes still raise and small ones are
        pruned."""
        kept: dict[BasisState, complex] = {}
        for bs, amp in terms.items():
            mag = abs(amp)
            if not mag < math.inf:  # inf or nan in either part
                raise ValueError(f"non-finite amplitude for {bs.label()}")
            if mag >= PRUNE_EPS:
                kept[bs] = amp
        state = object.__new__(cls)
        state._terms = kept
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
    def terms(self) -> dict[BasisState, complex]:
        return dict(self._terms)

    @property
    def ports(self) -> frozenset[str]:
        return self._ports

    def amplitude(self, key: BasisState | Mapping[Mode, int]) -> complex:
        if not isinstance(key, BasisState):
            key = BasisState(key)
        return self._terms.get(key, 0j)

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self._terms.values())

    def sorted_terms(self) -> list[tuple[BasisState, complex]]:
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __repr__(self) -> str:
        parts = [f"{a:.4g}*{bs.label()}" for bs, a in self.sorted_terms()[:4]]
        more = "" if len(self) <= 4 else f" ... ({len(self)} terms)"
        return f"PhotonState({' + '.join(parts)}{more})"


def normalize(state: PhotonState) -> PhotonState:
    """Rescale so the squared amplitudes sum to one."""
    n2 = state.norm_squared()
    if n2 <= 0.0:
        raise NullStateError("cannot normalize a null state")
    scale = 1.0 / math.sqrt(n2)
    return PhotonState._from_terms({bs: a * scale for bs, a in state}, state.ports)


def inner_product(a: PhotonState, b: PhotonState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if len(b) < len(a):
        return inner_product(b, a).conjugate()
    return complex(sum(amp.conjugate() * b.amplitude(bs) for bs, amp in a))


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
    dist: dict = {}
    for bs, amp in state:
        key = tuple(bs.port_total(p) for p in names)
        if single:
            key = key[0]
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dict(sorted(dist.items()))


def expected_photon_number(state: PhotonState, port: str) -> float:
    """Mean photon count in one port."""
    _port_list(state, port)
    return math.fsum(abs(amp) ** 2 * bs.port_total(port) for bs, amp in state)


def max_amplitude_difference(a: PhotonState, b: PhotonState) -> float:
    """Largest |amplitude difference| over the union of both supports."""
    keys = set(a.terms) | set(b.terms)
    if not keys:
        return 0.0
    return max(abs(a.amplitude(k) - b.amplitude(k)) for k in keys)


def tensor_product(*states: PhotonState) -> PhotonState:
    """Combine states living on disjoint mode sets into one."""
    if not states:
        return PhotonState.vacuum()
    seen: set[Mode] = set()
    for st in states:
        modes = {m for bs, _ in st for m in bs.modes}
        if modes & seen:
            overlap = sorted(m.label() for m in modes & seen)
            raise ValueError(f"tensor product requires disjoint modes, got {overlap}")
        seen |= modes
    terms = {BasisState(): 1.0 + 0j}
    for st in states:
        nxt: dict[BasisState, complex] = {}
        for bs, amp in terms.items():
            for bs2, amp2 in st:
                nxt[bs.combine(bs2)] = amp * amp2
        terms = nxt
    ports = frozenset().union(*(st.ports for st in states))
    return PhotonState(terms, ports=ports)


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
