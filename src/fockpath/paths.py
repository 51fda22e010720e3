"""Path-sum evolution engine.

Photons entering a two-mode element are treated as labeled particles, every
routing of them onto the output modes is enumerated, indistinguishable
routings are merged with their combinatorial multiplicity, and amplitudes
are corrected by the bosonic normalization sqrt(prod m_out!)/sqrt(prod n_in!).
For inputs (n1, n2) and element matrix M the amplitude of the output
occupancy (ma, mb) is

    sqrt(ma! mb! / (n1! n2!)) *
        sum_k  C(n1, k) C(n2, ma - k)
               M[a,1]^k M[b,1]^(n1-k) M[a,2]^(ma-k) M[b,2]^(n2-ma+k)

with k ranging over max(0, ma - n2) .. min(n1, ma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# unitarity_defect and normalize stay importable from here, unused:
# perfbench/tracer.py wraps both, and its --trace 1 run fails without them.
from .elements import ModeTransform, require_unitary, unitarity_defect  # noqa: F401
from .errors import FockPathError, ModeMismatchError
from .fock import (
    DEFAULT_MAX_PHOTONS,
    PhotonState,
    check_photon_budget,
    _at,
    _check_size,
    _finished,
    _mask,
    _occupied,
    _unit,
    normalize,  # noqa: F401
)

__all__ = ["RoutingTrace", "scatter_two_mode", "trace_paths", "apply_transform", "evolve"]

ENGINE_NAME = "paths"


@dataclass(frozen=True)
class RoutingTrace:
    """One merged routing of labeled photons through a two-mode element.

    ``assignment[i][j]`` counts photons sent from input mode i to output
    mode j.  ``amplitude`` is the bare product of matrix elements for one
    representative labeling, ``multiplicity`` the number of labelings that
    share it, and ``bose_factor`` the normalization
    sqrt(prod m_out!)/sqrt(prod n_in!).
    """

    assignment: tuple[tuple[int, int], ...]
    amplitude: complex
    multiplicity: int
    bose_factor: float

    @property
    def output_counts(self) -> tuple[int, int]:
        return (
            self.assignment[0][0] + self.assignment[1][0],
            self.assignment[0][1] + self.assignment[1][1],
        )


@lru_cache(maxsize=128)
def _skeleton(n1: int, n2: int) -> tuple:
    """:func:`_routings` of |n1, n2> without the matrix: the four powers of
    each route are given by their exponents."""
    n, fact = n1 + n2, math.factorial
    denom = math.sqrt(fact(n1) * fact(n2))
    return tuple(
        (ma, math.sqrt(fact(ma) * fact(n - ma)) / denom, tuple(
            (k, math.comb(n1, k) * math.comb(n2, ma - k), (k, n1 - k, ma - k, n2 - ma + k))
            for k in range(max(0, ma - n2), min(n1, ma) + 1)
        ))
        for ma in range(n + 1)
    )


def _routings(n1: int, n2: int, matrix, max_photons: int | None) -> list:
    """Every photon routing of |n1, n2> through a unitary 2x2 element.

    One ``(ma, bose_factor, routes)`` entry per photon count ma of output
    mode a, ma ascending.  ``routes`` holds ``(k, multiplicity, powers)``
    for each merged routing sending k photons from input 1 and ma - k from
    input 2 to output a; the product of the four matrix-element ``powers``
    is its bare amplitude.  All but the powers come from :func:`_skeleton`,
    an LRU cache of 128 (n1, n2) pairs; the matrix is gated on every call.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("photon counts must be non-negative")
    check_photon_budget(n1 + n2, max_photons)
    require_unitary(matrix)
    (maa, mab), (mba, mbb) = matrix
    maa, mab, mba, mbb = complex(maa), complex(mab), complex(mba), complex(mbb)
    return [
        (ma, bose, [(k, m, (maa**a, mba**b, mab**c, mbb**d)) for k, m, (a, b, c, d) in routes])
        for ma, bose, routes in _skeleton(n1, n2)
    ]


def scatter_two_mode(
    n1: int,
    n2: int,
    matrix,
    *,
    max_photons: int | None = DEFAULT_MAX_PHOTONS,
) -> dict[tuple[int, int], complex]:
    """Scatter |n1, n2> through a unitary 2x2 element.

    Returns the map (ma, mb) -> amplitude over output occupancies; the
    squared amplitudes sum to one.
    """
    out: dict[tuple[int, int], complex] = {}
    for ma, bose, routes in _routings(n1, n2, matrix, max_photons):
        acc = 0j
        for _, multiplicity, (p1, p2, p3, p4) in routes:
            acc += multiplicity * p1 * p2 * p3 * p4
        amp = bose * acc
        if amp != 0:
            out[(ma, n1 + n2 - ma)] = amp
    return out


def trace_paths(
    n1: int,
    n2: int,
    matrix,
    *,
    max_photons: int | None = DEFAULT_MAX_PHOTONS,
) -> list[RoutingTrace]:
    """Enumerate the merged photon routings through a 2x2 element.

    Grouping traces by ``output_counts`` and summing
    amplitude * multiplicity * bose_factor reproduces
    :func:`scatter_two_mode` exactly.
    """
    traces = []
    for ma, bose, routes in reversed(_routings(n1, n2, matrix, max_photons)):
        for k, multiplicity, (p1, p2, p3, p4) in routes:
            amp = p1 * p2 * p3 * p4
            if amp == 0:  # routing through a dark matrix element
                continue
            traces.append(
                RoutingTrace(
                    assignment=((k, n1 - k), (ma - k, n2 - ma + k)),
                    amplitude=amp,
                    multiplicity=multiplicity,
                    bose_factor=bose,
                )
            )
    return traces


def _moves(fields: int, ins, units, matrix) -> list[tuple[int, complex]]:
    """``(delta, amplitude)`` of each routing of the photons that the key
    ``fields`` holds in the slots ``ins``: a key moves to key + delta.
    ``units`` are the keys of one photon in each output slot."""
    counts = _at(fields, ins)
    if len(counts) == 1:  # a one-mode element keeps its photon count
        return [(counts[0] * units[0] - fields, matrix[0][0] ** counts[0])]
    u1, u2 = units
    scattered = scatter_two_mode(*counts, matrix, max_photons=None)
    return [(ma * u1 + mb * u2 - fields, a) for (ma, mb), a in scattered.items()]


def _element_slots(state: PhotonState, t: ModeTransform) -> tuple[tuple, tuple, tuple]:
    """The first step through the element ``t``: the slot table after it.

    Returns ``(table, ins, outs)``: ``t`` reads ``t.in_modes[k]`` at slot
    ``ins[k]`` of the state's keys and writes ``t.out_modes[k]`` at slot
    ``outs[k]``.  The table only grows: the state's slots, then each input
    and each output mode of ``t`` that has none, empty in every key, so the
    state's keys stay valid.  An output mode that is no input and already
    had a slot must be empty in every key, or ModeMismatchError is raised.
    """
    slots, in_modes, out_modes = state._slots, t.in_modes, t.out_modes
    table = tuple(dict.fromkeys(slots + in_modes + out_modes))  # first places kept
    ins, outs = tuple(map(table.index, in_modes)), tuple(map(table.index, out_modes))
    for m, j in zip(out_modes, outs):
        if j < len(slots) and m not in in_modes and j in _occupied(state._terms, len(slots)):
            raise ModeMismatchError(f"output mode {m.label()} is already occupied")
    return table, ins, outs


def apply_transform(state: PhotonState, t: ModeTransform) -> PhotonState:
    """Evolve a state through one element by summing photon routings.

    Only the element's counts of each term change, and their photon total
    is kept, so a term with no photon in the element's modes has one
    routing and passes unchanged.  The result is normalized, with a
    RuntimeWarning if its squared norm drifted.
    """
    slots, ins, outs = _element_slots(state, t)
    mask, units = _mask(ins), tuple(map(_unit, outs))
    cache: dict[int, list[tuple[int, complex]]] = {}
    new: dict[int, complex] = {}
    for key, amp in state._terms.items():
        fields = key & mask
        if not fields:  # no other term reaches this key
            new[key] = 0j + amp
            continue
        moves = cache.get(fields)
        if moves is None:
            moves = cache[fields] = _moves(fields, ins, units, t.matrix)
        for delta, s_amp in moves:
            nk = key + delta
            new[nk] = new.get(nk, 0j) + amp * s_amp
    return _finished(slots, new, state.ports)


def evolve(state: PhotonState, bound) -> PhotonState:
    """Evolve a state through a circuit's ``(transform, line)`` pairs (its
    ``Circuit.bound``), one element at a time, each through this module's
    ``apply_transform`` as it is at that call.  An element's errors name its
    line unless it is None, and the state after each is held to
    ``fock.MAX_TERMS``; no element changes a term's photon total, so the
    input state's budget still holds."""
    for transform, line in bound:
        where = "" if line is None else f"line {line}: "
        try:
            state = apply_transform(state, transform)
        except FockPathError as exc:
            raise type(exc)(f"{where}{exc}") from exc
        _check_size(len(state), f"{where}the state")
    return state
