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

# unitarity_defect and normalize stay importable from here, unused:
# perfbench/tracer.py wraps both, and its --trace 1 run fails without them.
from .elements import ModeTransform, require_unitary, unitarity_defect  # noqa: F401
from .fock import (
    DEFAULT_MAX_PHOTONS,
    PhotonState,
    check_photon_budget,
    _element_slots,
    _finished,
    normalize,  # noqa: F401
)

__all__ = ["RoutingTrace", "scatter_two_mode", "trace_paths", "apply_transform"]

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


def _routings(n1: int, n2: int, matrix, max_photons: int | None) -> list:
    """Every photon routing of |n1, n2> through a unitary 2x2 element.

    One ``(ma, bose_factor, routes)`` entry per photon count ma of output
    mode a, ma ascending.  ``routes`` holds ``(k, multiplicity, powers)``
    for each merged routing sending k photons from input 1 and ma - k from
    input 2 to output a; the product of the four matrix-element ``powers``
    is its bare amplitude.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("photon counts must be non-negative")
    check_photon_budget(n1 + n2, max_photons)
    require_unitary(matrix)
    (maa, mab), (mba, mbb) = matrix
    maa, mab, mba, mbb = complex(maa), complex(mab), complex(mba), complex(mbb)
    n = n1 + n2
    fact = math.factorial
    denom = math.sqrt(fact(n1) * fact(n2))
    table = []
    for ma in range(n + 1):
        routes = [
            (
                k,
                math.comb(n1, k) * math.comb(n2, ma - k),
                (maa**k, mba ** (n1 - k), mab ** (ma - k), mbb ** (n2 - ma + k)),
            )
            for k in range(max(0, ma - n2), min(n1, ma) + 1)
        ]
        table.append((ma, math.sqrt(fact(ma) * fact(n - ma)) / denom, routes))
    return table


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


def apply_transform(
    state: PhotonState,
    t: ModeTransform,
    *,
    max_photons: int | None = None,
) -> PhotonState:
    """Evolve a state through one element by summing photon routings.

    ``max_photons``, when given, bounds the photon total of every term.
    Only the element's counts of each term change.  The result is
    normalized, with a RuntimeWarning if its squared norm drifted.
    """
    slots, terms, ins, outs = _element_slots(state, t, max_photons)
    new: dict[tuple[int, ...], complex] = {}
    if len(ins) == 1:
        # a one-mode element keeps every key: its output slot is its input's
        (i,) = ins
        u = t.matrix[0][0]
        for key, amp in terms.items():
            new[key] = new.get(key, 0j) + amp * u ** key[i]
    else:
        i1, i2 = ins
        o1, o2 = outs
        cache: dict[tuple[int, int], dict[tuple[int, int], complex]] = {}
        for key, amp in terms.items():
            n12 = (key[i1], key[i2])
            scattered = cache.get(n12)
            if scattered is None:
                scattered = cache[n12] = scatter_two_mode(*n12, t.matrix, max_photons=None)
            counts = list(key)
            for (ma, mb), s_amp in scattered.items():
                counts[o1] = ma
                counts[o2] = mb
                nk = tuple(counts)
                new[nk] = new.get(nk, 0j) + amp * s_amp
    return _finished(slots, new, state.ports, t.in_modes + t.out_modes)
