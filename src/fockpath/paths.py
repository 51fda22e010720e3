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

from .elements import ModeTransform, unitarity_defect
from .errors import ModeMismatchError, NonUnitaryError, PhotonBudgetError
from .fock import DEFAULT_MAX_PHOTONS, BasisState, PhotonState, normalize

__all__ = ["RoutingTrace", "scatter_two_mode", "trace_paths", "apply_transform"]

ENGINE_NAME = "paths"


def _require_unitary(matrix, tol: float = 1e-9):
    defect = unitarity_defect(matrix)
    if not defect <= tol:  # also rejects NaN
        raise NonUnitaryError(
            f"element not unitary: defect {defect:.3e} exceeds {tol:.0e}"
        )


def _check_budget(n1: int, n2: int, max_photons: int | None):
    if n1 < 0 or n2 < 0:
        raise ValueError("photon counts must be non-negative")
    if max_photons is not None and n1 + n2 > max_photons:
        raise PhotonBudgetError(
            f"{n1 + n2} photons exceed the configured maximum of {max_photons}"
        )


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
    _check_budget(n1, n2, max_photons)
    _require_unitary(matrix)
    (maa, mab), (mba, mbb) = matrix
    maa, mab, mba, mbb = complex(maa), complex(mab), complex(mba), complex(mbb)
    n = n1 + n2
    fact = math.factorial
    denom = math.sqrt(fact(n1) * fact(n2))
    out: dict[tuple[int, int], complex] = {}
    for ma in range(n + 1):
        mb = n - ma
        acc = 0j
        for k in range(max(0, ma - n2), min(n1, ma) + 1):
            acc += (
                math.comb(n1, k)
                * math.comb(n2, ma - k)
                * maa**k
                * mba ** (n1 - k)
                * mab ** (ma - k)
                * mbb ** (n2 - ma + k)
            )
        amp = math.sqrt(fact(ma) * fact(mb)) / denom * acc
        if amp != 0:
            out[(ma, mb)] = amp
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
    _check_budget(n1, n2, max_photons)
    _require_unitary(matrix)
    (maa, mab), (mba, mbb) = matrix
    maa, mab, mba, mbb = complex(maa), complex(mab), complex(mba), complex(mbb)
    n = n1 + n2
    fact = math.factorial
    denom = math.sqrt(fact(n1) * fact(n2))
    traces = []
    for ma in range(n, -1, -1):
        mb = n - ma
        bose = math.sqrt(fact(ma) * fact(mb)) / denom
        for k in range(max(0, ma - n2), min(n1, ma) + 1):
            amp = (
                maa**k
                * mba ** (n1 - k)
                * mab ** (ma - k)
                * mbb ** (n2 - ma + k)
            )
            if amp == 0:  # routing through a dark matrix element
                continue
            traces.append(
                RoutingTrace(
                    assignment=((k, n1 - k), (ma - k, n2 - ma + k)),
                    amplitude=amp,
                    multiplicity=math.comb(n1, k) * math.comb(n2, ma - k),
                    bose_factor=bose,
                )
            )
    return traces


def _split_term(bs: BasisState, in_modes, blocked, max_photons):
    """Counts of the modes an element leaves alone, and of its input modes.

    Rejects a term with photons already in one of the ``blocked`` output
    modes of a rerouting element, or over the photon budget.
    """
    rest = dict(bs.items())
    for mode in blocked:
        if mode in rest:
            raise ModeMismatchError(f"output mode {mode.label()} is already occupied")
    if max_photons is not None:
        total = sum(rest.values())
        if total > max_photons:
            raise PhotonBudgetError(
                f"{total} photons exceed the configured maximum of {max_photons}"
            )
    return rest, [rest.pop(m, 0) for m in in_modes]


def apply_transform(
    state: PhotonState,
    t: ModeTransform,
    *,
    max_photons: int | None = None,
) -> PhotonState:
    """Evolve a state through one element by summing photon routings.

    ``max_photons``, when given, bounds the photon total of every term.
    Only the element's modes of each term change.  The result is
    normalized.
    """
    in_set, out_set = set(t.in_modes), set(t.out_modes)
    if in_set != out_set and in_set & out_set:
        raise ModeMismatchError(
            "transform input and output modes must coincide or be disjoint"
        )
    blocked = () if in_set == out_set else t.out_modes
    new: dict[BasisState, complex] = {}
    if len(t.in_modes) == 1:
        u = t.matrix[0][0]
        m_out = t.out_modes[0]
        for bs, amp in state:
            rest, (n,) = _split_term(bs, t.in_modes, blocked, max_photons)
            if not blocked:
                nb = bs
            else:
                rest[m_out] = n
                nb = BasisState._from_counts(rest)
            new[nb] = new.get(nb, 0j) + amp * u**n
    else:
        o1, o2 = t.out_modes
        cache: dict[tuple[int, int], dict[tuple[int, int], complex]] = {}
        for bs, amp in state:
            rest, (n1, n2) = _split_term(bs, t.in_modes, blocked, max_photons)
            key = (n1, n2)
            if key not in cache:
                cache[key] = scatter_two_mode(n1, n2, t.matrix, max_photons=n1 + n2)
            for (ma, mb), s_amp in cache[key].items():
                nb = BasisState._from_counts({**rest, o1: ma, o2: mb})
                new[nb] = new.get(nb, 0j) + amp * s_amp
    ports = state.ports.union(m.port for m in t.in_modes + t.out_modes)
    return normalize(PhotonState._from_terms(new, ports))
