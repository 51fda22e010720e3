"""Creation-operator evolution engine.

A state is rewritten as a polynomial in mode creation operators acting on
the vacuum, each element substitutes its input operators by linear
combinations of output operators, the polynomial is expanded by iterated
multiplication, and the result is read back into Fock amplitudes.  This is
an independent derivation of the same physics as the path-sum engine, which
is why comparing the two is a meaningful correctness check.

Exponent vectors of monomials reuse :class:`fockpath.fock.BasisState`: a
monomial prod_m (a_m^dag)^{e_m} is keyed by its exponent occupancy.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

from .elements import ModeTransform
from .errors import ModeMismatchError
from .fock import BasisState, Mode, PhotonState, check_photon_budget, normalize

__all__ = [
    "CreationPolynomial",
    "state_to_polynomial",
    "polynomial_to_state",
    "substitute_modes",
    "apply_transform",
]

ENGINE_NAME = "operators"

_CM = Mapping[BasisState, complex]


@dataclass(frozen=True)
class CreationPolynomial:
    """Polynomial in creation operators, applied to the vacuum."""

    terms: dict[BasisState, complex] = field(default_factory=dict)

    def coefficient(self, key: BasisState | Mapping[Mode, int]) -> complex:
        if not isinstance(key, BasisState):
            key = BasisState(key)
        return self.terms.get(key, 0j)

    def __len__(self) -> int:
        return len(self.terms)


def _factorial_product(bs: BasisState) -> int:
    return math.prod(math.factorial(n) for _, n in bs.items())


def state_to_polynomial(state: PhotonState) -> CreationPolynomial:
    """Coefficient of each monomial is amplitude / sqrt(prod m!)."""
    return CreationPolynomial(
        {bs: amp / math.sqrt(_factorial_product(bs)) for bs, amp in state}
    )


def polynomial_to_state(
    poly: CreationPolynomial,
    *,
    normalized: bool = True,
    ports=(),
) -> PhotonState:
    """Amplitude of each basis state is coefficient * sqrt(prod m!).

    By default the result is normalized; a pre-normalization squared norm
    off from one by more than 1e-9 signals an unnormalized input and is
    reported as a RuntimeWarning.  The ports of the result are ``ports``
    plus every port a monomial mentions.
    """
    terms = {bs: c * math.sqrt(_factorial_product(bs)) for bs, c in poly.terms.items()}
    universe = frozenset(ports).union(m.port for bs in terms for m, _ in bs.items())
    state = PhotonState._from_terms(terms, universe)
    n2 = state.norm_squared()
    if abs(n2 - 1.0) > 1e-9:
        warnings.warn(
            f"polynomial squared norm {n2:.12g} differs from 1",
            RuntimeWarning,
            stacklevel=2,
        )
    if not normalized:
        return state
    return normalize(state)


def _poly_mul(p: _CM, q: _CM) -> dict[BasisState, complex]:
    out: dict[BasisState, complex] = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = k1.combine(k2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _linear_power(
    images: list[tuple[Mode, complex]], exponent: int
) -> dict[BasisState, complex]:
    """(sum_i c_i b_i^dag)^exponent, expanded by iterated multiplication."""
    base = {BasisState({m: 1}): c for m, c in images if c != 0}
    result: dict[BasisState, complex] = {BasisState(): 1.0 + 0j}
    for _ in range(exponent):
        result = _poly_mul(result, base)
    return result


def substitute_modes(poly: CreationPolynomial, t: ModeTransform) -> CreationPolynomial:
    """Substitute each input operator by its image under the element.

    A monomial splits into the modes the element leaves alone and the
    exponents of its input modes.  The image of the input part is expanded
    once per exponent tuple and merged into each untouched part.
    """
    out_set = set(t.out_modes)
    blocked = set() if set(t.in_modes) == out_set else out_set
    images = [
        [(t.out_modes[i], t.matrix[i][j]) for i in range(len(t.out_modes))]
        for j in range(len(t.in_modes))
    ]
    image_cache: dict[tuple[int, ...], list[tuple[dict[Mode, int], complex]]] = {}
    out: dict[BasisState, complex] = {}
    for key, coeff in poly.terms.items():
        rest = dict(key.items())
        if not blocked.isdisjoint(rest):
            mode = min(blocked.intersection(rest))
            raise ModeMismatchError(f"output mode {mode.label()} is already occupied")
        exponents = tuple(rest.pop(m, 0) for m in t.in_modes)
        image = image_cache.get(exponents)
        if image is None:
            expanded: dict[BasisState, complex] = {BasisState(): 1.0 + 0j}
            for mode_images, e in zip(images, exponents):
                expanded = _poly_mul(expanded, _linear_power(mode_images, e))
            image = image_cache[exponents] = [
                (dict(k.items()), c) for k, c in expanded.items()
            ]
        for counts, c in image:
            k = BasisState._from_counts({**rest, **counts})
            out[k] = out.get(k, 0j) + coeff * c
    return CreationPolynomial({k: c for k, c in out.items() if c != 0})


def apply_transform(
    state: PhotonState,
    t: ModeTransform,
    *,
    max_photons: int | None = None,
) -> PhotonState:
    """Evolve a state through one element via operator substitution.

    ``max_photons``, when given, bounds the photon total of every term.
    """
    for bs, _ in state:
        check_photon_budget(bs.total, max_photons)
    poly = substitute_modes(state_to_polynomial(state), t)
    ports = state.ports.union(m.port for m in t.in_modes + t.out_modes)
    return polynomial_to_state(poly, ports=ports)
