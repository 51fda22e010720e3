"""Creation-operator evolution engine.

A state is a polynomial in mode creation operators on the vacuum, with
amplitude = coefficient * sqrt(prod m!).  Each element substitutes its input
operators by linear combinations of output operators, expanded by iterated
multiplication once per exponent tuple of its own modes; the other modes'
factorials cancel, so :func:`apply_transform` scales that cached image by
sqrt(m_a! m_b!)/sqrt(n_1! n_2!) and substitutes Fock amplitudes directly.
This is an independent derivation of the same physics as the path-sum
engine, which is why comparing the two is a meaningful correctness check.

Monomials are keyed like state terms: a monomial prod_m (a_m^dag)^{e_m} is
the tuple of its exponents over a slot table of modes (see
:func:`fockpath.fock._element_slots`), and :class:`fockpath.fock.BasisState`
is its public key.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from operator import add

from .elements import ModeTransform
from .fock import (
    BasisState,
    Mode,
    PhotonState,
    _SlotTerms,
    _element_slots,
    _finished,
    normalize,  # noqa: F401  (perfbench/tracer.py wraps it; --trace 1 fails without it)
)

__all__ = [
    "CreationPolynomial",
    "state_to_polynomial",
    "polynomial_to_state",
    "substitute_modes",
    "apply_transform",
]

ENGINE_NAME = "operators"

_Exponents = tuple[int, ...]


class CreationPolynomial(_SlotTerms):
    """Polynomial in creation operators, applied to the vacuum.

    ``terms`` maps each monomial's exponent occupancy to its coefficient.
    """

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[BasisState, complex] | Iterable[tuple[BasisState, complex]] = (),
    ):
        self._set_basis_terms(dict(terms))

    def coefficient(self, key: BasisState | Mapping[Mode, int]) -> complex:
        return self._lookup(key)

    def __eq__(self, other) -> bool:
        return isinstance(other, CreationPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"CreationPolynomial(terms={self.terms!r})"


def state_to_polynomial(state: PhotonState) -> CreationPolynomial:
    """Coefficient of each monomial is amplitude / sqrt(prod m!)."""
    # math.factorial serves small counts from CPython's built-in table
    return CreationPolynomial._trusted(
        state._slots,
        {k: a / math.sqrt(math.prod(map(math.factorial, k))) for k, a in state._terms.items()},
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
    slots = poly._slots
    terms = {k: c * math.sqrt(math.prod(map(math.factorial, k))) for k, c in poly._terms.items()}
    occupied = (m for m, column in zip(slots, zip(*terms)) if any(column))
    return _finished(slots, terms, ports, occupied, normalized=normalized)


def _product(
    p: Mapping[_Exponents, complex], q: Mapping[_Exponents, complex]
) -> dict[_Exponents, complex]:
    out: dict[_Exponents, complex] = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(map(add, k1, k2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _image(matrix, exponents: _Exponents) -> list[tuple[_Exponents, complex]]:
    """prod_j (sum_i matrix[i][j] b_i^dag)^{e_j}, expanded by iterated
    multiplication and keyed by the exponents of the output operators b_i."""
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
            power = _product(power, base)
        image = _product(image, power)
    return list(image.items())


def _amplitude_image(matrix, exponents: _Exponents) -> list[tuple[_Exponents, complex]]:
    """:func:`_image` times sqrt(prod m!)/sqrt(prod n!): amplitudes to amplitudes."""
    root = math.sqrt(math.prod(map(math.factorial, exponents)))
    return [
        (k, c * math.sqrt(math.prod(map(math.factorial, k))) / root)
        for k, c in _image(matrix, exponents)
    ]


def _substitute(terms, ins, outs, matrix, image_of) -> dict[_Exponents, complex]:
    """``terms`` with ``image_of(matrix, exponents)`` of each key's input
    exponents (at slots ``ins``) written over its slots ``outs``."""
    # an element acts on one or two modes, so [0] and [-1] reach all of them
    i1, i2, o1, o2, n = ins[0], ins[-1], outs[0], outs[-1], len(ins)
    image_cache: dict[tuple[int, int], list[tuple[_Exponents, complex]]] = {}
    out: dict[_Exponents, complex] = {}
    for key, coeff in terms.items():
        exponents = (key[i1], key[i2])
        image = image_cache.get(exponents)
        if image is None:
            image = image_cache[exponents] = image_of(matrix, exponents[:n])
        counts = list(key)
        for written, c in image:
            counts[o1], counts[o2] = written[0], written[-1]
            k = tuple(counts)
            out[k] = out.get(k, 0j) + coeff * c
    return out


def substitute_modes(poly: CreationPolynomial, t: ModeTransform) -> CreationPolynomial:
    """Substitute each input operator by its image under the element.

    The image of a monomial's input exponents is expanded once per exponent
    tuple and written over the element's slots of the monomial.
    """
    slots, terms, ins, outs = _element_slots(poly, t)
    out = _substitute(terms, ins, outs, t.matrix, _image)
    return CreationPolynomial._trusted(slots, {k: c for k, c in out.items() if c != 0})


def apply_transform(
    state: PhotonState,
    t: ModeTransform,
    *,
    max_photons: int | None = None,
) -> PhotonState:
    """Evolve a state through one element via operator substitution on its
    amplitudes.  ``max_photons``, when given, bounds the photon total of
    every term.  The result is normalized, with a RuntimeWarning if its
    squared norm drifted.
    """
    slots, terms, ins, outs = _element_slots(state, t, max_photons)
    new = _substitute(terms, ins, outs, t.matrix, _amplitude_image)
    return _finished(slots, new, state.ports, t.in_modes + t.out_modes)
