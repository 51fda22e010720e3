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
the int that packs its exponents over a slot table of modes, one byte per
slot (see :func:`fockpath.fock._key`), and :class:`fockpath.fock.BasisState`
is its public key.  An element's images are keyed the same way, over its
output slots, so multiplying monomials adds their keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .elements import ModeTransform
from .fock import (
    BasisState,
    Mode,
    PhotonState,
    _SlotTerms,
    _at,
    _counts,
    _element_slots,
    _finished,
    _mask,
    _occupied,
    _unit,
    check_photon_budget,
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


def _root(counts: Iterable[int]) -> float:
    """sqrt(prod m!) over ``counts``."""
    # math.factorial serves small counts from CPython's built-in table
    return math.sqrt(math.prod(map(math.factorial, counts)))


def state_to_polynomial(state: PhotonState) -> CreationPolynomial:
    """Coefficient of each monomial is amplitude / sqrt(prod m!)."""
    size = len(state._slots)
    terms = {k: a / _root(_counts(k, size)) for k, a in state._terms.items()}
    return CreationPolynomial._trusted(state._slots, terms)


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
    terms = {k: c * _root(_counts(k, len(slots))) for k, c in poly._terms.items()}
    occupied = [slots[i] for i in _occupied(terms, len(slots))]
    return _finished(slots, terms, ports, occupied, normalized=normalized)


def _product(p: Mapping[int, complex], q: Mapping[int, complex]) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = k1 + k2
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _image(matrix, exponents: tuple[int, ...], outs, powers: dict) -> list[tuple[int, complex]]:
    """prod_j (sum_i matrix[i][j] b_i^dag)^{e_j}, expanded by iterated
    multiplication and keyed like terms: output operator b_i counts at slot
    ``outs[i]``.

    ``powers`` maps column j to its base and its powers so far, ``column[e]
    = _product(column[e - 1], base)``; :func:`_substitute` shares one such
    dict between the exponent tuples of one element.
    """
    one = {0: 1.0 + 0j}
    image = one
    for j, e in enumerate(exponents):
        if j not in powers:
            base = {_unit(o): matrix[i][j] for i, o in enumerate(outs) if matrix[i][j] != 0}
            powers[j] = (base, [one])
        base, column = powers[j]
        while len(column) <= e:
            column.append(_product(column[-1], base))
        image = _product(image, column[e])
    return list(image.items())


def _amplitude_image(matrix, exponents, outs, powers: dict) -> list[tuple[int, complex]]:
    """:func:`_image` times sqrt(prod m!)/sqrt(prod n!): amplitudes to amplitudes."""
    root, image = _root(exponents), _image(matrix, exponents, outs, powers)
    return [(k, c * _root(_at(k, outs)) / root) for k, c in image]


def _substitute(terms, ins, outs, matrix, image_of) -> dict[int, complex]:
    """``terms`` with ``image_of(matrix, exponents, outs, powers)`` of each
    key's input exponents (at slots ``ins``) in place of its counts there.

    A key with no exponent at ``ins`` has image 1 and passes unchanged.  Two
    caches last this one call: the images by the key's bits at ``ins``, as
    ``(delta, c)`` pairs that move a key to key + delta; and the column
    ``powers`` of :func:`_image`.  Image keys add exactly, since the photon
    budget keeps every count of theirs within MAX_COUNT.
    """
    mask = _mask(ins)
    image_cache: dict[int, list[tuple[int, complex]]] = {}
    powers: dict = {}
    out: dict[int, complex] = {}
    for key, coeff in terms.items():
        fields = key & mask
        if not fields:  # no other key reaches this one
            out[key] = 0j + coeff
            continue
        image = image_cache.get(fields)
        if image is None:
            exponents = tuple(_at(fields, ins))
            check_photon_budget(sum(exponents), None)
            image = image_cache[fields] = [
                (k - fields, c) for k, c in image_of(matrix, exponents, outs, powers)
            ]
        for delta, c in image:
            k = key + delta
            out[k] = out.get(k, 0j) + coeff * c
    return out


def substitute_modes(poly: CreationPolynomial, t: ModeTransform) -> CreationPolynomial:
    """Substitute each input operator by its image under the element.

    The image of a monomial's input exponents is expanded once per exponent
    tuple, keyed over the element's output slots, and added to its key.
    """
    slots, terms, ins, outs = _element_slots(poly, t)
    out = _substitute(terms, ins, outs, t.matrix, _image)
    return CreationPolynomial._trusted(slots, {k: c for k, c in out.items() if c != 0})


def apply_transform(state: PhotonState, t: ModeTransform) -> PhotonState:
    """Evolve a state through one element via operator substitution on its
    amplitudes.  The result is normalized, with a RuntimeWarning if its
    squared norm drifted.
    """
    slots, terms, ins, outs = _element_slots(state, t)
    new = _substitute(terms, ins, outs, t.matrix, _amplitude_image)
    return _finished(slots, new, state.ports, t.in_modes + t.out_modes)
