"""Creation-operator evolution engine.

A state is a polynomial in mode creation operators on the vacuum, with
amplitude = coefficient * sqrt(prod m!).  Each element maps its input
operators to linear combinations of its output operators, so the image of
an operator through a whole circuit is the product of the element maps.
:func:`evolve` walks a circuit's elements once and carries each occupied
slot's creation operator as a column of coefficients over the current
modes; each element rewrites only its own modes' entries.  It then expands
the image of each monomial once, by iterated multiplication once per
exponent tuple of the moved slots, and scales it by sqrt(prod m!)/sqrt(prod
n!), which substitutes Fock amplitudes directly.  Only a rerouting element
whose output mode may still hold photons splits the walk: the elements
before it are expanded first, so that the element sees the pruned state.
:func:`apply_transform` is the one-element case.  This is an independent
derivation of the same physics as the path-sum engine, which is why
comparing the two is a meaningful correctness check.

Monomials are keyed like state terms: a monomial prod_m (a_m^dag)^{e_m} is
the int that packs its exponents over a slot table of modes, one byte per
slot (see :func:`fockpath.fock._key`), and :class:`fockpath.fock.BasisState`
is its public key.  Images are keyed the same way, over their output
slots, so multiplying monomials adds their keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from itertools import islice

from . import fock
from .elements import ModeTransform
from .errors import FockPathError, ModeMismatchError, PhotonBudgetError
from .fock import (
    PRUNE_EPS,
    BasisState,
    Mode,
    PhotonState,
    Slots,
    _check_size,
    _SlotTerms,
    _at,
    _counts,
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
    "evolve",
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


def _root(counts: bytes) -> float:
    """sqrt(prod m!) over the photon ``counts``."""
    # counts 0 and 1 add a factor of 1; math.factorial serves the other
    # small counts from CPython's built-in table
    return math.sqrt(math.prod(map(math.factorial, counts.translate(None, b"\0\1"))))


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
    plus every slot's port, whether a monomial occupies the slot or not.
    """
    slots = poly._slots
    terms = {k: c * _root(_counts(k, len(slots))) for k, c in poly._terms.items()}
    return _finished(slots, terms, ports, normalized=normalized)


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
    dict between the exponent tuples of one call.
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
    root, image = _root(bytes(exponents)), _image(matrix, exponents, outs, powers)
    size = max(outs) + 1  # image keys hold photons in no other slot
    return [(k, c * _root(_counts(k, size)) / root) for k, c in image]


def _substitute(terms, ins, outs, matrix, image_of) -> dict[int, complex]:
    """``terms`` with ``image_of(matrix, exponents, outs, powers)`` of each
    key's input exponents (at slots ``ins``) in place of its counts there.

    A key with no exponent at ``ins`` has image 1 and passes unchanged.  Two
    caches last this one call: the images by the key's bits at ``ins``, as
    ``(delta, c)`` pairs that move a key to key + delta; and the column
    ``powers`` of :func:`_image`.  Image keys add exactly, since the photon
    budget keeps every count of theirs within MAX_COUNT.  Once the output
    holds more than fock.MAX_TERMS keys, and again each time it grows by a
    quarter, :func:`_check_partial` stops it if its final state must be
    larger; after the last term the caller counts the pruned state itself.
    """
    mask = _mask(ins)
    image_cache: dict[int, list[tuple[int, complex]]] = {}
    powers: dict = {}
    out: dict[int, complex] = {}
    limit = fock.MAX_TERMS
    for done, (key, coeff) in enumerate(terms.items(), 1):
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
        if len(out) > limit and done < len(terms):
            left = (k & mask for k in islice(terms, done, None))
            _check_partial(out, left, image_cache, ins, len(outs))
            limit = len(out) + len(out) // 4
    return out


def _check_partial(out, left, image_cache, ins, width: int) -> None:
    """Raise PhotonBudgetError if a partial sum ``out`` of
    :func:`_substitute` must end with more than fock.MAX_TERMS terms.

    Its terms of magnitude PRUNE_EPS or more can only be cancelled where
    the input terms still to come add to their keys.  ``left`` holds those
    terms' bits at slots ``ins``, one at least: such a term reaches as many
    keys as its cached image holds, or else at most as many as there are
    ways to place its photons on the ``width`` output slots.
    """
    kept = sum(abs(a) >= PRUNE_EPS for a in out.values())
    reach: dict[int, int] = {0: 1}
    for fields in left:
        if fields not in reach:
            image = image_cache.get(fields)
            if image is None:
                photons = sum(_at(fields, ins))
                reach[fields] = math.comb(photons + width - 1, width - 1)
            else:
                reach[fields] = len(image)
        kept -= reach[fields]
        if kept <= fock.MAX_TERMS:
            return
    raise PhotonBudgetError(
        f"the state has at least {kept} terms, more than the maximum of {fock.MAX_TERMS}"
    )


def _composed(slots: Slots, terms, bound) -> tuple[int, Slots, tuple, tuple, list]:
    """Compose the creation operator of each slot occupied in ``terms``
    through the ``(transform, line)`` pairs of ``bound``, in one walk, up to
    the first rerouting element with an output mode that still holds a row.

    Each mode's row holds its coefficient in each operator's image; an
    element replaces its input modes' rows by their combinations, as its
    output modes' rows.  A row with no coefficient of magnitude PRUNE_EPS or
    more is dropped, as the path-sum engine drops such amplitudes.  A row
    that is kept may still cancel in the state, so the walk stops before
    the rerouting element it meets.  Only when that element is the first,
    where every row is an occupied slot of ``terms``, is ModeMismatchError
    raised, naming ``line`` unless it is None.

    Returns ``(done, table, ins, outs, matrix)`` for :func:`_substitute`:
    ``done`` elements were composed; the operators that moved sit at slots
    ``ins`` and the modes they reach at slots ``outs`` of ``table``, which
    is ``slots`` followed by each mode those elements name that has none,
    inputs before outputs, in circuit order; ``matrix[i][j]`` is the
    coefficient of ``outs[i]`` in the image of ``ins[j]``.
    """
    sources = _occupied(terms, len(slots))
    n = len(sources)
    rows = {slots[s]: [complex(j == k) for k in range(n)] for j, s in enumerate(sources)}
    moved: set[int] = set()
    done, table = 0, dict.fromkeys(slots)  # an ordered set: update keeps each mode's place
    for t, line in bound:
        filled = [m for m in t.out_modes if m in rows and m not in t.in_modes]
        if filled and done:
            break
        if filled:
            where = "" if line is None else f"line {line}: "
            raise ModeMismatchError(f"{where}output mode {filled[0].label()} is already occupied")
        done += 1
        table.update(dict.fromkeys(t.in_modes + t.out_modes))
        taken = [(j, rows.pop(m)) for j, m in enumerate(t.in_modes) if m in rows]
        if not taken:  # no image reaches this element
            continue
        for _, row in taken:
            moved.update(k for k, c in enumerate(row) if c)
        for m, entries in zip(t.out_modes, t.matrix):
            row = [sum(entries[j] * r[k] for j, r in taken) for k in range(n)]
            if max(map(abs, row)) >= PRUNE_EPS:
                rows[m] = row
    keep = sorted(moved)
    reached = [m for m, row in rows.items() if any(row[k] for k in keep)]
    table = tuple(table)
    ins = tuple(sources[k] for k in keep)
    outs = tuple(map(table.index, reached))
    return done, table, ins, outs, [[rows[m][k] for k in keep] for m in reached]


def substitute_modes(poly: CreationPolynomial, t: ModeTransform) -> CreationPolynomial:
    """Substitute each input operator by its image under the element.

    The image of a monomial's input exponents is expanded once per exponent
    tuple, keyed over the element's output slots, and added to its key.
    """
    _, table, ins, outs, matrix = _composed(poly._slots, poly._terms, ((t, None),))
    out = _substitute(poly._terms, ins, outs, matrix, _image)
    return CreationPolynomial._trusted(table, {k: c for k, c in out.items() if c != 0})


def apply_transform(state: PhotonState, t: ModeTransform) -> PhotonState:
    """Evolve a state through one element via operator substitution on its
    amplitudes; see :func:`evolve`.
    """
    return evolve(state, ((t, None),))


def evolve(state: PhotonState, bound) -> PhotonState:
    """Evolve a state through a circuit's ``(transform, line)`` pairs (its
    ``Circuit.bound``): compose the elements first, then expand once.

    Where a rerouting element writes to a mode that may still hold photons,
    the elements before it are expanded first, and the walk goes on from
    that state, whose amplitudes below PRUNE_EPS are dropped; the element
    raises ModeMismatchError at its line if the mode is occupied there.  An
    expansion's errors name its last element's line: more than MAX_COUNT
    photons to move in one term, or more than fock.MAX_TERMS terms, which
    stops it as soon as its output must end above them.  Lines that are
    None are not named.  The result is normalized, with a RuntimeWarning
    if its squared norm drifted.
    """
    while bound:
        done, table, ins, outs, matrix = _composed(state._slots, state._terms, bound)
        line = bound[done - 1][1]
        try:
            new = _substitute(state._terms, ins, outs, matrix, _amplitude_image)
            state = _finished(table, new, state.ports)
            _check_size(len(state), "the state")
        except FockPathError as exc:
            if line is None:
                raise
            raise type(exc)(f"line {line}: {exc}") from exc
        bound = bound[done:]
    return state
