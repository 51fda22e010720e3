"""Coherent-state helpers: truncation, closed-form element action, fidelity.

A coherent amplitude gamma expands over Fock states as
c_n = e^{-|gamma|^2/2} gamma^n / sqrt(n!).  Elements act on coherent light
classically: a splitter mixes the amplitudes with its (rho, tau) matrix and
a wave plate multiplies the slow-axis amplitude by its retardation phase,
so truncated engine evolution can be checked against exact product states.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass

from .elements import _magnitude, _validate_rbs_coefficients
from .errors import NullStateError, TruncationError
from .fock import BasisState, Mode, PhotonState, inner_product, normalize, tensor_product

__all__ = [
    "TAIL_TOL",
    "CoherentParams",
    "poisson_tail",
    "default_truncation",
    "coherent_fock_coefficients",
    "coherent_state",
    "rbs_coherent_output",
    "waveplate_coherent_output",
    "combine_polarized_coherent",
    "coherent_fidelity",
]

TAIL_TOL = 1e-10


@dataclass(frozen=True)
class CoherentParams:
    """Coherent amplitude plus the Fock cutoff used to represent it."""

    gamma: complex
    truncation: int

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")


def poisson_tail(mean: float, n: int) -> float:
    """P(X > n) for X ~ Poisson(mean), accumulated stably.

    Raises TruncationError once e^-mean underflows (mean above about 708),
    where the sum can no longer resolve the tail.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0.0:
        return 0.0
    term = math.exp(-mean)
    # once e^{-mean} leaves the normal float range the terms are too coarse
    # (or all zero) to resolve the tail: the sum would read 1 - 0 = 1
    if not term >= sys.float_info.min:
        raise TruncationError(
            f"Poisson mean {mean:.6g} is too large: e^-mean underflows, "
            "so its tail cannot be resolved"
        )
    cdf = term
    for k in range(1, n + 1):
        term *= mean / k
        cdf += term
    return max(0.0, 1.0 - cdf)


def _coherent_magnitude(gamma: complex) -> float:
    """|gamma|, once |gamma|^2 is known to be a finite mean photon number."""
    magnitude = _magnitude(gamma)
    if not math.isfinite(magnitude * magnitude):
        raise TruncationError(
            f"coherent source |gamma|={magnitude:.6g} has no finite mean photon number"
        )
    return magnitude


def default_truncation(
    gamma: complex, tail_tol: float = TAIL_TOL, cap: int | None = None
) -> int:
    """Smallest cutoff whose neglected Poisson tail is below tail_tol."""
    magnitude = _coherent_magnitude(gamma)
    mean = magnitude * magnitude
    n = 0
    while poisson_tail(mean, n) >= tail_tol:
        n += 1
        if cap is not None and n > cap:
            raise TruncationError(
                f"coherent source |gamma|={magnitude:.6g} needs more than "
                f"{cap} Fock terms for tail < {tail_tol:.1e}"
            )
    return n


def coherent_fock_coefficients(params: CoherentParams) -> list[complex]:
    """Coefficients c_0 .. c_N of the truncated expansion.

    Raises if |gamma|^2 is not finite, or if the truncation leaves more than
    TAIL_TOL of probability outside the kept terms.
    """
    gamma, n_max = params.gamma, params.truncation
    prefactor = math.exp(-_coherent_magnitude(gamma) ** 2 / 2.0)
    coeffs = []
    term = complex(prefactor)
    for n in range(n_max + 1):
        if n > 0:
            term = term * gamma / math.sqrt(n)
        coeffs.append(term)
    kept = math.fsum(abs(c) ** 2 for c in coeffs)
    if 1.0 - kept > TAIL_TOL:
        raise TruncationError(
            f"truncation {n_max} keeps only {kept:.12g} of the norm "
            f"(needs tail < {TAIL_TOL:.1e})"
        )
    return coeffs


def coherent_state(params: CoherentParams, mode: Mode) -> PhotonState:
    """Normalized truncated coherent ket on a single mode."""
    coeffs = coherent_fock_coefficients(params)
    terms = {BasisState({mode: n}): c for n, c in enumerate(coeffs)}
    return normalize(PhotonState(terms, ports=[mode.port]))


def rbs_coherent_output(
    gamma1: complex, gamma2: complex, rho: complex, tau: complex
) -> tuple[complex, complex]:
    """Coherent amplitudes leaving a splitter: classical mixing.

    Returns (gamma3, gamma4) = (rho g1 + tau g2, tau g1 + rho g2).
    """
    rho, tau = complex(rho), complex(tau)
    _validate_rbs_coefficients(rho, tau)
    gamma1, gamma2 = complex(gamma1), complex(gamma2)
    return rho * gamma1 + tau * gamma2, tau * gamma1 + rho * gamma2


def waveplate_coherent_output(gamma: complex, phase: float) -> complex:
    """Slow-axis coherent amplitude after a wave plate of given retardation."""
    return complex(gamma) * cmath.exp(1j * phase)


def combine_polarized_coherent(
    gamma1: complex, gamma2: complex
) -> tuple[complex, float, float]:
    """Fold two orthogonal coherent amplitudes into one polarized beam.

    Returns (gamma, theta, delta_phi) with |gamma|^2 = |g1|^2 + |g2|^2,
    cos(theta) = |g1| / |gamma| and delta_phi = arg g2 - arg g1, such that
    g1 = gamma cos(theta) and g2 = gamma e^{i delta_phi} sin(theta).
    When g1 = 0 the convention is theta = pi/2, delta_phi = 0, with g2's
    phase carried entirely by gamma.
    """
    gamma1, gamma2 = complex(gamma1), complex(gamma2)
    mag = math.hypot(abs(gamma1), abs(gamma2))
    if mag == 0.0:
        raise NullStateError("both coherent amplitudes are zero")
    theta = math.atan2(abs(gamma2), abs(gamma1))
    # math.atan2, unlike cmath.phase, does not raise when the phase underflows
    phi1, phi2 = (math.atan2(g.imag, g.real) for g in (gamma1, gamma2))
    if abs(gamma1) == 0.0:
        return abs(gamma2) * cmath.exp(1j * phi2), math.pi / 2, 0.0
    delta = phi2 - phi1 if abs(gamma2) else 0.0
    return mag * cmath.exp(1j * phi1), theta, delta


def coherent_fidelity(
    state: PhotonState, targets: Mapping[Mode, CoherentParams]
) -> float:
    """|<product of truncated coherent kets | state>|^2."""
    if not targets:
        raise ValueError("at least one target mode is required")
    # renormalized: the product's terms below PRUNE_EPS are dropped
    product = normalize(
        tensor_product(*(coherent_state(p, mode) for mode, p in sorted(targets.items())))
    )
    return abs(inner_product(product, state)) ** 2
