"""Constructors for the supported optical elements.

Every element is a :class:`ModeTransform`: a unitary matrix over one or two
modes, stored in the substitution convention

    a_in[j]^dag  ->  sum_i  matrix[i][j] * a_out[i]^dag

so column j is the image of input mode j.  Polarization rotations follow the
passive convention x' = cos(t) x + sin(t) y, y' = -sin(t) x + cos(t) y; an
x-polarized photon therefore acquires amplitude -sin(t) on the rotated y'
axis.  All angles are radians here; degrees appear only at the circuit-file
surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from operator import mul

from .errors import (
    EnergyConservationError,
    ModeMismatchError,
    NonUnitaryError,
    PhaseRelationError,
)
from .fock import Mode

__all__ = [
    "UNITARY_TOL",
    "ModeTransform",
    "unitarity_defect",
    "require_unitary",
    "make_rbs",
    "make_split50_rbs",
    "make_pbs",
    "make_waveplate",
    "make_polarization_rotation",
    "make_phase_shifter",
    "thin_sheet_coefficients",
    "rotation_matrix",
    "mat2_mul",
]

# Tolerance for user-supplied coefficients; constructors built from angles
# are exact to rounding.
UNITARY_TOL = 1e-9

Matrix = tuple[tuple[complex, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(map(complex, row)) for row in rows)


def unitarity_defect(matrix) -> float:
    """Max-entry deviation of M M^dag from the identity; NaN if any is NaN."""
    m = _as_matrix(matrix)
    conj = [[v.conjugate() for v in row] for row in m]
    errors = [
        abs(sum(map(mul, row, conj_row)) - (1.0 if i == j else 0.0))
        for i, row in enumerate(m)
        for j, conj_row in enumerate(conj)
    ]
    return math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0)


def require_unitary(matrix) -> None:
    """Raise NonUnitaryError unless ``matrix`` is unitary within UNITARY_TOL."""
    defect = unitarity_defect(matrix)
    if not defect <= UNITARY_TOL:  # also rejects NaN
        raise NonUnitaryError(
            f"element not unitary: defect {defect:.3e} exceeds {UNITARY_TOL:.0e}"
        )


def mat2_mul(a, b) -> Matrix:
    a, b = _as_matrix(a), _as_matrix(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def rotation_matrix(theta: float) -> Matrix:
    c, s = math.cos(theta), math.sin(theta)
    return ((complex(c), complex(s)), (complex(-s), complex(c)))


@dataclass(frozen=True)
class ModeTransform:
    """A unitary acting on one or two labeled modes.

    ``in_modes`` and ``out_modes`` have equal length (1 or 2) and either
    coincide as sets (an in-place element such as a wave plate) or are
    disjoint (a rerouting element such as a beam splitter).
    """

    in_modes: tuple[Mode, ...]
    out_modes: tuple[Mode, ...]
    matrix: Matrix
    kind: str = "custom"
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "in_modes", tuple(self.in_modes))
        object.__setattr__(self, "out_modes", tuple(self.out_modes))
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))
        n = len(self.in_modes)
        if n not in (1, 2) or len(self.out_modes) != n:
            raise ModeMismatchError(
                "transforms act on one or two modes with equal arity; "
                f"got {len(self.in_modes)} in, {len(self.out_modes)} out"
            )
        if len(set(self.in_modes)) != n or len(set(self.out_modes)) != n:
            raise ModeMismatchError("transform modes must be distinct")
        in_set, out_set = set(self.in_modes), set(self.out_modes)
        if in_set != out_set and in_set & out_set:
            raise ModeMismatchError(
                "input and output modes must coincide or be disjoint"
            )
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ModeMismatchError(f"matrix must be {n}x{n}")
        require_unitary(self.matrix)

    def inverse(self) -> "ModeTransform":
        """The inverse element: conjugate-transpose matrix, modes swapped."""
        n = len(self.in_modes)
        adj = tuple(
            tuple(self.matrix[j][i].conjugate() for j in range(n)) for i in range(n)
        )
        return ModeTransform(
            in_modes=self.out_modes,
            out_modes=self.in_modes,
            matrix=adj,
            kind=f"{self.kind}_inverse",
            params=dict(self.params),
        )


def _magnitude(z: complex) -> float:
    """|z|, or inf where abs() of a complex raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _validate_rbs_coefficients(rho: complex, tau: complex, tol: float = UNITARY_TOL):
    r, t = _magnitude(rho), _magnitude(tau)
    total = r * r + t * t  # inf, not OverflowError
    if abs(total - 1.0) > tol:
        raise EnergyConservationError(
            f"|rho|^2 + |tau|^2 = {total:.12g} must equal 1"
        )
    if abs(rho) > tol and abs(tau) > tol:
        diff = math.remainder(cmath.phase(tau) - cmath.phase(rho), math.tau)
        if abs(abs(diff) - math.pi / 2) > tol:
            raise PhaseRelationError(
                "arg(tau) - arg(rho) must be +-90 degrees, got "
                f"{math.degrees(diff):.6g} degrees"
            )


def _default_modes(pol: str = "x"):
    return (
        (Mode("1", pol), Mode("2", pol)),
        (Mode("3", pol), Mode("4", pol)),
    )


def make_rbs(
    rho: complex,
    tau: complex,
    *,
    in_modes: tuple[Mode, Mode] | None = None,
    out_modes: tuple[Mode, Mode] | None = None,
) -> ModeTransform:
    """Lossless symmetric beam splitter with reflection rho, transmission tau.

    The coefficients must satisfy |rho|^2 + |tau|^2 = 1 and differ in phase
    by 90 degrees (each violation raises its own error type).  A coefficient
    of zero magnitude is exempt from the phase check.
    """
    rho, tau = complex(rho), complex(tau)
    _validate_rbs_coefficients(rho, tau)
    default_in, default_out = _default_modes()
    in_modes = tuple(in_modes) if in_modes is not None else default_in
    out_modes = tuple(out_modes) if out_modes is not None else default_out
    return ModeTransform(
        in_modes=in_modes,
        out_modes=out_modes,
        matrix=((rho, tau), (tau, rho)),
        kind="rbs",
        params={"rho": rho, "tau": tau},
    )


def make_split50_rbs(
    *,
    in_modes: tuple[Mode, Mode] | None = None,
    out_modes: tuple[Mode, Mode] | None = None,
) -> ModeTransform:
    """Balanced splitter with rho = 1/sqrt(2), tau = i/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return make_rbs(inv, 1j * inv, in_modes=in_modes, out_modes=out_modes)


def make_pbs(
    theta: float,
    *,
    in_port: str = "1",
    transmitted_port: str = "4",
    reflected_port: str = "3",
    axes: tuple[str, str] = ("x", "y"),
) -> ModeTransform:
    """Ideal polarizing beam splitter with its axes rotated by theta.

    The component along the rotated first axis leaves through the
    transmitted port, the orthogonal component through the reflected port,
    with no relative phase.  For theta = 0 the output modes keep the input
    axis tags; otherwise they are tagged with the rotated pair (x', y').
    """
    ax1, ax2 = axes
    ports = (in_port, transmitted_port, reflected_port)
    if ax1 == ax2 or len(set(ports)) != 3:
        raise ModeMismatchError(
            "malformed port/polarization layout: need one input port, two "
            "distinct output ports and two distinct axes"
        )
    if theta == 0.0:
        out_axes = (ax1, ax2)
    else:
        out_axes = ("x'", "y'")
    return ModeTransform(
        in_modes=(Mode(in_port, ax1), Mode(in_port, ax2)),
        out_modes=(Mode(transmitted_port, out_axes[0]), Mode(reflected_port, out_axes[1])),
        matrix=rotation_matrix(theta),
        kind="pbs",
        params={"theta": theta},
    )


def make_waveplate(
    phase: float,
    axis: float = 0.0,
    *,
    port: str = "1",
    axes: tuple[str, str] = ("x", "y"),
) -> ModeTransform:
    """Wave plate: retardation ``phase`` on the slow axis, fast axis at ``axis``.

    The matrix is R(-axis) diag(1, e^{i phase}) R(axis); the fast axis picks
    up exactly zero phase.  phase = pi/2 is a quarter-wave plate, pi a
    half-wave plate.
    """
    r_fwd = rotation_matrix(axis)
    r_back = rotation_matrix(-axis)
    retard = ((1.0 + 0j, 0j), (0j, cmath.exp(1j * phase)))
    matrix = mat2_mul(r_back, mat2_mul(retard, r_fwd))
    modes = (Mode(port, axes[0]), Mode(port, axes[1]))
    return ModeTransform(
        in_modes=modes,
        out_modes=modes,
        matrix=matrix,
        kind="waveplate",
        params={"phase": phase, "axis": axis},
    )


def make_polarization_rotation(
    theta: float,
    *,
    port: str = "1",
    axes: tuple[str, str] = ("x", "y"),
) -> ModeTransform:
    """Re-express a port's polarization pair in a frame rotated by theta.

    This is the R(theta) appearing inside the wave-plate construction; the
    port keeps its axis labels, which afterwards refer to the rotated frame.
    """
    modes = (Mode(port, axes[0]), Mode(port, axes[1]))
    return ModeTransform(
        in_modes=modes,
        out_modes=modes,
        matrix=rotation_matrix(theta),
        kind="rotpol",
        params={"theta": theta},
    )


def make_phase_shifter(phase: float, *, mode: Mode = Mode("1", "x")) -> ModeTransform:
    """Single-mode phase shifter: |n> picks up e^{i n phase}."""
    return ModeTransform(
        in_modes=(mode,),
        out_modes=(mode,),
        matrix=((cmath.exp(1j * phase),),),
        kind="phase",
        params={"phase": phase},
    )


def thin_sheet_coefficients(phi_tau: float) -> tuple[complex, complex]:
    """Reflection and transmission of a lossless thin-sheet splitter model.

    For a transmission phase phi_tau in the open interval (-pi/2, pi/2) the
    model gives tau = cos(phi_tau) e^{i phi_tau} and rho = tau - 1, which
    automatically satisfy energy conservation and the 90 degree phase
    relation.  rho is evaluated through the equivalent product form
    i sin(phi_tau) e^{i phi_tau}: the literal subtraction tau - 1 cancels
    catastrophically near zero and would leave rho's phase too noisy to
    pass the splitter gate.
    """
    if not -math.pi / 2 < phi_tau < math.pi / 2:
        raise ValueError(
            f"transmission phase must lie strictly inside (-pi/2, pi/2), got {phi_tau!r}"
        )
    direction = cmath.exp(1j * phi_tau)
    tau = math.cos(phi_tau) * direction
    rho = 1j * math.sin(phi_tau) * direction
    return rho, tau
