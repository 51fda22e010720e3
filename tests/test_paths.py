"""Path-sum engine against an independent labeled-photon oracle.

The oracle builds the expanded matrix (rows repeated per output count,
columns per input count) and sums over all labeled photon-to-slot
bijections — a permanent — then divides by the sqrt factorials.  It shares
no code with the closed-form multinomial sum under test.
"""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockpath import (
    BasisState,
    Mode,
    ModeMismatchError,
    NonUnitaryError,
    PhotonBudgetError,
    PhotonState,
    make_phase_shifter,
    make_rbs,
    make_split50_rbs,
    scatter_two_mode,
    trace_paths,
)
from fockpath import operators, paths
from fockpath.paths import apply_transform

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def permanent(mat):
    n = len(mat)
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= mat[i][j]
        total += prod
    return total


def oracle_amplitude(n1, n2, matrix, ma, mb):
    """Bosonic transition amplitude via brute-force permanent."""
    cols = [0] * n1 + [1] * n2
    rows = [0] * ma + [1] * mb
    if not rows:
        return 1.0 + 0j
    expanded = [[matrix[r][c] for c in cols] for r in rows]
    norm = math.sqrt(
        math.factorial(n1)
        * math.factorial(n2)
        * math.factorial(ma)
        * math.factorial(mb)
    )
    return permanent(expanded) / norm


def random_unitary2(rng):
    """Haar-ish random 2x2 unitary built from angles; exact unitarity."""
    half = rng.uniform(0.0, math.pi / 2)
    a, b, g = (rng.uniform(-math.pi, math.pi) for _ in range(3))
    c, s = math.cos(half), math.sin(half)
    return (
        (c * cmath.exp(1j * a), s * cmath.exp(1j * b)),
        (-s * cmath.exp(1j * (g - b)), c * cmath.exp(1j * (g - a))),
    )


def test_identity_single_photon():
    eye = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
    assert scatter_two_mode(1, 0, eye) == {(1, 0): pytest.approx(1.0)}


def test_hong_ou_mandel_coincidence_cancels():
    amps = scatter_two_mode(1, 1, make_split50_rbs().matrix)
    assert (1, 1) not in amps  # exact float cancellation, pruned
    assert amps[(2, 0)] == pytest.approx(1j * INV_SQRT2)
    assert amps[(0, 2)] == pytest.approx(1j * INV_SQRT2)


def test_two_one_splitter_closed_forms():
    rho, tau = 0.6, 0.8j
    amps = scatter_two_mode(2, 1, make_rbs(rho, tau).matrix)
    assert amps[(3, 0)] == pytest.approx(math.sqrt(3) * rho**2 * tau, abs=1e-12)
    assert amps[(2, 1)] == pytest.approx(rho**3 + 2 * rho * tau**2, abs=1e-12)
    assert amps[(1, 2)] == pytest.approx(tau**3 + 2 * tau * rho**2, abs=1e-12)
    assert amps[(0, 3)] == pytest.approx(math.sqrt(3) * tau**2 * rho, abs=1e-12)


def test_scatter_matches_oracle_over_small_occupancies():
    rng = random.Random(1234)
    for _ in range(100):
        m = random_unitary2(rng)
        for n1 in range(0, 5):
            for n2 in range(0, 5 - n1):
                amps = scatter_two_mode(n1, n2, m)
                total = n1 + n2
                for ma in range(total + 1):
                    mb = total - ma
                    want = oracle_amplitude(n1, n2, m, ma, mb)
                    got = amps.get((ma, mb), 0j)
                    assert abs(got - want) < 1e-12


def test_scatter_unitarity_sum():
    rng = random.Random(99)
    for _ in range(30):
        m = random_unitary2(rng)
        n1, n2 = rng.randint(0, 4), rng.randint(0, 3)
        amps = scatter_two_mode(n1, n2, m)
        assert math.fsum(abs(a) ** 2 for a in amps.values()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert all(ma + mb == n1 + n2 for ma, mb in amps)


def test_scatter_exchange_symmetry():
    rng = random.Random(5)
    for _ in range(20):
        m = random_unitary2(rng)
        swapped = (
            (m[1][1], m[1][0]),
            (m[0][1], m[0][0]),
        )
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        a = scatter_two_mode(n1, n2, m)
        b = scatter_two_mode(n2, n1, swapped)
        for (ma, mb), amp in a.items():
            assert abs(b[(mb, ma)] - amp) < 1e-12


def test_scatter_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        scatter_two_mode(1, 1, ((0.6 + 0j, 0.8 + 0j), (0.8 + 0j, 0.6 + 0j)))


@pytest.mark.parametrize("route", [scatter_two_mode, trace_paths])
def test_routing_rejects_nan_matrix(route):
    nan = complex(float("nan"), float("nan"))
    with pytest.raises(NonUnitaryError):
        route(1, 0, ((nan, nan), (nan, nan)))


def test_scatter_rejects_budget_overrun():
    m = make_split50_rbs().matrix
    with pytest.raises(PhotonBudgetError):
        scatter_two_mode(6, 3, m, max_photons=8)


def test_trace_two_one_routings():
    rho, tau = 0.6, 0.8j
    traces = trace_paths(2, 1, make_rbs(rho, tau).matrix)
    by_output = {}
    for tr in traces:
        by_output.setdefault(tr.output_counts, []).append(tr)
    two_one = by_output[(2, 1)]
    assert len(two_one) == 2
    mults = {tr.multiplicity: tr.amplitude for tr in two_one}
    assert mults[1] == pytest.approx(rho**3)
    assert mults[2] == pytest.approx(rho * tau**2)
    three = by_output[(3, 0)]
    assert len(three) == 1
    assert three[0].bose_factor == pytest.approx(math.sqrt(3))
    assert three[0].multiplicity == 1


def test_trace_single_photon_trivial():
    traces = trace_paths(1, 0, ((1.0 + 0j, 0j), (0j, 1.0 + 0j)))
    assert len(traces) == 1
    assert traces[0].multiplicity == 1
    assert traces[0].bose_factor == 1.0


def test_trace_reconstructs_scatter():
    rng = random.Random(17)
    for _ in range(20):
        m = random_unitary2(rng)
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        amps = scatter_two_mode(n1, n2, m)
        grouped = {}
        for tr in trace_paths(n1, n2, m):
            grouped[tr.output_counts] = grouped.get(tr.output_counts, 0j) + (
                tr.amplitude * tr.multiplicity * tr.bose_factor
            )
        for key, amp in amps.items():
            assert abs(grouped[key] - amp) < 1e-12


def test_apply_transform_phase_shifter_multiplies_by_exp_in_phi():
    phi = 0.7
    s = PhotonState({BasisState({Mode("1", "x"): 3}): 1.0})
    out = apply_transform(s, make_phase_shifter(phi, mode=Mode("1", "x")))
    assert out.amplitude(BasisState({Mode("1", "x"): 3})) == pytest.approx(
        cmath.exp(3j * phi)
    )


def test_apply_transform_vacuum_is_fixed():
    s = PhotonState.vacuum(ports=["1", "2", "3", "4"])
    out = apply_transform(s, make_split50_rbs())
    assert out.amplitude(BasisState()) == pytest.approx(1.0)
    assert len(out.terms) == 1


def test_apply_transform_superposition_linearity():
    t = make_split50_rbs()
    m1, m2 = Mode("1", "x"), Mode("2", "x")
    s = PhotonState({BasisState({m1: 1}): INV_SQRT2, BasisState({m2: 1}): INV_SQRT2})
    out = apply_transform(s, t)
    o3, o4 = Mode("3", "x"), Mode("4", "x")
    # (rho + tau)/sqrt(2) on each output mode
    want = (0.5 + 0.5j)
    assert out.amplitude(BasisState({o3: 1})) == pytest.approx(want)
    assert out.amplitude(BasisState({o4: 1})) == pytest.approx(want)


def test_apply_transform_untouched_modes_ride_along():
    t = make_split50_rbs()
    spectator = Mode("z", "y")
    s = PhotonState({BasisState({Mode("1", "x"): 1, spectator: 2}): 1.0})
    out = apply_transform(s, t)
    for bs, amp in out:
        assert bs.count(spectator) == 2


BOTH_ENGINES = pytest.mark.parametrize(
    "engine", [paths, operators], ids=["paths", "operators"]
)


@BOTH_ENGINES
def test_apply_transform_rejects_occupied_output_modes(engine):
    t = make_split50_rbs()  # outputs on ports 3 and 4
    s = PhotonState(
        {BasisState({Mode("1", "x"): 1, Mode("3", "x"): 1}): 1.0}
    )
    with pytest.raises(ModeMismatchError, match="3.x is already occupied"):
        engine.apply_transform(s, t)


@BOTH_ENGINES
def test_apply_transform_budget_check(engine):
    t = make_split50_rbs()
    s = PhotonState({BasisState({Mode("1", "x"): 3, Mode("2", "x"): 2}): 1.0})
    with pytest.raises(PhotonBudgetError, match="5 photons exceed the configured maximum of 4"):
        engine.apply_transform(s, t, max_photons=4)
    assert len(engine.apply_transform(s, t, max_photons=5)) == 6


@settings(max_examples=60)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.floats(0.0, math.pi / 2),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
def test_scatter_unitary_property(n1, n2, half, a, b, g):
    c, s = math.cos(half), math.sin(half)
    m = (
        (c * cmath.exp(1j * a), s * cmath.exp(1j * b)),
        (-s * cmath.exp(1j * (g - b)), c * cmath.exp(1j * (g - a))),
    )
    amps = scatter_two_mode(n1, n2, m)
    assert math.fsum(abs(x) ** 2 for x in amps.values()) == pytest.approx(
        1.0, abs=1e-11
    )
