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
    parse_circuit,
    run_circuit,
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


@BOTH_ENGINES
def test_apply_transform_rejects_non_finite_amplitude(engine):
    # both photons reach output 3.x in phase: 2 * 1.7e308 / sqrt(2) overflows
    s = PhotonState(
        {
            BasisState({Mode("1", "x"): 1}): 1.7e308,
            BasisState({Mode("2", "x"): 1}): -1.7e308j,
        }
    )
    with pytest.raises(ValueError, match="non-finite amplitude for 3.x=1"):
        engine.apply_transform(s, make_split50_rbs())


@BOTH_ENGINES
def test_apply_transform_warns_on_unnormalized_input_and_normalizes(engine):
    # squared norm 4: twice a normalized two-term state
    s = PhotonState(
        {BasisState({Mode("1", "x"): 1}): 2 * 0.6, BasisState({Mode("2", "x"): 1}): 2 * 0.8j}
    )
    with pytest.warns(RuntimeWarning, match="squared norm 4 differs from 1"):
        out = engine.apply_transform(s, make_split50_rbs())
    assert abs(out.norm_squared() - 1.0) < 1e-15


REROUTING_TEXT = """\
port a
port b
port t
port r
port c
port d
port e
port f
source a linpol angle=30 n=2
source b fock 1 pol y
phase deg=10 on e
pbs axis=0 a -> t r
rbs split=50 t b -> c d
waveplate phase=90 axis=30 on c
phase deg=40 on d
rbs split=50 c d -> c d
rbs split=50 c d -> e f
waveplate phase=60 axis=15 on f
"""

# Final amplitudes of REROUTING_TEXT, computed by the path-sum engine while
# states were still keyed by BasisState objects.
REROUTING_REFERENCE = [
    ({"e.x": 1, "e.y": 1, "f.x": 1}, complex(-0.007012192202690393, 0.25664917282257615)),
    ({"e.x": 1, "e.y": 1, "f.y": 1}, complex(0.05198330370606487, 0.26833704065186953)),
    ({"e.x": 1, "e.y": 1, "r.y": 1}, complex(0.3015345612020941, -0.05316867875601715)),
    ({"e.x": 1, "f.x": 1, "f.y": 1}, complex(-0.004069879164068674, 0.02308143171122353)),
    ({"e.x": 1, "f.x": 1, "r.y": 1}, complex(0.21909627622851563, 0.04244418974132943)),
    ({"e.x": 1, "f.x": 2}, complex(-0.10139880292578213, 0.24445065874751382)),
    ({"e.x": 1, "f.y": 1, "r.y": 1}, complex(-0.20955317210756252, 0.005725430958304849)),
    ({"e.x": 1, "f.y": 2}, complex(-0.011676657525003391, -0.2643889132810202)),
    ({"e.x": 2, "e.y": 1}, complex(-0.22963966338592295, -0.13258252147247765)),
    ({"e.x": 2, "f.x": 1}, complex(-0.12172410159372411, -0.15012247905027654)),
    ({"e.x": 2, "f.y": 1}, complex(0.14220767519650593, 0.11285371721926162)),
    ({"e.y": 1, "f.x": 1, "f.y": 1}, complex(0.1446069685307275, -0.11877603104494901)),
    ({"e.y": 1, "f.x": 1, "r.y": 1}, complex(-0.13031224803118133, -0.16420727911106717)),
    ({"e.y": 1, "f.x": 2}, complex(0.11087649749485526, -0.05617763103811525)),
    ({"e.y": 1, "f.y": 1, "r.y": 1}, complex(-0.17334650738218232, -0.14055488564400392)),
    ({"e.y": 1, "f.y": 2}, complex(0.08686794119642273, -0.11089641999666214)),
    ({"e.y": 1, "r.y": 2}, complex(-0.11362986941801094, 0.13541880510492552)),
    ({"f.x": 1, "f.y": 1, "r.y": 1}, complex(-0.009568319307746737, -0.016572815184059578)),
    ({"f.x": 1, "f.y": 2}, complex(-0.06732706168524258, 0.040396237011145614)),
    ({"f.x": 1, "r.y": 2}, complex(-0.11265263312667978, 0.06253756270934852)),
    ({"f.x": 2, "f.y": 1}, complex(0.1022614126015438, -0.034087137533847935)),
    ({"f.x": 2, "r.y": 1}, complex(-0.06487380919760447, -0.20611473361078006)),
    ({"f.x": 3}, complex(0.15608320870761955, -0.01614653883182273)),
    ({"f.y": 1, "r.y": 2}, complex(0.09055554621460017, -0.08030025248886473)),
    ({"f.y": 2, "r.y": 1}, complex(0.14606369080239567, 0.15923973361077995)),
    ({"f.y": 3}, complex(-0.12118871103343655, 0.11497390533941429)),
]


@BOTH_ENGINES
def test_rerouting_into_fresh_and_emptied_slots_matches_reference(engine):
    # the pbs and the first rbs move photons into fresh ports, the last rbs
    # into e, whose modes got empty slots from the phase on line 11
    result = run_circuit(parse_circuit(REROUTING_TEXT), engine=engine.ENGINE_NAME)
    expected = {
        BasisState({Mode.from_label(k): n for k, n in occ.items()}): amp
        for occ, amp in REROUTING_REFERENCE
    }
    assert set(result.state.terms) == set(expected)
    for bs, amp in expected.items():
        assert abs(result.state.amplitude(bs) - amp) < 1e-12


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
