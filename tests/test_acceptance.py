"""End-to-end gate: the package's headline guarantees, one test each.

Each test covers one published guarantee at its stated tolerance; run with
``pytest -v tests/test_acceptance.py`` to get a pass/fail line per item.
"""

import math
import random

import pytest

from fockpath import (
    BasisState,
    CoherentParams,
    Mode,
    MirrorGeometry,
    ParseError,
    PhaseRelationError,
    aberration_phase_max,
    airy_amplitude_closed,
    airy_first_zero_radius,
    coherent_fidelity,
    coherent_state,
    cross_check,
    focal_amplitude_quadrature,
    make_rbs,
    make_split50_rbs,
    parse_circuit,
    random_circuit_text,
    rbs_coherent_output,
    run_circuit,
    scatter_two_mode,
    serialize_circuit,
    tensor_product,
    thin_sheet_coefficients,
    trace_paths,
)
from fockpath.cli import main as cli_main
from fockpath.paths import apply_transform

from test_paths import oracle_amplitude

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_rbs_pair(rng):
    """A random valid splitter pair: common phase, 90 degrees apart."""
    psi = rng.uniform(0.05, math.pi / 2 - 0.05)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    side = 1.0 if rng.random() < 0.5 else -1.0
    rho = math.cos(psi) * complex(math.cos(phi), math.sin(phi))
    tau = math.sin(psi) * complex(math.cos(phi), math.sin(phi)) * 1j * side
    return rho, tau


def test_criterion_01_two_one_scatter_golden():
    rho, tau = 0.6, 0.8j
    matrix = make_rbs(rho, tau).matrix
    amps = scatter_two_mode(2, 1, matrix)
    exact = {
        (3, 0): math.sqrt(3.0) * rho**2 * tau,
        (2, 1): rho**3 + 2.0 * rho * tau**2,
        (1, 2): tau**3 + 2.0 * tau * rho**2,
        (0, 3): math.sqrt(3.0) * tau**2 * rho,
    }
    for out, want in exact.items():
        assert abs(amps[out] - want) < 1e-12, out
        assert abs(amps[out] - oracle_amplitude(2, 1, matrix, *out)) < 1e-12, out
    # the same four amplitudes as usually quoted, rounded to six decimals
    quoted = {
        (3, 0): 0.498831j,
        (2, 1): -0.552,
        (1, 2): 0.064j,
        (0, 3): -0.665108,
    }
    for out, want in quoted.items():
        assert abs(amps[out] - want) < 5e-7, out
    print("criterion 01 PASS: (2,1) scatter amplitudes, exact and oracle")


def test_criterion_02_pre_normalization_norm():
    rng = random.Random(92)
    for _ in range(50):
        rho, tau = random_rbs_pair(rng)
        traces = trace_paths(2, 1, make_rbs(rho, tau).matrix)
        grouped = {}
        for tr in traces:
            amp = tr.amplitude * tr.multiplicity * tr.bose_factor
            grouped[tr.output_counts] = grouped.get(tr.output_counts, 0j) + amp
        norm2 = math.fsum(abs(a) ** 2 for a in grouped.values())
        norm2 *= math.factorial(2) * math.factorial(1)
        assert abs(norm2 - 2.0) < 1e-12, (rho, tau)
    print("criterion 02 PASS: path-sum norm is 2 before normalization")


def test_criterion_03_engines_agree_on_random_circuits():
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(200):
        text = random_circuit_text(rng, max_elements=4)
        worst = max(worst, cross_check(parse_circuit(text)))
    assert worst < 1e-10
    print(f"criterion 03 PASS: 200 circuits, worst discrepancy {worst:.3e}")


def test_criterion_04_rotated_pbs_at_45():
    text = (
        "port a\nport t\nport r\n"
        "source a linpol angle=45 n=2\n"
        "pbs axis=45 a -> t r\n"
    )
    result = run_circuit(parse_circuit(text), engine="both")
    both_t = result.state.amplitude(BasisState({Mode("t", "x'"): 2}))
    both_r = result.state.amplitude(BasisState({Mode("r", "y'"): 2}))
    split = result.state.amplitude(
        BasisState({Mode("t", "x'"): 1, Mode("r", "y'"): 1})
    )
    assert abs(both_t - 1.0) < 1e-12
    assert abs(both_r) < 1e-12
    assert abs(split) < 1e-12
    print("criterion 04 PASS: 45-degree pair transmits whole through 45-degree splitter")


def test_criterion_05_wave_plate_golden_states():
    def amps(text, port="a", n=2, tags=("x", "y")):
        result = run_circuit(parse_circuit(text), engine="both")
        out = {}
        for k in range(n + 1):
            occ = {}
            if k:
                occ[Mode(port, tags[0])] = k
            if n - k:
                occ[Mode(port, tags[1])] = n - k
            out[k] = result.state.amplitude(BasisState(occ))
        return out

    pair45 = "port a\nsource a linpol angle=45 n=2\n"
    quarter = amps(pair45 + "waveplate phase=90 axis=0 on a\n")
    assert abs(quarter[2] - 0.5) < 1e-12
    assert abs(quarter[0] + 0.5) < 1e-12
    assert abs(quarter[1] - 1j * INV_SQRT2) < 1e-12

    half = amps(pair45 + "waveplate phase=180 axis=0 on a\n")
    assert abs(half[2] - 0.5) < 1e-12
    assert abs(half[0] - 0.5) < 1e-12
    assert abs(half[1] + INV_SQRT2) < 1e-12

    circular = amps(
        "port a\nsource a rcp_lcp_pair\nwaveplate phase=90 axis=0 on a\n"
    )
    assert abs(circular[2] - INV_SQRT2) < 1e-12
    assert abs(circular[0] + INV_SQRT2) < 1e-12
    assert abs(circular[1]) < 1e-12

    from fockpath.circuit import DEMO_CIRCUITS

    rotated_half = amps(DEMO_CIRCUITS["example1"])
    assert abs(rotated_half[2] - 0.5) < 1e-12
    assert abs(rotated_half[0] - 0.5) < 1e-12
    assert abs(rotated_half[1] + INV_SQRT2) < 1e-12

    rotated_quarter = amps(DEMO_CIRCUITS["example2"])
    assert abs(rotated_quarter[2] - 0.5) < 1e-12
    assert abs(rotated_quarter[0] + 0.5) < 1e-12
    assert abs(rotated_quarter[1] - 1j * INV_SQRT2) < 1e-12

    three = amps(DEMO_CIRCUITS["example4"], n=3)
    assert abs(three[3] - 2.0**-1.5) < 1e-12
    assert abs(three[0] - 2.0**-1.5) < 1e-12
    assert abs(three[2] - math.sqrt(3.0 / 8.0)) < 1e-12
    assert abs(three[1] - math.sqrt(3.0 / 8.0)) < 1e-12
    print("criterion 05 PASS: six wave-plate golden states")


def test_criterion_06_transmitted_port_statistics():
    for theta_deg in range(0, 91, 5):
        text = (
            "port a\nport t\nport r\n"
            "source a linpol angle=45 n=2\n"
            f"pbs axis={theta_deg} a -> t r\n"
        )
        result = run_circuit(parse_circuit(text), engine="both")
        tx, ry = ("x'", "y'") if theta_deg else ("x", "y")
        two = result.state.amplitude(BasisState({Mode("t", tx): 2}))
        one = result.state.amplitude(
            BasisState({Mode("t", tx): 1, Mode("r", ry): 1})
        )
        zero = result.state.amplitude(BasisState({Mode("r", ry): 2}))
        s2 = math.sin(math.radians(2 * theta_deg))
        c2 = math.cos(math.radians(2 * theta_deg))
        assert abs(zero - 0.5 * (1.0 - s2)) < 1e-12, theta_deg
        assert abs(one - c2 * INV_SQRT2) < 1e-12, theta_deg
        assert abs(two - 0.5 * (1.0 + s2)) < 1e-12, theta_deg

        dist = result.distributions["t"]
        mean = sum(n * p for n, p in dist.items())
        assert abs(mean - (1.0 + s2)) < 1e-12, theta_deg
        half_angle = math.cos(math.radians(45.0 - theta_deg))
        assert abs(mean - 2.0 * half_angle**2) < 1e-12, theta_deg
    print("criterion 06 PASS: transmitted-port amplitudes and mean photon number")


def test_criterion_07_interferometer_demos(circuits_dir):
    mzi = parse_circuit((circuits_dir / "mzi.fpc").read_text())
    result = run_circuit(mzi, engine="both")
    amp = result.state.amplitude(
        BasisState({Mode("o3", "x"): 1, Mode("o4", "x"): 1})
    )
    assert abs(amp - 1j) < 1e-12
    assert sum(abs(a) ** 2 for _, a in result.state) == pytest.approx(1.0)

    hom = parse_circuit((circuits_dir / "hom.fpc").read_text())
    out = run_circuit(hom, engine="both")
    coincidence = out.state.amplitude(
        BasisState({Mode("c", "x"): 1, Mode("d", "x"): 1})
    )
    assert abs(coincidence) ** 2 < 1e-24
    print("criterion 07 PASS: interferometer gives i|1,1> and no coincidences")


def test_criterion_08_thin_sheet_constraints():
    for deg in range(-80, 81, 10):
        rho, tau = thin_sheet_coefficients(math.radians(deg))
        assert abs(abs(rho) ** 2 + abs(tau) ** 2 - 1.0) < 1e-12, deg
        if deg == 0:
            # transparent sheet: the reflected channel is dark and the
            # phase relation holds vacuously
            assert rho == 0
        else:
            diff = math.remainder(
                math.atan2(rho.imag, rho.real) - math.atan2(tau.imag, tau.real),
                2.0 * math.pi,
            )
            assert abs(abs(diff) - math.pi / 2.0) < 1e-12, deg
        make_rbs(rho, tau)
    with pytest.raises(PhaseRelationError):
        make_rbs(0.6, 0.8)
    print("criterion 08 PASS: thin-sheet grid obeys both splitter constraints")


def test_criterion_09_coherent_beams_stay_coherent():
    g1, g2 = 1.1, 0.4 + 0.3j
    start = tensor_product(
        coherent_state(CoherentParams(g1, 40), Mode("1", "x")),
        coherent_state(CoherentParams(g2, 40), Mode("2", "x")),
    )
    rbs = make_split50_rbs()
    out = apply_transform(start, rbs)
    g3, g4 = rbs_coherent_output(g1, g2, INV_SQRT2, 1j * INV_SQRT2)
    fid = coherent_fidelity(
        out,
        {
            Mode("3", "x"): CoherentParams(g3, 40),
            Mode("4", "x"): CoherentParams(g4, 40),
        },
    )
    assert fid >= 1.0 - 1e-8
    print(f"criterion 09 PASS: coherent mixing fidelity 1 - {1.0 - fid:.3e}")


def test_criterion_10_airy_pattern():
    g = MirrorGeometry.imaging(
        focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.4
    )
    area = math.pi * g.aperture_radius**2

    on_axis = focal_amplitude_quadrature((0.0, 0.0), g)
    assert abs(on_axis - area) < 1e-10 * area

    r0 = airy_first_zero_radius(g)
    worst = 0.0
    for i in range(31):
        r = 3.0 * r0 * i / 30.0
        got = focal_amplitude_quadrature((r, 0.0), g)
        want = airy_amplitude_closed(r, g)
        worst = max(worst, abs(got - want) / area)
    assert worst < 1e-8

    lo, hi = 0.8 * r0, 1.2 * r0
    assert focal_amplitude_quadrature((lo, 0.0), g).real > 0
    assert focal_amplitude_quadrature((hi, 0.0), g).real < 0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if focal_amplitude_quadrature((mid, 0.0), g).real > 0:
            lo = mid
        else:
            hi = mid
    zero = 0.5 * (lo + hi)
    want = 0.6098 * g.wavelength * g.z2 / g.aperture_radius
    assert abs(zero - want) / want < 1e-3
    print(f"criterion 10 PASS: Airy profile, worst rel error {worst:.3e}")


def test_criterion_11_aberration_magnitude():
    g = MirrorGeometry.imaging(
        focal_length=0.2, aperture_radius=0.01, wavelength=0.5e-6, z1=0.4
    )
    na = g.numerical_aperture
    assert na == pytest.approx(0.05)
    want = (math.pi / 16.0) * (g.focal_length / g.wavelength) * na**4
    assert abs(aberration_phase_max(g) - want) < 1e-12
    assert aberration_phase_max(g) == pytest.approx(0.4909, abs=1e-4)

    area = math.pi * g.aperture_radius**2
    amp = focal_amplitude_quadrature((0.0, 0.0), g, include_aberration=True)
    deficit = abs(1.0 - abs(amp) / area)
    assert deficit < 0.02
    print(f"criterion 11 PASS: edge aberration 0.4909 rad, peak deficit {deficit:.4f}")


def test_criterion_12_parser_corpus(circuits_dir, data_dir, capsys):
    files = sorted(circuits_dir.glob("*.fpc"))
    assert len(files) >= 10
    for path in files:
        text = path.read_text()
        assert serialize_circuit(parse_circuit(text)) == text

    expected_lines = {
        "bad_keyword.fpc": 3,
        "bad_undeclared.fpc": 6,
        "bad_duplicate_source.fpc": 3,
        "bad_rbs_phase.fpc": 6,
        "bad_number.fpc": 3,
    }
    for name, line in expected_lines.items():
        path = data_dir / name
        with pytest.raises(ParseError) as err:
            parse_circuit(path.read_text())
        assert err.value.line == line, name
        code = cli_main(["run", str(path)])
        capsys.readouterr()
        assert code == 2, name
    print("criterion 12 PASS: corpus round-trips, malformed files diagnosed")
