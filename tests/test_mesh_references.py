"""Deep and mixed-sector meshes against references outside the engines.

Each engine runs on its own, element by element, and the operators engine
also as ``run_circuit`` drives it, on the whole circuit at once.  The
reference composes the bound elements
into one unitary over the circuit's modes: Fock amplitudes then follow from
permanents of its submatrices (the brute-force permanent of
``test_paths``), and coherent beams move classically as U gamma.  Every
element must also keep each photon-number sector and its mass.
"""

import itertools
import math
import random

import numpy as np
import pytest

from fockpath import (
    CoherentParams,
    Mode,
    coherent_fidelity,
    default_truncation,
    elaborate,
    initial_state,
    parse_circuit,
    random_circuit_text,
    run_circuit,
)
from fockpath import operators, paths
from test_paths import permanent

ENGINES = {"paths": paths.apply_transform, "operators": operators.apply_transform}
# the engines element by element, then run_circuit(engine="operators")
ROUTES = (*sorted(ENGINES), "run_circuit")


def mesh_text(rng, ports, layers, sources, phases=False):
    """Wave plates on every port, then 50:50 splitters on alternating
    neighbour pairs, all in place."""
    names = [f"p{i}" for i in range(ports)]
    lines = [f"port {p}" for p in names] + sources
    for layer in range(layers):
        for p in names:
            phase, axis = rng.uniform(-180, 180), rng.uniform(-180, 180)
            lines.append(f"waveplate phase={phase:.9f} axis={axis:.9f} on {p}")
            if phases:
                lines.append(f"phase deg={rng.uniform(-180, 180):.9f} on {p}")
        for i in range(layer % 2, ports - 1, 2):
            a, b = names[i], names[i + 1]
            lines.append(f"rbs split=50 {a} {b} -> {a} {b}")
    return "\n".join(lines) + "\n"


def composed_unitary(bound, modes):
    """Column j of the result is the image of mode j's creation operator."""
    index = {m: i for i, m in enumerate(modes)}
    total = np.eye(len(modes), dtype=complex)
    for t, _ in bound:
        assert set(t.in_modes) == set(t.out_modes)  # these meshes are in place
        step = np.eye(len(modes), dtype=complex)
        for j, m_in in enumerate(t.in_modes):
            step[index[m_in], index[m_in]] = 0
            for i, m_out in enumerate(t.out_modes):
                step[index[m_out], index[m_in]] = t.matrix[i][j]
        total = step @ total
    return total


def evolve(circuit, route):
    if route == "run_circuit":
        return run_circuit(circuit, engine="operators").state
    state = initial_state(circuit)
    for t, _ in elaborate(circuit):
        state = ENGINES[route](state, t)
    return state


def mode_list(ports):
    return [Mode(f"p{i}", pol) for i in range(ports) for pol in ("x", "y")]


def check_mesh_against_permanents(route, layers):
    """Every 3-photon amplitude of a 6-port mesh of ``layers`` layers."""
    rng = random.Random(20240313)
    sources = [f"source p{i} fock 1 pol {rng.choice('xy')}" for i in (0, 2, 4)]
    circuit = parse_circuit(mesh_text(rng, ports=6, layers=layers, sources=sources))
    bound = elaborate(circuit)
    # a wave plate on each port and 3 or 2 splitters of two modes per layer
    assert len(bound) == layers * 6 + (layers // 2) * 5 * 2
    modes = mode_list(6)
    unitary = composed_unitary(bound, modes)
    start = initial_state(circuit, 8)
    [(bs_in, _)] = list(start)
    cols = [modes.index(m) for m, n in bs_in.items() for _ in range(n)]
    norm_in = math.prod(math.factorial(n) for _, n in bs_in.items())

    state = evolve(circuit, route)
    outputs = list(itertools.combinations_with_replacement(range(len(modes)), 3))
    assert len(outputs) == 364
    checked = 0
    for rows in outputs:
        occupancy = {modes[r]: rows.count(r) for r in set(rows)}
        norm_out = math.prod(math.factorial(n) for n in occupancy.values())
        sub = [[unitary[r][c] for c in cols] for r in rows]
        expected = permanent(sub) / math.sqrt(norm_in * norm_out)
        assert abs(state.amplitude(occupancy) - expected) < 1e-12, occupancy
        checked += abs(expected) > 1e-3
    assert checked >= 8
    assert len(state) <= len(outputs)


@pytest.mark.parametrize("route", ROUTES)
def test_deep_mesh_matches_permanent_oracle(route):
    check_mesh_against_permanents(route, layers=6)


def test_driver_runs_a_24_layer_mesh_on_the_operators_engine_to_the_permanents():
    check_mesh_against_permanents("run_circuit", layers=24)


@pytest.mark.parametrize("route", ROUTES)
def test_coherent_mesh_moves_beams_classically(route):
    rng = random.Random(7)
    gammas = {"p0": 0.03 * complex(math.cos(0.4), math.sin(0.4)), "p1": 0.02j}
    sources = [
        f"source {p} coherent re={g.real!r} im={g.imag!r} pol {pol}"
        for (p, g), pol in zip(gammas.items(), "xy")
    ]
    circuit = parse_circuit(
        mesh_text(rng, ports=4, layers=4, sources=sources, phases=True)
    )
    modes = mode_list(4)
    unitary = composed_unitary(elaborate(circuit), modes)
    gamma_in = np.zeros(len(modes), dtype=complex)
    gamma_in[modes.index(Mode("p0", "x"))] = gammas["p0"]
    gamma_in[modes.index(Mode("p1", "y"))] = gammas["p1"]
    gamma_out = unitary @ gamma_in

    state = evolve(circuit, route)
    assert len({bs.total for bs, _ in state}) > 2  # several photon-number sectors
    targets = {
        m: CoherentParams(complex(g), default_truncation(complex(g)))
        for m, g in zip(modes, gamma_out)
    }
    assert coherent_fidelity(state, targets) >= 1.0 - 1e-8


def sector_masses(state):
    """Probability mass by photon number."""
    masses = {}
    for bs, amp in state:
        masses[bs.total] = masses.get(bs.total, 0.0) + abs(amp) ** 2
    return masses


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_elements_keep_photon_number_sectors(engine):
    """No element changes a term's photon total, so the budget that
    ``initial_state`` checks holds through the whole run."""
    rng = random.Random(2026)
    texts = [random_circuit_text(rng, max_elements=4) for _ in range(150)]
    sources = [
        "source p0 coherent re=0.02 im=0 pol x",
        "source p1 coherent re=0 im=0.02 pol y",
    ]
    texts.append(mesh_text(rng, ports=4, layers=4, sources=sources, phases=True))
    widest = 0
    for text in texts:
        circuit = parse_circuit(text)
        state = initial_state(circuit)
        for t, line in circuit.bound:
            before = sector_masses(state)
            state = ENGINES[engine](state, t)
            after = sector_masses(state)
            assert set(after) <= set(before), (text, line)
            for n, mass in before.items():
                assert abs(after.get(n, 0.0) - mass) <= 1e-12, (text, line, n)
            widest = max(widest, len(before))
    assert widest >= 5  # the coherent mesh spans several sectors
