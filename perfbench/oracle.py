"""Output checks for each workload, independent of the engines under test.

Each ``check_<workload>(op, workdir)`` reads the op's output files and
returns ``(items, problem)``: the work items the op completed and ``None``,
or a description of the first mismatch.

- mesh: the elaborated 2x2 element matrices are composed with numpy into
  one unitary over the live (port, pol) slots; seeded output amplitudes
  must match its permanents to 1e-9, and the output norm must be 1.
- coherent: the same unitary moves the input coherent amplitudes
  classically (U gamma); the output state's fidelity with that product of
  coherent states must be at least 1 - 1e-8.
- airy: the plain profile must match the closed-form Airy amplitude, and
  three seeded aberrated samples must match a polar quadrature written
  here, both to 1e-8 of the aperture area.
- check: the command must report 200 circuits and a discrepancy below
  1e-10 (its exit code is checked by the caller).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from fockpath.circuit import elaborate, parse_circuit
from fockpath.coherent import CoherentParams, coherent_fidelity, default_truncation
from fockpath.fock import Mode, state_from_json_obj
from fockpath.mirror import MirrorGeometry, airy_amplitude_closed

from workloads import AIRY_ABERRATED_SAMPLES, AIRY_PLAIN_SAMPLES, CHECK_COUNT

AMPLITUDE_TOL = 1e-9
NORM_TOL = 1e-9
MESH_SAMPLES = 8
FIDELITY_FLOOR = 1.0 - 1e-8
AIRY_TOL = 1e-8  # times the aperture area pi R^2
ABERRATED_SAMPLES = 3
CHECK_TOL = 1e-10


def permanent(matrix: np.ndarray) -> complex:
    """Ryser's formula: (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij."""
    n = matrix.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** size * np.prod(matrix[:, cols].sum(axis=1))
    return complex((-1) ** n * total)


def fock_amplitude(unitary: np.ndarray, n_in, n_out) -> complex:
    """<n_out| U |n_in> for occupancy vectors over the slots of ``unitary``,
    whose column j is the image of slot j's creation operator."""
    cols = [j for j, n in enumerate(n_in) for _ in range(n)]
    rows = [i for i, n in enumerate(n_out) for _ in range(n)]
    if len(cols) != len(rows):
        return 0j
    norm = math.prod(math.factorial(n) for n in (*n_in, *n_out))
    return permanent(unitary[np.ix_(rows, cols)]) / math.sqrt(norm)


def circuit_unitary(circuit) -> tuple[list[Mode], np.ndarray]:
    """Compose the elaborated element matrices over every mode they touch."""
    bound = elaborate(circuit)
    slots = sorted({m for t, _ in bound for m in (*t.in_modes, *t.out_modes)}
                   | {Mode(s.port, s.spec.pol) for s in circuit.sources})
    index = {m: i for i, m in enumerate(slots)}
    unitary = np.eye(len(slots), dtype=complex)
    for t, _ in bound:
        ins = [index[m] for m in t.in_modes]
        outs = [index[m] for m in t.out_modes]
        step = np.eye(len(slots), dtype=complex)
        step[:, ins] = 0
        if set(ins) != set(outs):
            # rerouting: the empty output slots move into the input slots
            step[:, outs] = 0
            step[np.ix_(ins, outs)] = np.eye(len(ins))
        step[np.ix_(outs, ins)] = np.array(t.matrix)
        unitary = step @ unitary
    return slots, unitary


def _run_output(workdir: Path, op: dict):
    text = (workdir / op["input"]).read_text(encoding="utf-8")
    rows = json.loads((workdir / op["outputs"][0]).read_text(encoding="utf-8"))["state"]
    return parse_circuit(text), rows


def check_mesh(op: dict, workdir: Path):
    circuit, rows = _run_output(workdir, op)
    slots, unitary = circuit_unitary(circuit)
    index = {m.label(): i for i, m in enumerate(slots)}
    n_in = [0] * len(slots)
    for s in circuit.sources:
        n_in[index[Mode(s.port, s.spec.pol).label()]] += s.spec.n
    got = {}
    for row in rows:
        occ = [0] * len(slots)
        for label, n in row["occupancy"].items():
            occ[index[label]] = n
        got[tuple(occ)] = complex(row["re"], row["im"])
    norm = math.fsum(abs(a) ** 2 for a in got.values())
    if abs(norm - 1.0) > NORM_TOL:
        return 0, f"output norm^2 {norm!r} is not 1"
    photons = sum(n_in)
    sector = []
    for cols in itertools.combinations_with_replacement(range(len(slots)), photons):
        occ = [0] * len(slots)
        for c in cols:
            occ[c] += 1
        sector.append(tuple(occ))
    rng = random.Random(f"mesh-oracle/{op['input']}")
    for occ in rng.sample(sector, min(MESH_SAMPLES, len(sector))):
        want = fock_amplitude(unitary, n_in, occ)
        if abs(got.get(occ, 0j) - want) > AMPLITUDE_TOL:
            return 0, f"amplitude {occ}: got {got.get(occ, 0j)!r}, permanent gives {want!r}"
    return len(rows), None


def check_coherent(op: dict, workdir: Path):
    circuit, rows = _run_output(workdir, op)
    slots, unitary = circuit_unitary(circuit)
    gamma_in = np.zeros(len(slots), dtype=complex)
    for s in circuit.sources:
        gamma_in[slots.index(Mode(s.port, s.spec.pol))] = s.spec.gamma
    gamma_out = unitary @ gamma_in
    targets = {
        mode: CoherentParams(complex(g), default_truncation(complex(g)))
        for mode, g in zip(slots, gamma_out)
    }
    fidelity = coherent_fidelity(state_from_json_obj(rows), targets)
    if not fidelity >= FIDELITY_FLOOR:
        return 0, f"fidelity {fidelity!r} with the classical output is below {FIDELITY_FLOOR!r}"
    return len(rows), None


def _profile(path: Path) -> list[tuple[float, complex]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            (float(r["rho2_m"]), complex(float(r["re"]), float(r["im"])))
            for r in csv.DictReader(fh)
        ]


def polar_amplitude(rho2: float, geo: MirrorGeometry, n_rho: int = 128, n_theta: int = 96) -> complex:
    """On-axis source, detector at (rho2, 0): Gauss-Legendre in the mirror
    radius, trapezoid (exact for periodic integrands) in the angle, with the
    defocus residual and the rho^4 / (32 f^3) spherical-aberration path term."""
    x, w = np.polynomial.legendre.leggauss(n_rho)
    rho = 0.5 * geo.aperture_radius * (x + 1.0)
    w_rho = 0.5 * geo.aperture_radius * w
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    f = geo.focal_length
    defocus = 0.5 * (1.0 / geo.z1 + 1.0 / geo.z2) - 0.5 / f
    r, t = np.meshgrid(rho, theta, indexing="ij")
    path = -rho2 / geo.z2 * r * np.cos(t) + defocus * r**2 + r**4 / (32.0 * f**3)
    k = 2.0 * math.pi / geo.wavelength
    angular = np.exp(1j * k * path).sum(axis=1) * (2.0 * math.pi / n_theta)
    return complex(np.sum(w_rho * rho * angular))


def check_airy(op: dict, workdir: Path):
    p = op["params"]
    geo = MirrorGeometry.imaging(p["focal"], p["aperture"], p["wavelength"], p["z1"])
    tol = AIRY_TOL * math.pi * geo.aperture_radius**2
    plain = _profile(workdir / op["outputs"][0])
    aberrated = _profile(workdir / op["outputs"][1])
    if len(plain) != AIRY_PLAIN_SAMPLES or len(aberrated) != AIRY_ABERRATED_SAMPLES:
        return 0, f"got {len(plain)} plain and {len(aberrated)} aberrated samples"
    for rho2, amp in plain:
        want = airy_amplitude_closed(rho2, geo)
        if abs(amp - want) > tol:
            return 0, f"plain sample at {rho2!r}: got {amp!r}, closed form gives {want!r}"
    rng = random.Random(f"airy-oracle/{op['outputs'][1]}")
    for rho2, amp in rng.sample(aberrated, ABERRATED_SAMPLES):
        want = polar_amplitude(rho2, geo)
        if abs(amp - want) > tol:
            return 0, f"aberrated sample at {rho2!r}: got {amp!r}, quadrature gives {want!r}"
    return len(plain) + len(aberrated), None


_CHECK_LINE = re.compile(r"checked (\d+) random circuits .*discrepancy (\S+)$")


def check_check(op: dict, workdir: Path):
    line = (workdir / op["outputs"][0]).read_text(encoding="utf-8").strip()
    m = _CHECK_LINE.search(line)
    if not m:
        return 0, f"unexpected check output {line!r}"
    count, disc = int(m.group(1)), float(m.group(2))
    if count != CHECK_COUNT or not disc < CHECK_TOL:
        return 0, f"checked {count} circuits with discrepancy {disc!r}"
    return count, None


CHECKS = {"mesh": check_mesh, "check": check_check, "coherent": check_coherent, "airy": check_airy}
