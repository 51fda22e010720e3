"""Seeded inputs for the four benchmark workloads.

An op is one user-level invocation: one or two ``fockpath`` command lines
(``calls``) plus what the oracle needs to check their output (``params``).
Op ``index`` of workload ``name`` under benchmark seed ``seed`` is a pure
function of those three values, so the same seed always writes the same
bytes, and every op gets its own circuit or geometry.

- ``mesh``: ``run`` on a 6-port, 3-photon, 6-layer mesh (66 bound
  elements, 364 output terms).  Per-term engine cost grows with depth.
- ``check``: ``check --count 200`` on a fresh seed.  Many tiny circuits,
  so per-element and per-circuit fixed costs dominate.
- ``coherent``: ``run`` on a 4-port, 4-layer mesh fed by two weak coherent
  beams.  The only workload with mixed photon-number sectors.
- ``airy``: ``airy --samples 1000`` plus ``airy --aberration --samples 40``
  on one geometry.  No engine code runs.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

WORKLOADS = ("mesh", "check", "coherent", "airy")

MESH_PORTS, MESH_LAYERS = 6, 6
COHERENT_PORTS, COHERENT_LAYERS, COHERENT_GAMMA = 4, 4, 0.02
# Source ports are fixed, so that every op of a workload does the same
# amount of work: how early the photons meet changes intermediate state
# sizes, and with it the op's cost, by up to half.
MESH_SOURCES = ("p0", "p2", "p4")
COHERENT_SOURCES = ("p0", "p1")
CHECK_COUNT = 200
AIRY_PLAIN_SAMPLES, AIRY_ABERRATED_SAMPLES = 1000, 40


def _angle(rng: random.Random) -> str:
    return f"{rng.uniform(-180.0, 180.0):.9f}"


def _mesh_layer(rng: random.Random, names: list[str], layer: int, phases: bool) -> list[str]:
    """A random wave plate (and phase) on every port, then 50:50 splitters on
    alternating neighbour pairs, all in place."""
    lines = []
    for p in names:
        lines.append(f"waveplate phase={_angle(rng)} axis={_angle(rng)} on {p}")
        if phases:
            lines.append(f"phase deg={_angle(rng)} on {p}")
    for i in range(layer % 2, len(names) - 1, 2):
        a, b = names[i], names[i + 1]
        lines.append(f"rbs split=50 {a} {b} -> {a} {b}")
    return lines


def mesh_text(rng: random.Random) -> str:
    names = [f"p{i}" for i in range(MESH_PORTS)]
    lines = [f"port {p}" for p in names]
    for p in MESH_SOURCES:
        lines.append(f"source {p} fock 1 pol {rng.choice('xy')}")
    for layer in range(MESH_LAYERS):
        lines += _mesh_layer(rng, names, layer, phases=False)
    return "\n".join(lines) + "\n"


def coherent_text(rng: random.Random) -> str:
    names = [f"p{i}" for i in range(COHERENT_PORTS)]
    lines = [f"port {p}" for p in names]
    for p in COHERENT_SOURCES:
        gamma = COHERENT_GAMMA * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        lines.append(
            f"source {p} coherent re={gamma.real:.15g} im={gamma.imag:.15g} "
            f"pol {rng.choice('xy')}"
        )
    for layer in range(COHERENT_LAYERS):
        lines += _mesh_layer(rng, names, layer, phases=True)
    return "\n".join(lines) + "\n"


def airy_geometry(rng: random.Random) -> dict:
    """The CLI defaults with f, R and wavelength within +-20% and z1 within
    +-10% of 2f; every corner of that box converges."""
    focal = 0.2 * rng.uniform(0.8, 1.2)
    return {
        "focal": focal,
        "aperture": 0.01 * rng.uniform(0.8, 1.2),
        "wavelength": 0.5e-6 * rng.uniform(0.8, 1.2),
        "z1": 2.0 * focal * rng.uniform(0.9, 1.1),
    }


def make_op(name: str, seed: int, index: int, workdir: Path) -> dict:
    """Write op ``index``'s input files under ``workdir`` and return its spec.

    Paths in the spec are relative to ``workdir``, where the ops run.
    """
    rng = random.Random(f"{name}/{seed}/{index}")
    tag = f"{index:05d}"
    if name in ("mesh", "coherent"):
        text = mesh_text(rng) if name == "mesh" else coherent_text(rng)
        src = f"in/{name}-{tag}.fpc"
        (workdir / src).write_text(text, encoding="utf-8")
        out = f"out/{name}-{tag}.json"
        return {"calls": [["run", src, "--output", out]], "input": src, "outputs": [out]}
    if name == "check":
        check_seed = rng.randrange(2**31)
        out = f"out/check-{tag}.txt"
        argv = ["check", "--count", str(CHECK_COUNT), "--seed", str(check_seed), "--output", out]
        return {"calls": [argv], "outputs": [out], "params": {"seed": check_seed}}
    if name == "airy":
        geo = airy_geometry(rng)
        base = ["airy"] + [a for k, v in geo.items() for a in (f"--{k}", repr(v))]
        plain, aberrated = f"out/airy-{tag}-plain.csv", f"out/airy-{tag}-aberrated.csv"
        return {
            "calls": [
                base + ["--samples", str(AIRY_PLAIN_SAMPLES), "--output", plain],
                base + ["--aberration", "--samples", str(AIRY_ABERRATED_SAMPLES), "--output", aberrated],
            ],
            "outputs": [plain, aberrated],
            "params": geo,
        }
    raise ValueError(f"unknown workload {name!r}")


def write_ops(name: str, seed: int, start: int, stop: int, workdir: Path) -> list[dict]:
    """Generate ops ``start`` .. ``stop - 1`` and append them to ``ops.jsonl``."""
    for sub in ("in", "out"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    ops = [dict(make_op(name, seed, i, workdir), index=i) for i in range(start, stop)]
    with open(workdir / "ops.jsonl", "a", encoding="utf-8") as fh:
        for op in ops:
            fh.write(json.dumps(op, sort_keys=True) + "\n")
    return ops
