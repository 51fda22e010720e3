"""Tests of the benchmark itself: seeded inputs, oracles, tracer, and runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockpath import cli
from fockpath.elements import make_split50_rbs
from fockpath.mirror import MirrorGeometry, airy_amplitude_closed

import oracle
import tracer
from workloads import WORKLOADS, write_ops

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(workdir: Path) -> dict:
    return {p.relative_to(workdir): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for workdir, seed in ((a, 11), (b, 11), (c, 12)):
        write_ops(workload, seed, 0, 3, workdir)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_every_op_gets_its_own_input(tmp_path):
    ops = write_ops("mesh", 5, 0, 4, tmp_path)
    texts = {(tmp_path / op["input"]).read_text() for op in ops}
    assert len(texts) == len(ops)


def test_permanent_gives_hom_zero_coincidence():
    u = np.array(make_split50_rbs().matrix)
    assert abs(oracle.fock_amplitude(u, (1, 1), (1, 1))) < 1e-15
    assert abs(abs(oracle.fock_amplitude(u, (1, 1), (2, 0))) - math.sqrt(0.5)) < 1e-15


def test_permanent_gives_two_one_golden_amplitudes():
    rho, tau = 0.6, 0.8j
    u = np.array([[rho, tau], [tau, rho]])
    exact = {
        (3, 0): math.sqrt(3.0) * rho**2 * tau,
        (2, 1): rho**3 + 2.0 * rho * tau**2,
        (1, 2): tau**3 + 2.0 * tau * rho**2,
        (0, 3): math.sqrt(3.0) * tau**2 * rho,
    }
    quoted = {(3, 0): 0.498831j, (2, 1): -0.552, (1, 2): 0.064j, (0, 3): -0.665108}
    for out, want in exact.items():
        got = oracle.fock_amplitude(u, (2, 1), out)
        assert abs(got - want) < 1e-12, out
        assert abs(got - quoted[out]) < 5e-7, out


def _run_op(workload: str, workdir: Path, monkeypatch) -> dict:
    op = write_ops(workload, 3, 0, 1, workdir)[0]
    monkeypatch.chdir(workdir)
    for argv in op["calls"]:
        assert cli.main(argv) == 0
    return op


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_accepts_program_output(tmp_path, monkeypatch, workload):
    op = _run_op(workload, tmp_path, monkeypatch)
    items, problem = oracle.CHECKS[workload](op, tmp_path)
    assert problem is None
    assert items > 0


def test_mesh_oracle_rejects_a_wrong_amplitude(tmp_path, monkeypatch):
    op = _run_op("mesh", tmp_path, monkeypatch)
    out = tmp_path / op["outputs"][0]
    payload = json.loads(out.read_text())
    rows = payload["state"]
    # swapping two amplitudes keeps the norm, so only the permanents can tell
    for i in range(len(rows) // 2):
        j = len(rows) - 1 - i
        rows[i]["re"], rows[j]["re"] = rows[j]["re"], rows[i]["re"]
        rows[i]["im"], rows[j]["im"] = rows[j]["im"], rows[i]["im"]
    out.write_text(json.dumps(payload))
    assert oracle.check_mesh(op, tmp_path)[1] is not None


def test_airy_oracle_rejects_a_wrong_aberrated_profile(tmp_path, monkeypatch):
    op = _run_op("airy", tmp_path, monkeypatch)
    # the plain profile in place of the aberrated one, at the same radii
    plain = (tmp_path / op["outputs"][0]).read_text().splitlines()
    aberrated = tmp_path / op["outputs"][1]
    radii = [line.split(",")[0] for line in aberrated.read_text().splitlines()[1:]]
    geo = op["params"]
    g = MirrorGeometry.imaging(geo["focal"], geo["aperture"], geo["wavelength"], geo["z1"])
    rows = [plain[0]] + [
        f"{r},{airy_amplitude_closed(float(r), g):.12g},0,0" for r in radii
    ]
    aberrated.write_text("\n".join(rows) + "\n")
    assert oracle.check_airy(op, tmp_path)[1] is not None


def test_check_oracle_rejects_a_large_discrepancy(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("checked 200 random circuits (seed 1); max amplitude discrepancy 2.000e-09\n")
    assert oracle.check_check({"outputs": ["out.txt"]}, tmp_path)[1] is not None


def test_layer_metrics_self_time_subtracts_direct_children():
    spans = [
        ("cli.main", None, 0, 100, -1, 1),
        ("circuit.run_circuit", None, 10, 90, 0, 1),
        ("paths.apply_transform", "rbs", 20, 50, 1, 1),
        ("fock.normalize", None, 40, 50, 2, 1),
        ("paths.apply_transform", "phase", 60, 70, 1, 1),
    ]
    m = tracer.layer_metrics(spans, {"paths.two_mode_terms": 4, "paths.scatter_two_mode.calls": 1})
    assert m["cli.main.self_s"] == (20e-9, "s")
    assert m["circuit.run_circuit.self_s"] == (40e-9, "s")
    assert m["paths.apply_transform.calls"] == (2, "count")
    assert m["paths.apply_transform.self_s"] == (30e-9, "s")
    assert m["paths.apply_transform.rbs.self_s"] == (20e-9, "s")
    assert m["fock.normalize.busy_s"] == (10e-9, "s")
    assert m["paths.scatter_hit_ratio"] == (0.75, "ratio")


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_no_failure(workload):
    res = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert res["metrics"]["ok_rate"]["value"] == 1.0


def test_traced_counts_repeat_for_a_seed():
    runs = [_result(_bench("--workload", "check", "--seed", "4", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"]]
    for res in runs:
        assert res["correct"] and list(res["metrics"]) == names
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["circuit.parse_circuit.calls"] == 4 * 200


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mesh", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
