"""Command-line interface: exit codes, output formats, determinism."""

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

from fockpath import PhotonState
from fockpath.cli import main
import fockpath.circuit
import fockpath.cli
import fockpath.fock
import fockpath.operators


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -----------------------------------------------------------------------


def test_run_demo_mzi_json(capsys):
    code, out, err = run_main(["run", "--demo", "mzi"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["engine"] == "both"
    assert payload["discrepancy"] is not None
    assert payload["discrepancy"] < 1e-9
    [row] = payload["state"]
    assert row["occupancy"] == {"o3.x": 1, "o4.x": 1}
    assert abs(row["re"]) < 1e-12
    assert row["im"] == pytest.approx(1.0, abs=1e-12)
    assert payload["distributions"]["o3"] == {"1": 1.0}
    assert payload["distributions"]["o4"] == {"1": 1.0}


GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
CORPUS = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


def _without_discrepancy(text):
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith('"discrepancy"')]
    assert len(kept) == len(lines) - 1
    return "".join(kept)


def test_golden_outputs_cover_the_corpus(circuits_dir):
    assert CORPUS == sorted(p.stem for p in circuits_dir.glob("*.fpc"))


@pytest.mark.parametrize("name", CORPUS)
def test_run_json_matches_golden_output(name, circuits_dir, tmp_path, capsys):
    """``state`` and ``distributions`` are byte-identical to the committed
    output; ``discrepancy`` is engine rounding noise and only bounded."""
    out = tmp_path / f"{name}.json"
    source = circuits_dir / f"{name}.fpc"
    argv = ["run", str(source), "--format", "json", "--output", str(out)]
    code, _, err = run_main(argv, capsys)
    assert code == 0, err
    text = out.read_text()
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _without_discrepancy(text) == _without_discrepancy(golden)
    assert json.loads(text)["discrepancy"] < 1e-12


def test_run_requires_exactly_one_circuit(tmp_path, capsys):
    code, _, err = run_main(["run"], capsys)
    assert code == 1
    assert "exactly one" in err

    f = tmp_path / "c.fpc"
    f.write_text("port a\n")
    code, _, err = run_main(["run", str(f), "--demo", "mzi"], capsys)
    assert code == 1


def test_run_missing_file_fails_cleanly(capsys):
    code, _, err = run_main(["run", "/nonexistent/path.fpc"], capsys)
    assert code == 1
    assert "error:" in err


def test_run_csv_is_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for target in (f1, f2):
        code, _, _ = run_main(
            ["run", "--demo", "example3", "--format", "csv", "--output", str(target)],
            capsys,
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "basis,re,im"
    assert len(lines) > 1


def test_run_parse_error_exit_code(data_dir, capsys):
    code, _, err = run_main(["run", str(data_dir / "bad_keyword.fpc")], capsys)
    assert code == 2
    assert "3:1:" in err


def test_run_budget_exit_code(tmp_path, capsys):
    f = tmp_path / "big.fpc"
    f.write_text("port a\nsource a fock 9 pol x\n")
    code, _, err = run_main(["run", str(f)], capsys)
    assert code == 4
    assert "9" in err


@pytest.mark.parametrize("engine", ["paths", "operators"])
def test_run_state_size_guard_exits_4(tmp_path, capsys, monkeypatch, engine):
    # |2, 1> through a 50:50 splitter on line 5 gives four terms
    f = tmp_path / "grows.fpc"
    f.write_text(
        "port a\nport b\nsource a fock 2 pol x\nsource b fock 1 pol x\n"
        "rbs split=50 a b -> a b\n"
    )
    monkeypatch.setattr(fockpath.fock, "MAX_TERMS", 4)
    assert run_main(["run", str(f), "--engine", engine], capsys)[0] == 0
    monkeypatch.setattr(fockpath.fock, "MAX_TERMS", 3)
    code, _, err = run_main(["run", str(f), "--engine", engine], capsys)
    assert code == 4
    assert "line 5: the state has 4 terms, more than the maximum of 3" in err


def test_run_arithmetic_overflow_exits_1(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(fockpath.cli, "run_circuit", overflow)
    code, _, err = run_main(["run", "--demo", "hom"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_run_coherent_overflow_exits_4(tmp_path, capsys):
    f = tmp_path / "huge.fpc"
    f.write_text("port a\nsource a coherent re=1e200 im=0\n")
    code, _, err = run_main(["run", str(f)], capsys)
    assert code == 4
    assert err.startswith("error:") and "gamma" in err


@pytest.mark.parametrize(
    "statement, where",
    [
        ("waveplate phase=1e400 axis=0 on a", "2:17:"),
        ("source a linpol angle=1e400 n=1", "2:23:"),
    ],
)
def test_run_non_finite_literal_exits_2(tmp_path, capsys, statement, where):
    f = tmp_path / "inf.fpc"
    f.write_text("port a\n" + statement + "\n")
    code, _, err = run_main(["run", str(f)], capsys)
    assert code == 2
    assert err.startswith("error: " + where)


def test_run_overflowing_splitter_exits_2(tmp_path, capsys):
    f = tmp_path / "huge.fpc"
    f.write_text("port a\nport b\nport c\nport d\nrbs r=1.7e308+1.7e308i t=0+1i a b -> c d\n")
    code, _, err = run_main(["run", str(f)], capsys)
    assert code == 2
    assert err.startswith("error: 5:7:") and "energy conservation" in err


def test_run_max_photons_flag_lifts_budget(tmp_path, capsys):
    f = tmp_path / "big.fpc"
    f.write_text("port a\nsource a fock 9 pol x\n")
    code, out, _ = run_main(["run", str(f), "--max-photons", "9"], capsys)
    assert code == 0


def test_env_var_sets_budget(tmp_path, capsys, monkeypatch):
    f = tmp_path / "big.fpc"
    f.write_text("port a\nsource a fock 9 pol x\n")
    monkeypatch.setenv("FOCKPATH_MAX_PHOTONS", "9")
    code, _, _ = run_main(["run", str(f)], capsys)
    assert code == 0


def test_env_var_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("FOCKPATH_MAX_PHOTONS", "many")
    code, _, err = run_main(["run", "--demo", "mzi"], capsys)
    assert code == 1
    assert "FOCKPATH_MAX_PHOTONS" in err


def test_engine_disagreement_exit_code(capsys, monkeypatch):
    real_apply = fockpath.operators.apply_transform

    def skewed(state, transform, *, max_photons=None):
        out = real_apply(state, transform, max_photons=max_photons)
        terms = {bs: amp * (1.0 + 1e-6) for bs, amp in out}
        return PhotonState(terms, ports=out.ports)

    monkeypatch.setattr(fockpath.operators, "apply_transform", skewed)
    with pytest.warns(RuntimeWarning, match="squared norm"):
        code, _, err = run_main(["run", "--demo", "hom"], capsys)
    assert code == 3
    assert "disagree" in err


# --- trace ----------------------------------------------------------------------


def test_trace_rbs50_routings(capsys):
    code, out, _ = run_main(["trace", "--n1", "2", "--n2", "1"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert {tuple(r["output"]) for r in rows} == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert sum(r["multiplicity"] for r in rows) == 8
    for r in rows:
        assert set(r) == {
            "assignment",
            "output",
            "re",
            "im",
            "multiplicity",
            "bose_factor",
        }
        sent = [sum(row) for row in r["assignment"]]
        assert sent == [2, 1]


def test_trace_waveplate_half_at_45(capsys):
    # the half-wave plate at 45 degrees swaps the modes; rounding residue in
    # the trig leaves vanishing side routes rather than pruning them
    code, out, _ = run_main(
        ["trace", "--n1", "3", "--n2", "0", "--element", "waveplate",
         "--phase", "180", "--axis", "45"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    by_output = {tuple(r["output"]): r for r in rows}
    swapped = by_output[(0, 3)]
    assert swapped["re"] == 1.0
    assert abs(swapped["im"]) < 1e-12
    assert swapped["multiplicity"] == 1
    for output, r in by_output.items():
        if output != (0, 3):
            assert abs(complex(r["re"], r["im"])) < 1e-12


def test_trace_drops_exactly_dark_routes(capsys):
    code, out, _ = run_main(
        ["trace", "--n1", "3", "--n2", "0", "--element", "rbs",
         "--r", "0+0i", "--t", "0+1i"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["output"] == [0, 3]
    assert complex(rows[0]["re"], rows[0]["im"]) == -1j
    assert rows[0]["multiplicity"] == 1


def test_trace_identity_single_photon(capsys):
    code, out, _ = run_main(
        ["trace", "--n1", "1", "--n2", "0", "--element", "identity"], capsys
    )
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 1
    assert rows[0]["bose_factor"] == 1.0


def test_trace_custom_rbs(capsys):
    code, out, _ = run_main(
        ["trace", "--n1", "1", "--n2", "0", "--element", "rbs",
         "--r", "0.6+0i", "--t", "0+0.8i"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    amps = {tuple(r["output"]): complex(r["re"], r["im"]) for r in rows}
    assert amps[(1, 0)] == pytest.approx(0.6)
    assert amps[(0, 1)] == pytest.approx(0.8j)


def test_trace_rbs_needs_coefficients(capsys):
    code, _, err = run_main(
        ["trace", "--n1", "1", "--n2", "0", "--element", "rbs"], capsys
    )
    assert code == 1
    assert "--r" in err


def test_trace_rejects_unphysical_coefficients(capsys):
    code, _, err = run_main(
        ["trace", "--n1", "1", "--n2", "0", "--element", "rbs",
         "--r", "0.6+0i", "--t", "0.8+0i"],
        capsys,
    )
    assert code == 1


# --- airy -----------------------------------------------------------------------


def test_airy_csv_profile(capsys):
    code, out, _ = run_main(["airy", "--samples", "40"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho2_m,re,im,abs"
    assert len(lines) == 41
    first = lines[1].split(",")
    area = math.pi * 0.01**2
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(area, rel=1e-9)


def test_airy_ends_dark_at_first_zero(capsys):
    # default geometry: f = 0.2, R = 0.01, lambda = 0.5e-6, z1 = z2 = 0.4
    r0 = 3.831705970207512 / (2 * math.pi) * 0.5e-6 * 0.4 / 0.01
    code, out, _ = run_main(
        ["airy", "--samples", "12", "--rmax", f"{r0:.17g}"], capsys
    )
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(r0, rel=1e-9)
    assert float(last[3]) < 1e-9 * math.pi * 0.01**2


def test_airy_normalized_peak_is_one(capsys):
    code, out, _ = run_main(["airy", "--samples", "8", "--normalize"], capsys)
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert float(first[1]) == 1.0
    assert float(first[3]) == 1.0


def test_airy_json_format(capsys):
    code, out, _ = run_main(
        ["airy", "--samples", "5", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert set(rows[0]) == {"rho2_m", "re", "im", "abs"}


def test_airy_z1_z2_are_exclusive(capsys):
    code, _, err = run_main(["airy", "--z1", "0.4", "--z2", "0.4"], capsys)
    assert code == 1
    assert "at most one" in err


def test_airy_z2_recovers_source_distance(capsys):
    code, out, _ = run_main(
        ["airy", "--z2", "0.4", "--samples", "4"], capsys
    )
    assert code == 0
    code2, out2, _ = run_main(["airy", "--samples", "4"], capsys)
    assert out == out2


def test_airy_aberration_lowers_peak(capsys):
    code, out, _ = run_main(["airy", "--samples", "4", "--aberration"], capsys)
    assert code == 0
    area = math.pi * 0.01**2
    peak = float(out.splitlines()[1].split(",")[3])
    assert 0.98 * area < peak < 0.999 * area


# --- check ----------------------------------------------------------------------


def test_check_reports_worst_discrepancy(capsys):
    code, out, err = run_main(["check", "--seed", "7", "--count", "25"], capsys)
    assert code == 0, err
    assert "checked 25 random circuits (seed 7)" in out
    assert "max amplitude discrepancy" in out


@pytest.fixture
def elaborated(monkeypatch):
    """Every circuit passed to ``circuit.elaborate``, one entry per call."""
    seen = []
    real = fockpath.circuit.elaborate

    def counting(circuit):
        seen.append(circuit)
        return real(circuit)

    monkeypatch.setattr(fockpath.circuit, "elaborate", counting)
    return seen


def test_run_elaborates_once(capsys, elaborated):
    code, _, err = run_main(["run", "--demo", "hom"], capsys)
    assert code == 0, err
    assert len(elaborated) == 1


def test_check_elaborates_each_circuit_once(capsys, elaborated):
    code, _, err = run_main(["check", "--seed", "5", "--count", "12"], capsys)
    assert code == 0, err
    assert len(elaborated) == 12
    assert len({id(c) for c in elaborated}) == 12


# --- output files -----------------------------------------------------------------


def test_output_file_complete_or_absent(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run_main(
        ["run", "--demo", "hom", "--output", str(target)], capsys
    )
    assert code == 0
    json.loads(target.read_text())

    bad = tmp_path / "never.json"
    f = tmp_path / "big.fpc"
    f.write_text("port a\nsource a fock 9 pol x\n")
    code, _, _ = run_main(["run", str(f), "--output", str(bad)], capsys)
    assert code == 4
    assert not bad.exists()


def test_console_script_installed():
    exe = shutil.which("fockpath")
    assert exe, "console script not on PATH"
    proc = subprocess.run(
        [exe, "run", "--demo", "hom", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("basis,re,im")
