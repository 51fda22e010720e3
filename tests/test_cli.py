"""Command-line interface: exit codes, output formats, determinism."""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockpath import PhotonState
from fockpath.cli import main
import fockpath.circuit
import fockpath.cli
import fockpath.errors
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


def _csv_row(row):
    occupancy = ";".join(f"{mode}={n}" for mode, n in row["occupancy"].items())
    return f"{occupancy or 'vacuum'},{row['re']:.12g},{row['im']:.12g}"


def _close_rows(got, want):
    """Same occupancies in the same order, amplitudes within 1e-12."""
    assert [row["occupancy"] for row in got] == [row["occupancy"] for row in want]
    for g, w in zip(got, want):
        assert abs(g["re"] - w["re"]) <= 1e-12 and abs(g["im"] - w["im"]) <= 1e-12


@pytest.mark.parametrize("form", ["paths_json", "csv", "operators_json"])
@pytest.mark.parametrize("name", CORPUS)
def test_run_per_engine_and_csv_match_golden_output(name, form, circuits_dir, capsys):
    """``--engine paths`` gives the golden ``state`` and ``distributions``
    byte for byte, CSV gives the golden rows, and ``--engine operators``
    agrees with them within 1e-12."""
    golden_text = (GOLDEN_DIR / f"{name}.json").read_text()
    golden = json.loads(golden_text)
    source = str(circuits_dir / f"{name}.fpc")
    engine, fmt = ("both", "csv") if form == "csv" else (form.split("_")[0], "json")
    code, out, err = run_main(["run", source, "--engine", engine, "--format", fmt], capsys)
    assert code == 0, err
    if form == "csv":
        assert out.splitlines() == ["basis,re,im"] + [_csv_row(row) for row in golden["state"]]
        return
    payload = json.loads(out)
    assert payload["engine"] == engine and payload["discrepancy"] is None
    if engine == "paths":
        out = out.replace('"engine": "paths"', '"engine": "both"')
        assert _without_discrepancy(out) == _without_discrepancy(golden_text)
        return
    _close_rows(payload["state"], golden["state"])
    assert payload["distributions"].keys() == golden["distributions"].keys()
    for port, dist in golden["distributions"].items():
        assert payload["distributions"][port].keys() == dist.keys()
        for n, p in dist.items():
            assert abs(payload["distributions"][port][n] - p) <= 1e-12


def _dumped_run_json(result):
    """``run``'s JSON as ``json.dumps(indent=2)`` writes the whole payload."""
    def round12(x):
        return float(fockpath.circuit._fmt(x))

    payload = {
        "engine": result.engine,
        "state": [
            {**row, "re": round12(row["re"]), "im": round12(row["im"])}
            for row in fockpath.fock.state_to_json_obj(result.state)
        ],
        "distributions": {
            port: {str(n): round12(p) for n, p in dist.items()}
            for port, dist in result.distributions.items()
        },
        "discrepancy": None if result.discrepancy is None else round12(result.discrepancy),
    }
    return json.dumps(payload, indent=2) + "\n"


MODES = [
    fockpath.fock.Mode(port, pol) for port in ("a", "b", "p10") for pol in ("x", "y", "x'", "y'")
]
# parts that round to 0.0 or 1.0 at 12 digits, and magnitudes whose repr has an exponent
EDGE_PARTS = [0.0, -0.0, 1 - 1e-13, -(1 - 1e-13), 0.9999999999996, 1e-13, -1.234567890123e-13, 3e-5]
part = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-1.0, 1.0))
count = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, fockpath.fock.MAX_COUNT))


@st.composite
def run_results(draw):
    modes = draw(st.lists(st.sampled_from(MODES), min_size=1, max_size=6, unique=True))
    occupancies = draw(st.lists(st.lists(count, min_size=len(modes), max_size=len(modes)), max_size=8))
    terms = [(dict(zip(modes, counts)), complex(draw(part), draw(part))) for counts in occupancies]
    distributions = draw(
        st.dictionaries(
            st.sampled_from(["a", "b", "p10"]),
            st.dictionaries(st.integers(0, fockpath.fock.MAX_COUNT), st.floats(0.0, 1.0), max_size=3),
        )
    )
    return fockpath.circuit.RunResult(
        engine=draw(st.sampled_from(["both", "paths", "operators"])),
        state=PhotonState(terms),
        distributions=distributions,
        discrepancy=draw(st.one_of(st.none(), st.sampled_from(EDGE_PARTS[:2]), st.floats(0.0, 1.0))),
    )


VACUUM_AND_EDGES = fockpath.circuit.RunResult(
    engine="both",
    state=PhotonState(
        [({}, complex(1 - 1e-13, -0.0)), ({MODES[3]: fockpath.fock.MAX_COUNT}, 1.5e-13j)]
    ),
    distributions={"a": {0: 1 - 1e-13, 170: 0.0}},
    discrepancy=2.5e-13,
)


@settings(max_examples=150, deadline=None)
@given(run_results())
@example(VACUUM_AND_EDGES)
def test_run_json_is_the_indented_dump_of_the_payload(result):
    """``run`` writes its JSON byte for byte as ``json.dumps(indent=2)``
    writes the payload of rounded rows."""
    assert fockpath.cli._run_json(result) == _dumped_run_json(result)


def _readme_sample(command):
    """The lines the README shows after ``$ fockpath COMMAND``, up to the
    closing fence."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split(f"$ fockpath {command}\n", 1)[1].splitlines()
    return block[: block.index("```")]


def test_readme_run_sample_is_the_real_output(capsys):
    """The README's ``run --demo hom`` sample, up to its ``...``, is the
    first lines of the real output."""
    block = _readme_sample("run --demo hom")
    sample = block[: [line.strip() for line in block].index("...")]
    code, out, err = run_main(["run", "--demo", "hom"], capsys)
    assert code == 0, err
    assert out.splitlines()[: len(sample)] == sample


def test_readme_airy_sample_is_the_real_output(capsys):
    """The README's ``airy --samples 4`` CSV is the real output.  Its second
    row sits on the first dark ring, whose value the README calls quadrature
    noise of order 1e-15 pi R^2, so that row's numbers are compared within it."""
    sample = _readme_sample("airy --samples 4")
    code, out, err = run_main(["airy", "--samples", "4"], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == len(sample) == 5
    assert lines[:2] + lines[3:] == sample[:2] + sample[3:]
    got, want = ([float(x) for x in row.split(",")] for row in (lines[2], sample[2]))
    assert got[0] == want[0]
    noise = 1e-15 * math.pi * 0.01**2
    assert all(abs(g - w) <= noise for g, w in zip(got[1:], want[1:]))


def test_readme_check_sample_is_the_real_output(capsys):
    code, out, err = run_main(["check", "--count", "200", "--seed", "7"], capsys)
    assert code == 0, err
    assert out.splitlines() == _readme_sample("check --count 200 --seed 7")


def test_readme_library_sample_is_the_real_output(capsys, monkeypatch):
    """Each of the README's "Library use" snippets runs and prints what its
    comments show.  The first prints the amplitude dict over its first two
    comment lines, then the discrepancy; the engines snippet, which reads
    ``circuits/hom.fpc`` from the repo root, prints the discrepancy and the
    sorted terms; the mirror snippet prints nothing."""
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]
    comments = [
        [line.split("# ", 1)[1] for line in block.splitlines() if "# " in line] for block in blocks
    ]
    expected = [
        ["".join(comments[0][:2]), comments[0][2]],
        [comments[1][2], comments[1][4]],
        [],
    ]
    assert len(blocks) == len(expected)
    assert comments[1][2] == "0.0"
    monkeypatch.chdir(root)
    for block, lines in zip(blocks, expected):
        namespace = {}
        exec(block, namespace)
        assert capsys.readouterr().out.splitlines() == lines
    assert len(namespace["samples"]) == 120


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


def test_run_initial_state_size_guard_exits_4(tmp_path, capsys, monkeypatch):
    # a 3-photon 45-degree source alone gives four terms, with no element to run
    f = tmp_path / "wide.fpc"
    f.write_text("port a\nsource a linpol angle=45 n=3\n")
    monkeypatch.setattr(fockpath.fock, "MAX_TERMS", 4)
    assert run_main(["run", str(f)], capsys)[0] == 0
    monkeypatch.setattr(fockpath.fock, "MAX_TERMS", 3)
    code, out, err = run_main(["run", str(f)], capsys)
    assert (code, out) == (4, "")
    assert "the initial state has 4 terms, more than the maximum of 3" in err


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


def test_run_non_unitary_splitter_exits_2(tmp_path, capsys):
    # |rho| = 1e-9 skips the phase check, but the cross term 2|rho||tau| is 2e-9
    f = tmp_path / "skew.fpc"
    f.write_text("port a\nport b\nport c\nport d\nrbs r=1e-9+0i t=1+0i a b -> c d\n")
    code, _, err = run_main(["run", str(f)], capsys)
    assert code == 2
    assert err.startswith("error: 5:7:") and "not unitary" in err


OCCUPIED_OUTPUT = """\
port a
port b
port c
port d
source a fock 1 pol x
source c fock 1 pol x
rbs split=50 a b -> c d
"""


@pytest.mark.parametrize("engine", ["paths", "operators", "both"])
def test_run_occupied_output_port_fails_at_its_line(tmp_path, capsys, engine):
    """An output port that already holds a photon is found when the run
    reaches the element, not while parsing: exit 1, line only."""
    f = tmp_path / "occupied.fpc"
    f.write_text(OCCUPIED_OUTPUT)
    code, out, err = run_main(["run", str(f), "--engine", engine], capsys)
    assert (code, out, err) == (1, "", "error: line 7: output mode c.x is already occupied\n")


# Each puts more than fock.MAX_COUNT = 170 photons through one element.
# 171! overflows a float, so these once ended in exit 1 with "int too large
# to convert to float" and no hint of the cause.
BEYOND_MAX_COUNT = {
    "one_source": "port a\nsource a fock 200 pol x\nwaveplate phase=90 axis=22.5 on a\n",
    "two_sources_meet": (
        "port a\nport b\nport c\nport d\nsource a fock 100 pol x\n"
        "source b fock 100 pol x\nrbs split=50 a b -> c d\n"
    ),
}


@pytest.mark.parametrize("name", sorted(BEYOND_MAX_COUNT))
def test_run_beyond_max_count_exits_4_whatever_the_budget(name, tmp_path, capsys):
    f = tmp_path / f"{name}.fpc"
    f.write_text(BEYOND_MAX_COUNT[name])
    code, out, err = run_main(["run", str(f), "--max-photons", "400"], capsys)
    assert code == 4
    assert out == ""
    assert "200 photons exceed the limit of 170" in err


def test_run_at_max_count_succeeds(tmp_path, capsys):
    f = tmp_path / "full.fpc"
    f.write_text(BEYOND_MAX_COUNT["one_source"].replace("200", "170"))
    code, out, err = run_main(["run", str(f), "--max-photons", "400", "--engine", "paths"], capsys)
    assert code == 0, err
    rows = json.loads(out)["state"]
    assert rows and {sum(row["occupancy"].values()) for row in rows} == {170}


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


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["run", "--demo", "hom"], "0", "FOCKPATH_MAX_PHOTONS must be at least 1"),
        (
            ["trace", "--n1", "1", "--n2", "0", "--element", "rbs",
             "--r", "0.6", "--t", "0+0.8i"],
            None,
            "malformed complex number '0.6' (expected RE+IMi)",
        ),
        (
            ["trace", "--n1", "1", "--n2", "0", "--element", "waveplate"],
            None,
            "--element waveplate needs --phase (degrees)",
        ),
    ],
    ids=["budget_env_zero", "trace_malformed_r", "trace_waveplate_without_phase"],
)
def test_bad_inputs_exit_1_with_their_message(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("FOCKPATH_MAX_PHOTONS", env)
    assert run_main(argv, capsys) == (1, "", f"error: {message}\n")


def test_env_var_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("FOCKPATH_MAX_PHOTONS", "many")
    code, _, err = run_main(["run", "--demo", "mzi"], capsys)
    assert code == 1
    assert "FOCKPATH_MAX_PHOTONS" in err


def test_engine_disagreement_exit_code(capsys, monkeypatch):
    # the operators engine's circuit entry, skewed by a global phase, which
    # keeps the norm and moves every amplitude by about 1e-6 of itself
    real_evolve = fockpath.operators.evolve

    def skewed(state, bound):
        out = real_evolve(state, bound)
        return PhotonState({bs: amp * cmath.exp(1e-6j) for bs, amp in out}, ports=out.ports)

    monkeypatch.setattr(fockpath.operators, "evolve", skewed)
    code, _, err = run_main(["run", "--demo", "hom"], capsys)
    assert code == 3
    assert "disagree" in err


# The exit code of each error type, as the ``cli`` docstring and the README's
# exit-code table give them; every other error type exits 1.
DOCUMENTED_EXIT_CODES = {
    "ParseError": 2,
    "EngineDisagreementError": 3,
    "PhotonBudgetError": 4,
    "TruncationError": 4,
}
PACKAGE_ERRORS = [
    cls
    for cls in vars(fockpath.errors).values()
    if isinstance(cls, type) and issubclass(cls, fockpath.errors.FockPathError)
]


def _instance(cls):
    if cls is fockpath.errors.ParseError:
        return cls("bad token", 3, 7)
    if cls is fockpath.errors.EngineDisagreementError:
        return cls(2.5e-6)
    return cls("something went wrong")


@pytest.mark.parametrize(
    "exc, code",
    [(_instance(cls), DOCUMENTED_EXIT_CODES.get(cls.__name__, 1)) for cls in PACKAGE_ERRORS]
    + [(ValueError("bad value"), 1), (OSError("no disk"), 1), (ArithmeticError("nan"), 1)],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_every_error_type_exits_with_its_documented_code(exc, code, capsys, monkeypatch):
    def failing(args):
        raise exc

    monkeypatch.setattr(fockpath.cli, "_cmd_run", failing)
    assert run_main(["run", "--demo", "hom"], capsys) == (code, "", f"error: {exc}\n")


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


def test_trace_beyond_max_count_exits_4_whatever_the_budget(capsys):
    argv = ["trace", "--n1", "150", "--n2", "30", "--max-photons", "400"]
    code, out, err = run_main(argv, capsys)
    assert code == 4
    assert out == ""
    assert "180 photons exceed the limit of 170" in err


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


@pytest.mark.parametrize(
    "argv, flag, problem",
    [
        (["--z2", "0.2"], "--z2", "at the focal distance"),
        (["--z2", "0.1"], "--z2", "inside the focal length"),
        (["--z1", "0.1"], "--z1", "inside the focal length"),
        (["--z2", "nan"], "--z2", "positive and finite"),
        # 1 / z overflows, so the conjugate of a subnormal plane is -0.0
        (["--z1", "1e-320"], "--z1", "inside the focal length"),
        (["--z1", "5e-324"], "--z1", "inside the focal length"),
        (["--z2", "1e-320"], "--z2", "inside the focal length"),
        # the default source plane 2f overflows, or 1/f does
        (["--focal", "1e308"], "--focal", "must keep 1 / focal and 2 * focal finite, got 1e+308"),
        (["--focal", "1e-320"], "--focal", "must keep 1 / focal and 2 * focal finite, got 1e-320"),
        (["--focal", "2e-309", "--z1", "0.4"], "--focal", "must keep 1 / focal and 2 * focal"),
        # 1/f - 1/z is subnormal, so the conjugate plane is inf
        (["--focal", "8e307", "--z1", "1.2e308"], "--z1", "conjugate plane that overflows"),
        (["--focal", "8e307", "--z2", "1.2e308"], "--z2", "conjugate plane that overflows"),
    ],
)
def test_airy_distance_errors_name_the_given_plane(capsys, argv, flag, problem):
    code, out, err = run_main(["airy", "--samples", "4", *argv], capsys)
    assert (code, out) == (1, "")
    assert flag in err and problem in err, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--aperture", "1e200"], "aperture_radius must keep pi * aperture_radius**2 finite, got 1e+200"),
        (["--wavelength", "1e-320"], "wavelength must keep 2 pi / wavelength finite, got 1e-320"),
    ],
)
def test_airy_rejects_a_geometry_whose_area_or_wavenumber_overflows(capsys, argv, message):
    assert run_main(["airy", "--samples", "4", *argv], capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_airy_rejects_a_focal_length_that_is_not_positive_and_finite(capsys, value):
    # checked before any plane is solved, so the message names the flag
    message = f"error: --focal must be positive and finite, got {float(value)!r}\n"
    assert run_main(["airy", "--samples", "4", f"--focal={value}"], capsys) == (1, "", message)


@pytest.mark.parametrize("extra", [[], ["--normalize"]], ids=["plain", "normalize"])
def test_airy_rejects_an_aperture_whose_area_underflows(capsys, extra):
    # a zero pi R^2 makes every amplitude 0, which --normalize would divide by
    argv = ["airy", "--samples", "3", "--aperture", "1e-170", *extra]
    message = "error: aperture_radius must keep pi * aperture_radius**2 above zero, got 1e-170\n"
    assert run_main(argv, capsys) == (1, "", message)


@pytest.mark.parametrize("value", ["nan", "inf", "-0.001", "1e308", "1e302"])
def test_airy_rejects_bad_rmax(capsys, value):
    # 1e308 overflows the radii, 1e302 the wavenumber times the radius
    code, out, err = run_main(["airy", "--samples", "4", "--rmax", value], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: r_max must") and err.count("\n") == 1, err


def test_airy_names_rmax_when_the_default_radius_overflows(capsys):
    # three dark-ring radii, 1.83 lambda z2 / R, overflow at lambda = 1e308
    code, out, err = run_main(["airy", "--samples", "4", "--wavelength", "1e308"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: the default r_max (--rmax sets it) must keep"), err
    assert err.endswith("got inf\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--rmax", "1e301"],  # 2 pi / lambda * r_max / z2
        ["--rmax", "1e300", "--aperture", "1e3"],  # J0's argument at the rim
        ["--focal", "1e-170", "--aberration"],  # the aberration phase
    ],
)
def test_airy_rejects_a_quadrature_phase_or_argument_that_overflows(capsys, argv):
    code, out, err = run_main(["airy", "--samples", "3", *argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: the quadrature's phase or J0 argument") and err.count("\n") == 1


# --- check ----------------------------------------------------------------------


def test_check_reports_worst_discrepancy(capsys):
    code, out, err = run_main(["check", "--seed", "7", "--count", "25"], capsys)
    assert code == 0, err
    assert "checked 25 random circuits (seed 7)" in out
    assert "max amplitude discrepancy" in out


def test_check_failure_reports_the_worst_circuit(capsys, monkeypatch):
    """A discrepancy above CHECK_TOLERANCE exits 3, and stderr names the
    circuit that gave it."""
    texts = []
    real_text = fockpath.cli.random_circuit_text

    def recording(*args, **kwargs):
        texts.append(real_text(*args, **kwargs))
        return texts[-1]

    def third_disagrees(circuit):
        return 2e-10 if len(texts) == 3 else 0.0

    monkeypatch.setattr(fockpath.cli, "random_circuit_text", recording)
    monkeypatch.setattr(fockpath.cli, "cross_check", third_disagrees)
    code, out, err = run_main(["check", "--seed", "7", "--count", "5"], capsys)
    assert code == 3
    assert out == "checked 5 random circuits (seed 7); max amplitude discrepancy 2.000e-10\n"
    assert err == "worst circuit:\n" + texts[2]


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


# --- usage errors -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--demo", "hom", "--bogus"], "--bogus"),
        (["check", "--count", "-1"], "--count"),
        (["run", "--demo", "hom", "--max-photons", "-1"], "--max-photons"),
        (["check", "--max-photons", "0"], "--max-photons"),
        (["check", "--count", "many"], "--count"),
        ([], "required"),
        (["check", "--max-photons", "8"], "unrecognized arguments: --max-photons"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, flag):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (1, "")
    assert flag in err


def test_help_exits_0(capsys):
    code, out, _ = run_main(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: fockpath")
    code, out, _ = run_main(["check", "--help"], capsys)
    assert code == 0
    assert "--count" in out


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


def _run_module(*argv):
    """``python -m fockpath.cli ARGV`` with this checkout's package importable."""
    src = str(Path(fockpath.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fockpath.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(data_dir):
    proc = _run_module("run", "--demo", "hom")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["engine"] == "both"
    proc = _run_module("run", str(data_dir / "bad_keyword.fpc"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: 3:1: unknown keyword")


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
