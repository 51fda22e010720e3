"""Circuit DSL: sources, parsing diagnostics, round trips, dual-engine runs."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockpath import (
    BasisState,
    Mode,
    ParseError,
    PhotonBudgetError,
    SourceSpec,
    cross_check,
    initial_state,
    make_source,
    parse_circuit,
    random_circuit_text,
    run_circuit,
    serialize_circuit,
)
from fockpath.circuit import DEMO_CIRCUITS, Circuit, elaborate

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# --- sources ----------------------------------------------------------------


def test_linpol_45_single_photon():
    s = make_source(SourceSpec(kind="linpol", n=1, angle=math.radians(45)), "a")
    assert s.amplitude(BasisState({Mode("a", "x"): 1})) == pytest.approx(INV_SQRT2)
    assert s.amplitude(BasisState({Mode("a", "y"): 1})) == pytest.approx(INV_SQRT2)


def test_linpol_45_two_photons():
    s = make_source(SourceSpec(kind="linpol", n=2, angle=math.radians(45)), "a")
    assert s.amplitude(BasisState({Mode("a", "x"): 2})) == pytest.approx(0.5)
    assert s.amplitude(BasisState({Mode("a", "y"): 2})) == pytest.approx(0.5)
    assert s.amplitude(
        BasisState({Mode("a", "x"): 1, Mode("a", "y"): 1})
    ) == pytest.approx(INV_SQRT2)


def test_linpol_minus_45_sign():
    s = make_source(SourceSpec(kind="linpol", n=2, angle=math.radians(-45)), "a")
    assert s.amplitude(
        BasisState({Mode("a", "x"): 1, Mode("a", "y"): 1})
    ) == pytest.approx(-INV_SQRT2)


def test_circpol_rcp_single():
    s = make_source(SourceSpec(kind="circpol", n=1, handedness="rcp"), "a")
    assert s.amplitude(BasisState({Mode("a", "x"): 1})) == pytest.approx(INV_SQRT2)
    assert s.amplitude(BasisState({Mode("a", "y"): 1})) == pytest.approx(
        1j * INV_SQRT2
    )


def test_circpol_rcp_two_photons():
    s = make_source(SourceSpec(kind="circpol", n=2, handedness="rcp"), "a")
    assert s.amplitude(BasisState({Mode("a", "x"): 2})) == pytest.approx(0.5)
    assert s.amplitude(BasisState({Mode("a", "y"): 2})) == pytest.approx(-0.5)
    assert s.amplitude(
        BasisState({Mode("a", "x"): 1, Mode("a", "y"): 1})
    ) == pytest.approx(1j * INV_SQRT2)


def test_rcp_lcp_pair_state():
    s = make_source(SourceSpec(kind="rcp_lcp_pair", n=2), "a")
    assert s.amplitude(BasisState({Mode("a", "x"): 2})) == pytest.approx(INV_SQRT2)
    assert s.amplitude(BasisState({Mode("a", "y"): 2})) == pytest.approx(INV_SQRT2)
    assert len(s.terms) == 2


def test_fock_source():
    s = make_source(SourceSpec(kind="fock", n=3, pol="y"), "b")
    assert s.amplitude(BasisState({Mode("b", "y"): 3})) == 1.0


# --- parsing ----------------------------------------------------------------


def test_parse_empty_circuit_runs_to_vacuum():
    c = parse_circuit("")
    assert c.ports == ()
    result = run_circuit(c)
    assert result.state.amplitude(BasisState()) == pytest.approx(1.0)
    assert cross_check(c) == 0.0


def test_parse_comments_and_blank_lines():
    c = parse_circuit(
        """
# a comment line
port a   # trailing comment

source a fock 1 pol x
"""
    )
    assert c.ports == ("a",)
    assert len(c.sources) == 1


def test_parse_records_line_numbers():
    c = parse_circuit("port a\n\nsource a fock 1 pol x\nrotpol angle=10 on a\n")
    assert c.sources[0].line == 3
    assert c.elements[0].line == 4


def test_parse_rejects_unknown_keyword():
    with pytest.raises(ParseError) as err:
        parse_circuit("port a\nsplitter a\n")
    assert err.value.line == 2
    assert err.value.col == 1


def test_parse_rejects_undeclared_port():
    with pytest.raises(ParseError) as err:
        parse_circuit("port a\nsource b fock 1\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_port():
    with pytest.raises(ParseError):
        parse_circuit("port a\nport a\n")


def test_parse_rejects_duplicate_source():
    with pytest.raises(ParseError) as err:
        parse_circuit("port a\nsource a fock 1\nsource a fock 2\n")
    assert err.value.line == 3


def test_parse_rejects_bad_rbs_at_parse_time():
    text = "port a\nport b\nport c\nport d\nrbs r=0.6+0i t=0.8+0i a b -> c d\n"
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5
    assert "phase" in str(err.value)


def test_parse_rejects_malformed_number():
    with pytest.raises(ParseError) as err:
        parse_circuit("port a\nrotpol angle=4x5 on a\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "statement, col",
    [
        ("waveplate phase=1e400 axis=0 on a", 17),
        ("waveplate phase=90 axis=-1e400 on a", 25),
        ("rotpol angle=1e400 on a", 14),
        ("phase deg=-1e999 on a", 11),
        ("pbs axis=1e400 a -> b c", 10),
        ("source a linpol angle=1e400 n=1", 23),
        ("source a coherent re=1e400 im=0", 22),
        ("source a coherent re=0 im=-1e400", 27),
        ("rbs r=1e400+0i t=0+1i a b -> c d", 7),
        ("rbs r=0.6+0i t=0+1e400i a b -> c d", 16),
    ],
)
def test_parse_rejects_non_finite_literals(statement, col):
    text = "port a\nport b\nport c\nport d\n" + statement + "\n"
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert (err.value.line, err.value.col) == (5, col)
    assert "finite" in str(err.value)


def test_parse_rejects_overflowing_splitter_coefficients():
    # |r|^2 overflows for the first; abs(r) itself overflows for the second
    for r in ("1e200+0i", "1.7e308+1.7e308i"):
        text = f"port a\nport b\nport c\nport d\nrbs r={r} t=0+1i a b -> c d\n"
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.col) == (5, 7)
        assert "energy conservation" in str(err.value)


def test_parse_rejects_partial_port_reuse():
    text = "port a\nport b\nport c\nrbs split=50 a b -> a c\n"
    with pytest.raises(ParseError):
        parse_circuit(text)


def test_parse_allows_in_place_rbs():
    text = "port a\nport b\nsource a fock 1 pol x\nrbs split=50 a b -> b a\n"
    c = parse_circuit(text)
    run_circuit(c)


def test_parse_coherent_source_restricted_to_classical_elements():
    text = (
        "port a\nport t\nport r\nsource a coherent re=0.2 im=0\n"
        "pbs axis=10 a -> t r\n"
    )
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5


def test_malformed_corpus_diagnostics(data_dir):
    expectations = {
        "bad_keyword.fpc": 3,
        "bad_undeclared.fpc": 6,
        "bad_duplicate_source.fpc": 3,
        "bad_rbs_phase.fpc": 6,
        "bad_number.fpc": 3,
    }
    for name, line in expectations.items():
        text = (data_dir / name).read_text()
        with pytest.raises(ParseError) as err:
            parse_circuit(text, name=name)
        assert err.value.line == line, name
        assert err.value.col >= 1


# --- serialization ------------------------------------------------------------


def test_corpus_round_trips_byte_stably(circuits_dir):
    files = sorted(circuits_dir.glob("*.fpc"))
    assert len(files) >= 10
    for path in files:
        text = path.read_text()
        circuit = parse_circuit(text, name=path.stem)
        assert serialize_circuit(circuit) == text, path.name
        again = parse_circuit(serialize_circuit(circuit), name=path.stem)
        assert again == circuit, path.name


def test_demo_texts_match_corpus_files(circuits_dir):
    for name, text in DEMO_CIRCUITS.items():
        on_disk = (circuits_dir / f"{name}.fpc").read_text()
        assert on_disk == text, name


def test_serialize_formats_numbers_compactly():
    c = parse_circuit("port a\nrotpol angle=45.000 on a\n")
    assert "angle=45 " in serialize_circuit(c)


# --- running ----------------------------------------------------------------


def test_mzi_interferometer_output():
    c = parse_circuit(DEMO_CIRCUITS["mzi"], name="mzi")
    result = run_circuit(c, engine="both")
    key = BasisState({Mode("o3", "x"): 1, Mode("o4", "x"): 1})
    assert result.state.amplitude(key) == pytest.approx(1j, abs=1e-12)
    assert result.discrepancy < 1e-12
    assert result.distributions["o3"] == {1: pytest.approx(1.0)}
    assert result.distributions["o4"] == {1: pytest.approx(1.0)}


def test_hom_demo_no_coincidences():
    c = parse_circuit(DEMO_CIRCUITS["hom"], name="hom")
    result = run_circuit(c, engine="both")
    coincidence = result.state.amplitude(
        BasisState({Mode("c", "x"): 1, Mode("d", "x"): 1})
    )
    assert abs(coincidence) ** 2 < 1e-24
    assert result.distributions["c"].get(2, 0.0) == pytest.approx(0.5)
    assert result.distributions["d"].get(2, 0.0) == pytest.approx(0.5)


def test_source_only_circuit_passes_through():
    c = parse_circuit("port a\nsource a linpol angle=30 n=2\n")
    result = run_circuit(c)
    want = make_source(SourceSpec(kind="linpol", n=2, angle=math.radians(30)), "a")
    for bs, amp in want:
        assert result.state.amplitude(bs) == pytest.approx(amp)


def test_engine_selection_single():
    c = parse_circuit(DEMO_CIRCUITS["hom"], name="hom")
    for engine in ("paths", "operators"):
        result = run_circuit(c, engine=engine)
        assert result.engine == engine
        assert result.discrepancy is None


def test_run_rejects_unknown_engine():
    c = parse_circuit("")
    with pytest.raises(ValueError):
        run_circuit(c, engine="quantum")


def test_budget_enforced_at_source_level():
    c = parse_circuit("port a\nsource a fock 9 pol x\n")
    with pytest.raises(PhotonBudgetError):
        run_circuit(c)
    run_circuit(c, max_photons=9)


def test_budget_counts_all_sources():
    text = "port a\nport b\nsource a fock 5 pol x\nsource b fock 4 pol x\n"
    with pytest.raises(PhotonBudgetError):
        run_circuit(parse_circuit(text))


def test_rotpol_identity_circuit(circuits_dir):
    text = (circuits_dir / "rotpol_identity.fpc").read_text()
    result = run_circuit(parse_circuit(text))
    want = make_source(
        SourceSpec(kind="linpol", n=2, angle=math.radians(20)), "a"
    )
    for bs, amp in want:
        assert result.state.amplitude(bs) == pytest.approx(amp, abs=1e-12)


def test_phase_demo_flips_sign(circuits_dir):
    text = (circuits_dir / "phase_demo.fpc").read_text()
    result = run_circuit(parse_circuit(text))
    assert result.state.amplitude(
        BasisState({Mode("a", "y"): 2})
    ) == pytest.approx(-1.0)


def test_pbs45_corpus_circuit(circuits_dir):
    text = (circuits_dir / "pbs45.fpc").read_text()
    result = run_circuit(parse_circuit(text))
    key = BasisState({Mode("t4", "x'"): 2})
    assert result.state.amplitude(key) == pytest.approx(1.0, abs=1e-12)


def test_coherent_corpus_circuit(circuits_dir):
    text = (circuits_dir / "coherent.fpc").read_text()
    result = run_circuit(parse_circuit(text), engine="both")
    assert result.discrepancy < 1e-10
    # mixed totals survive: coherent states are superpositions over counts
    totals = {bs.total for bs, _ in result.state}
    assert len(totals) > 1


def test_mixed_axis_rbs_rejected():
    text = (
        "port a\nport t\nport r\nport o1\nport o2\n"
        "source a fock 1 pol x\n"
        "pbs axis=20 a -> t r\n"
        "rbs split=50 t a -> o1 o2\n"
    )
    with pytest.raises(ParseError, match="polarization bases") as info:
        parse_circuit(text)
    assert info.value.line == 8


def test_elaborate_rejects_unknown_statement():
    with pytest.raises(TypeError, match="unknown element statement"):
        elaborate(Circuit(ports=("a",), elements=("waveplate",)))


def test_photon_number_conserved_through_circuits():
    rng = random.Random(41)
    for _ in range(40):
        text = random_circuit_text(rng, max_photons=4, max_elements=4)
        circuit = parse_circuit(text)
        total = sum(
            bs.total * 1 for bs, _ in initial_state(circuit).sorted_terms()[:1]
        )
        result = run_circuit(circuit, engine="paths")
        for bs, _ in result.state:
            assert bs.total == total, text


def test_cross_check_random_circuits_sample():
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(30):
        text = random_circuit_text(rng, max_photons=4, max_elements=4)
        worst = max(worst, cross_check(parse_circuit(text)))
    assert worst < 1e-10


def test_cross_check_is_the_both_engine_discrepancy():
    rng = random.Random(77)
    for _ in range(40):
        circuit = parse_circuit(random_circuit_text(rng, max_photons=4, max_elements=5))
        assert cross_check(circuit) == run_circuit(circuit).discrepancy


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_circuit_text_always_parses(seed):
    rng = random.Random(seed)
    text = random_circuit_text(rng)
    circuit = parse_circuit(text)
    assert serialize_circuit(circuit) == text
