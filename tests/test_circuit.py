"""Circuit DSL: sources, parsing diagnostics, round trips, dual-engine runs."""

import hashlib
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
from fockpath import operators, paths
from fockpath.circuit import DEMO_CIRCUITS, Circuit, ElementStmt, SourceStmt, elaborate

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


@pytest.mark.parametrize("n", [0, 2])
def test_rcp_lcp_pair_counts_two_photons_against_the_budget(n):
    # make_source injects the pair whatever spec.n says; the parser sets n=2
    # and SourceSpec's default is 0
    circuit = Circuit(ports=("a",), sources=(SourceStmt("a", SourceSpec("rcp_lcp_pair", n=n)),))
    with pytest.raises(PhotonBudgetError, match="sources may inject up to 2 photons"):
        initial_state(circuit, max_photons=1)
    assert initial_state(circuit, max_photons=2).amplitude({Mode("a", "x"): 2}) == pytest.approx(
        INV_SQRT2
    )


def test_fock_source():
    s = make_source(SourceSpec(kind="fock", n=3, pol="y"), "b")
    assert s.amplitude(BasisState({Mode("b", "y"): 3})) == 1.0


def test_make_source_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown source kind 'laser'"):
        make_source(SourceSpec(kind="laser"), "a")


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
            parse_circuit(text)
        assert err.value.line == line, name
        assert err.value.col >= 1


# One row per place the parser raises: the raise site, the statement (after
# ``port a`` ... ``port d``, so it starts on line 5) and the exact error text.
PARSE_ERRORS = [
    ("missing token", "source a", "5:9: expected source kind"),
    ("trailing token", "rbs split=50 a b -> c d e", "5:25: unexpected trailing token 'e'"),
    ("identifier", "port 1a", "5:6: invalid port name '1a'"),
    ("keyword", "rotpol angle=10 at a", "5:17: expected 'on', got 'at'"),
    ("key=value", "rotpol deg=10 on a", "5:8: expected 'angle=...', got 'deg=10'"),
    ("non-finite", "rotpol angle=1e400 on a", "5:14: number '1e400' is not finite"),
    ("float", "rotpol angle=4x5 on a", "5:14: malformed number '4x5'"),
    ("integer", "source a fock two", "5:15: malformed integer 'two'"),
    (
        "complex",
        "rbs r=0.6 t=0+0.8i a b -> c d",
        "5:7: malformed complex number '0.6' (expected RE+IMi)",
    ),
    ("undeclared port", "source e fock 1", "5:8: undeclared port 'e'"),
    ("negative count", "source a fock -1", "5:15: photon count must be non-negative"),
    ("polarization", "source a fock 1 pol z", "5:21: polarization must be x or y, got 'z'"),
    ("duplicate source", "source a fock 1\nsource a fock 2", "6:8: duplicate source for port 'a'"),
    (
        "handedness",
        "source a circpol xcp n=1",
        "5:18: handedness must be rcp or lcp, got 'xcp'",
    ),
    ("source kind", "source a laser", "5:10: unknown source kind 'laser'"),
    ("repeated port", "rbs split=50 a a -> c d", "5:16: ports must be distinct, got 'a' twice"),
    ("bare rbs", "rbs", "5:4: expected splitter coefficients"),
    (
        "energy conservation",
        "rbs r=0.6+0i t=0+0.6i a b -> c d",
        "5:7: splitter energy conservation: |rho|^2 + |tau|^2 = 0.72 must equal 1",
    ),
    (
        "phase relation",
        "rbs r=0.6+0i t=0.8+0i a b -> c d",
        "5:7: splitter phase relation: arg(tau) - arg(rho) must be +-90 degrees, got 0 degrees",
    ),
    (
        "unitarity",
        "rbs r=1e-9+0i t=1+0i a b -> c d",
        "5:7: splitter unitarity: element not unitary: defect 2.000e-09 exceeds 1e-09",
    ),
    (
        "partial reuse",
        "rbs split=50 a b -> a c",
        "5:21: splitter output ports must reuse both input ports or neither",
    ),
    (
        "partial reuse, second output",
        "rbs split=50 a b -> c a",
        "5:23: splitter output ports must reuse both input ports or neither",
    ),
    (
        "partial reuse, coefficients",
        "rbs r=0.6+0i t=0+0.8i a b -> b c",
        "5:30: splitter output ports must reuse both input ports or neither",
    ),
    (
        "pbs source among outputs",
        "pbs axis=30 a -> a d",
        "5:18: polarizing splitter ports must be distinct",
    ),
    (
        "pbs source as second output",
        "pbs axis=30 a -> d a",
        "5:20: polarizing splitter ports must be distinct",
    ),
    ("duplicate port", "port a", "5:6: duplicate port declaration 'a'"),
    ("keyword of statement", "laser a", "5:1: unknown keyword 'laser'"),
    (
        "coherent with pbs",
        "source a coherent re=0.2 im=0\npbs axis=10 a -> c d",
        "6:1: coherent sources only combine with rbs, waveplate and phase elements",
    ),
    (
        "basis mismatch",
        "pbs axis=20 a -> c d\nrbs split=50 c b -> c b",
        """6:1: ports 'c' and 'b' carry different polarization bases ("x'", "y'") vs ('x', 'y')""",
    ),
]


@pytest.mark.parametrize(
    "statement, message", [row[1:] for row in PARSE_ERRORS], ids=[row[0] for row in PARSE_ERRORS]
)
def test_parse_error_text(statement, message):
    with pytest.raises(ParseError) as err:
        parse_circuit("port a\nport b\nport c\nport d\n" + statement + "\n")
    assert str(err.value) == message


# --- serialization ------------------------------------------------------------


def test_corpus_round_trips_byte_stably(circuits_dir):
    files = sorted(circuits_dir.glob("*.fpc"))
    assert len(files) >= 10
    for path in files:
        text = path.read_text()
        circuit = parse_circuit(text)
        assert serialize_circuit(circuit) == text, path.name
        again = parse_circuit(serialize_circuit(circuit))
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
    c = parse_circuit(DEMO_CIRCUITS["mzi"])
    result = run_circuit(c, engine="both")
    key = BasisState({Mode("o3", "x"): 1, Mode("o4", "x"): 1})
    assert result.state.amplitude(key) == pytest.approx(1j, abs=1e-12)
    assert result.discrepancy < 1e-12
    assert result.distributions["o3"] == {1: pytest.approx(1.0)}
    assert result.distributions["o4"] == {1: pytest.approx(1.0)}


def test_hom_demo_no_coincidences():
    c = parse_circuit(DEMO_CIRCUITS["hom"])
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
    c = parse_circuit(DEMO_CIRCUITS["hom"])
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
        elaborate(Circuit(ports=("a",), elements=(ElementStmt("laser", (), ("a",)),)))


def test_photon_number_conserved_through_circuits():
    rng = random.Random(41)
    for _ in range(40):
        text = random_circuit_text(rng, max_elements=4)
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
        text = random_circuit_text(rng, max_elements=4)
        worst = max(worst, cross_check(parse_circuit(text)))
    assert worst < 1e-10


def test_cross_check_is_the_both_engine_discrepancy():
    rng = random.Random(77)
    for _ in range(40):
        circuit = parse_circuit(random_circuit_text(rng, max_elements=5))
        assert cross_check(circuit) == run_circuit(circuit).discrepancy


def _has_negative_zero(amp: complex) -> bool:
    return any(x == 0.0 and math.copysign(1.0, x) < 0 for x in (amp.real, amp.imag))


@pytest.mark.parametrize("engine", [paths, operators], ids=["paths", "operators"])
def test_engine_amplitudes_carry_no_negative_zero(engine, circuits_dir, monkeypatch):
    # fock._finished skips a rescale by exactly 1.0, which is bit-identical
    # only for amplitudes without a -0.0 component
    finished = engine._finished

    def spy(slots, terms, *args, **kwargs):
        assert not any(map(_has_negative_zero, terms.values()))
        return finished(slots, terms, *args, **kwargs)

    monkeypatch.setattr(engine, "_finished", spy)
    rng = random.Random(1818)
    texts = [f.read_text() for f in sorted(circuits_dir.glob("*.fpc"))]
    texts += [random_circuit_text(rng) for _ in range(150)]
    for text in texts:
        circuit = parse_circuit(text)
        state = initial_state(circuit)
        for transform, _ in circuit.bound:
            state = engine.apply_transform(state, transform)
            assert not any(map(_has_negative_zero, state._terms.values())), text


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_circuit_text_always_parses(seed):
    rng = random.Random(seed)
    text = random_circuit_text(rng)
    circuit = parse_circuit(text)
    assert serialize_circuit(circuit) == text


def test_random_circuit_texts_are_pinned():
    """The 200 texts ``check --seed 7`` draws, pinned by their sha256."""
    rng = random.Random(7)
    texts = "".join(random_circuit_text(rng, max_elements=4) for _ in range(200))
    digest = hashlib.sha256(texts.encode()).hexdigest()
    assert digest == "93bc7076b0a287d262c6e712d9c17bf799c04c28351c5b87dba4bca90d176012"



# --- the paper's two rules in closed form -----------------------------------

ENGINE_CHOICES = ("both", "paths", "operators")
ANGLES = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


def _coincidence(state, counts: dict[str, int]) -> dict:
    """The terms with exactly ``counts`` photons at each named port."""
    return {
        b: a
        for b, a in state.terms.items()
        if all(b.port_total(p) == n for p, n in counts.items())
    }


def _probability(state, counts: dict[str, int]) -> float:
    return sum(abs(a) ** 2 for a in _coincidence(state, counts).values())


def _hom_state(engine: str, theta: float):
    text = (
        "port a\nport b\nport c\nport d\nsource a fock 1 pol x\n"
        f"source b linpol angle={theta!r} n=1\nrbs split=50 a b -> c d\n"
    )
    return run_circuit(parse_circuit(text), engine).state


@pytest.mark.parametrize("engine", ENGINE_CHOICES)
@settings(max_examples=25, deadline=None)
@given(theta=ANGLES)
def test_hom_coincidence_follows_polarization_overlap(engine, theta):
    """Two photons at a 50:50 splitter, polarizations theta apart: the
    indistinguishable parts' amplitudes cancel and the rest add as
    probabilities, so P(c=1, d=1) = sin^2(theta) / 2."""
    state = _hom_state(engine, theta)
    want = math.sin(math.radians(theta)) ** 2 / 2
    assert abs(_probability(state, {"c": 1, "d": 1}) - want) < 1e-12


@pytest.mark.parametrize("engine", ENGINE_CHOICES)
def test_hom_limits(engine):
    """Parallel polarizations leave no (1, 1) term at all; crossed ones
    add as probabilities, giving 1/2."""
    assert _coincidence(_hom_state(engine, 0.0), {"c": 1, "d": 1}) == {}
    crossed = _hom_state(engine, 90.0)
    assert abs(_probability(crossed, {"c": 1, "d": 1}) - 0.5) < 1e-12


@pytest.mark.parametrize("engine", ENGINE_CHOICES)
@settings(max_examples=25, deadline=None)
@given(alpha=ANGLES, phi=ANGLES)
def test_which_path_marking_sets_fringe_visibility(engine, alpha, phi):
    """A Mach-Zehnder whose upper arm turns the polarization by alpha and
    the phase by phi: P(c=1) = (1 - cos(alpha) cos(phi)) / 2, a fringe of
    visibility |cos(alpha)| = |<pol_u|pol_l>|."""
    text = (
        "port a\nport b\nport u\nport l\nport c\nport d\nsource a fock 1 pol x\n"
        "rbs split=50 a b -> u l\n"
        f"rotpol angle={alpha!r} on u\nphase deg={phi!r} on u\n"
        "rbs split=50 u l -> c d\n"
    )
    state = run_circuit(parse_circuit(text), engine).state
    want = (1 - math.cos(math.radians(alpha)) * math.cos(math.radians(phi))) / 2
    assert abs(_probability(state, {"c": 1}) - want) < 1e-12
