"""Property tests of the parser and the CLI.

Every input must end in a documented exit code with no traceback, and no
warning, NaN or infinity may pass into a successful output.  Inputs are
token mutations of the corpus circuits and flags drawn from edge values.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockpath.circuit import parse_circuit
from fockpath.cli import main
from fockpath.errors import ParseError

CORPUS = Path(__file__).resolve().parent.parent / "circuits"
CIRCUITS = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.fpc"))}

# grammar words, and numbers at the edges the parser must reject or accept
WORDS = [
    "port", "source", "rbs", "pbs", "waveplate", "rotpol", "phase", "on", "->",
    "fock", "linpol", "circpol", "rcp_lcp_pair", "coherent", "pol", "x", "y", "rcp", "lcp",
    "split=50", "axis=45", "angle=30", "phase=90", "deg=30", "n=2", "re=0.1", "im=0",
    "r=0.6+0i", "t=0+0.8i", "a", "b", "c", "zz",
    "n=-1", "n=999", "deg=1e400", "im=nan", "r=1+0i", "171", "fock 0",
]
# words that may stand for one another
GROUPS = [
    ["port", "source", "rbs", "pbs", "waveplate", "rotpol", "phase"],
    ["fock", "linpol", "circpol", "rcp_lcp_pair", "coherent"],
    ["x", "y"],
    ["rcp", "lcp"],
]
# values that keep a token's shape: after a key, or as a bare count
VALUES = [
    "-1", "0", "1", "45", "0.5", "171", "999", "1e400", "nan", "inf", "1e-320", "1+0i", "0.6+0.8i",
]
COUNTS = ["0", "1", "3", "-1", "171", "999", "1e400", "nan"]
# flag values at the float edges; AIRY_FLAGS holds an ordinary one for each
# flag.  A focal length of 8e307 puts the conjugate of a plane at 1.2e308 at inf.
EDGES = [
    "0", "-1", "nan", "inf", "1e308", "1e302", "1e-320", "5e-324", "1e-170", "1e200", "8e307", "1.2e308",
]


def _quiet_main(argv):
    """``main(argv)``'s exit code, stdout, stderr and warning texts."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _same_shape(token: str, ports: list[str]) -> list[str]:
    """Tokens that could stand where ``token`` stands: the same key with
    another value, another count, another port or a word of its group."""
    key, eq, _ = token.partition("=")
    if eq:
        return [f"{key}={v}" for v in VALUES]
    if token.isdigit():
        return COUNTS
    return next((group for group in GROUPS + [ports] if token in group), WORDS)


@st.composite
def mutants(draw, ops=("replace", "reshape", "insert", "delete")):
    """A corpus circuit with one to three tokens replaced, inserted or
    deleted, by the ``ops`` given.  A replacement keeps the token's shape
    ("reshape") or takes a grammar word; an insertion takes a grammar word;
    "reshape" alone mostly keeps the circuit parseable."""
    text = CIRCUITS[draw(st.sampled_from(sorted(CIRCUITS)))]
    lines = [line.split() for line in text.splitlines()]
    ports = [row[1] for row in lines if row[:1] == ["port"]]
    for _ in range(draw(st.integers(1, 3))):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        op = draw(st.sampled_from(ops))
        if op == "insert" or not row:
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(WORDS)))
            continue
        at = draw(st.integers(0, len(row) - 1))
        if op == "replace":
            row[at] = draw(st.sampled_from(WORDS))
        elif op == "reshape":
            row[at] = draw(st.sampled_from(_same_shape(row[at], ports)))
        else:
            del row[at]
    return "\n".join(" ".join(row) for row in lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutants())
def test_parser_raises_only_parse_errors_on_mutated_circuits(text):
    try:
        parse_circuit(text)
    except ParseError:
        pass


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(mutants(ops=("reshape",)), mutants()),
    st.sampled_from(["both", "paths", "operators"]),
    st.sampled_from(["json", "csv"]),
)
def test_run_on_mutants_that_parse_ends_in_an_exit_code(text, engine, fmt):
    try:
        parse_circuit(text)
    except ParseError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.fpc"
        path.write_text(text, encoding="utf-8")
        argv = ["run", str(path), "--engine", engine, "--format", fmt]
        code, out, err, caught = _quiet_main(argv)
    assert 0 <= code <= 4, (code, err)
    assert caught == []
    if code:
        assert out == "" and _one_error_line(err), err


AIRY_FLAGS = {
    "--wavelength": "5e-07",
    "--focal": "0.2",
    "--aperture": "0.01",
    "--z1": "0.4",
    "--z2": "0.5",
    "--rmax": "3e-05",
}


@st.composite
def airy_argvs(draw):
    """``airy`` argument lists: each float flag left out, ordinary, or an
    edge value; two to four samples and any of the switches."""
    argv = ["airy", "--samples", str(draw(st.integers(2, 4)))]
    for flag, ordinary in AIRY_FLAGS.items():
        value = draw(st.one_of(st.none(), st.just(ordinary), st.sampled_from(EDGES)))
        if value is not None:
            argv += [flag, value]
    for switch in ("--aberration", "--normalize"):
        if draw(st.booleans()):
            argv.append(switch)
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(airy_argvs())
@example(["airy", "--samples", "3", "--focal", "1e308"])
@example(["airy", "--samples", "3", "--focal", "1e-320"])
@example(["airy", "--samples", "3", "--z1", "5e-324"])
@example(["airy", "--samples", "3", "--rmax", "1e302"])
@example(["airy", "--samples", "3", "--wavelength", "1e308"])
@example(["airy", "--samples", "3", "--focal", "1e-170", "--aberration"])
@example(["airy", "--samples", "3", "--focal", "8e307", "--z1", "1.2e308"])
@example(["airy", "--samples", "3", "--focal", "8e307", "--z2", "1.2e308"])
def test_airy_fails_with_one_error_line_or_prints_finite_numbers(argv):
    code, out, err, caught = _quiet_main(argv)
    assert caught == [], (argv, caught)
    if code == 0:
        assert err == "" and "inf" not in out and "nan" not in out, (argv, out)
    else:
        assert code == 1 and out == "" and _one_error_line(err), (argv, err)


COEFFICIENTS = ["0.6+0i", "0+0.8i", "nan+0i", "1e400+0i", "1e200+1e200i", "1+0i", "0.6+0.8i", "x"]
ANGLES = ["0", "45", "90", "nan", "inf", "-inf", "1e308", "1e400"]
TRACE_FLAGS = {"--r": COEFFICIENTS, "--t": COEFFICIENTS, "--phase": ANGLES, "--axis": ANGLES}


@st.composite
def trace_argvs(draw):
    count = st.one_of(st.integers(0, 4), st.integers(0, 1000))
    argv = ["trace", "--n1", str(draw(count)), "--n2", str(draw(count))]
    argv += ["--element", draw(st.sampled_from(["rbs50", "rbs", "waveplate", "identity"]))]
    for flag, values in TRACE_FLAGS.items():
        value = draw(st.one_of(st.none(), st.sampled_from(values)))
        if value is not None:
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv.append(f"--max-photons={draw(st.integers(1, 1000))}")
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trace_argvs())
def test_trace_ends_in_an_exit_code(argv):
    code, out, err, caught = _quiet_main(argv)
    assert code in (0, 1, 4), (argv, code)
    assert caught == []
    if code:
        assert out == "" and _one_error_line(err), (argv, err)
