"""Circuit description language, sources, and the dual-engine runner.

A circuit file is line oriented; ``#`` starts a comment and blank lines are
skipped.  Angles are written in degrees.  Statements:

    port NAME
    source PORT fock N [pol x|y]
    source PORT linpol angle=DEG n=INT
    source PORT circpol rcp|lcp n=INT
    source PORT rcp_lcp_pair
    source PORT coherent re=FLOAT im=FLOAT [pol x|y]
    rbs split=50 IN1 IN2 -> OUT1 OUT2
    rbs r=CPLX t=CPLX IN1 IN2 -> OUT1 OUT2
    pbs axis=DEG IN -> TRANSMITTED REFLECTED
    waveplate phase=DEG axis=DEG on PORT
    rotpol angle=DEG on PORT
    phase deg=DEG on PORT

Complex literals look like ``0.6+0i`` or ``-0.5-0.5i``.  Ports must be
declared before use and each port takes at most one source.  Splitter
coefficients are validated while parsing, so a bad file fails with a line
and column before anything runs.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from functools import cached_property

from . import operators, paths
from .coherent import CoherentParams, coherent_state, default_truncation
from .elements import (
    SPLIT50,
    ModeTransform,
    _validate_rbs_coefficients,
    make_pbs,
    make_phase_shifter,
    make_polarization_rotation,
    make_rbs,
    make_waveplate,
)
from .errors import (
    EnergyConservationError,
    EngineDisagreementError,
    NonUnitaryError,
    ParseError,
    PhaseRelationError,
    PhotonBudgetError,
)
from .fock import (
    DEFAULT_MAX_PHOTONS,
    BasisState,
    Mode,
    PhotonState,
    _check_size,
    check_photon_budget,
    max_amplitude_difference,
    normalize,
    number_distribution,
    tensor_product,
)

__all__ = [
    "SourceSpec",
    "Circuit",
    "RunResult",
    "parse_circuit",
    "serialize_circuit",
    "make_source",
    "elaborate",
    "initial_state",
    "run_circuit",
    "cross_check",
    "DEMO_CIRCUITS",
    "random_circuit_text",
]

ENGINE_TOLERANCE = 1e-9

# the engine modules by name, in the order ``both`` runs them; each
# module's ``evolve`` is looked up on each run, so a wrapped or patched one runs
_ENGINES = {m.ENGINE_NAME: m for m in (paths, operators)}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_FLOAT_BODY = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT_RE = re.compile(_FLOAT_BODY + r"\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_CPLX_RE = re.compile(
    rf"({_FLOAT_BODY})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\Z"
)


@dataclass(frozen=True)
class SourceSpec:
    """What gets injected into one port before the elements run."""

    kind: str  # fock | linpol | circpol | rcp_lcp_pair | coherent
    n: int = 0
    angle: float = 0.0  # radians; linpol only
    handedness: str = "rcp"  # circpol only
    gamma: complex = 0j  # coherent only
    pol: str = "x"  # fock and coherent only


@dataclass(frozen=True)
class SourceStmt:
    port: str
    spec: SourceSpec
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ElementStmt:
    """One element statement: its keyword, its numbers in the order the
    statement gives them (angles in degrees; no numbers for ``rbs
    split=50``) and its ports, inputs first."""

    kind: str  # rbs | pbs | waveplate | rotpol | phase
    values: tuple = ()
    ports: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)


# the KEY= names, in statement order, of each ``KIND KEY=DEG ... on PORT`` element
_ON_PORT = {"waveplate": ("phase", "axis"), "rotpol": ("angle",), "phase": ("deg",)}


@dataclass(frozen=True)
class Circuit:
    """Parsed circuit: declared ports, sources, and ordered elements."""

    ports: tuple[str, ...] = ()
    sources: tuple[SourceStmt, ...] = ()
    elements: tuple[ElementStmt, ...] = ()

    @cached_property
    def bound(self) -> tuple[tuple[ModeTransform, int], ...]:
        """``elaborate(self)``, computed once (by the parser, for a parsed circuit)."""
        return tuple(elaborate(self))


# ---------------------------------------------------------------------------
# parsing


class _Line:
    def __init__(self, number: int, tokens: list[tuple[str, int]]):
        self.number = number
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> tuple[str, int]:
        tok = self.peek()
        if tok is None:
            last_col = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
            raise ParseError(f"expected {what}", self.number, last_col)
        self.pos += 1
        return tok

    def finish(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing token {tok[0]!r}", self.number, tok[1])


def _ident(line: _Line, what: str = "identifier") -> tuple[str, int]:
    text, col = line.take(what)
    if not _IDENT_RE.match(text):
        raise ParseError(f"invalid {what} {text!r}", line.number, col)
    return text, col


def _keyword(line: _Line, expected: str):
    text, col = line.take(f"'{expected}'")
    if text != expected:
        raise ParseError(f"expected '{expected}', got {text!r}", line.number, col)


def _kv(line: _Line, key: str) -> tuple[str, int]:
    text, col = line.take(f"'{key}=...'")
    name, eq, value = text.partition("=")
    if name != key or not eq:
        raise ParseError(f"expected '{key}=...', got {text!r}", line.number, col)
    return value, col + len(key) + 1


def _finite(number: float, value: str, line_no: int, col: int) -> float:
    if not math.isfinite(number):
        raise ParseError(f"number {value!r} is not finite", line_no, col)
    return number


def _parse_float(value: str, line_no: int, col: int) -> float:
    if not _FLOAT_RE.match(value):
        raise ParseError(f"malformed number {value!r}", line_no, col)
    return _finite(float(value), value, line_no, col)


def _parse_int(value: str, line_no: int, col: int) -> int:
    if not _INT_RE.match(value):
        raise ParseError(f"malformed integer {value!r}", line_no, col)
    return int(value)


def _parse_cplx(value: str, line_no: int, col: int) -> complex:
    m = _CPLX_RE.match(value)
    if not m:
        raise ParseError(
            f"malformed complex number {value!r} (expected RE+IMi)", line_no, col
        )
    re_part, im_part = (_finite(float(g), value, line_no, col) for g in m.groups())
    return complex(re_part, im_part)


def _declared_port(line: _Line, declared: set[str]) -> tuple[str, int]:
    name, col = _ident(line, "port name")
    if name not in declared:
        raise ParseError(f"undeclared port {name!r}", line.number, col)
    return name, col


def _kv_float(line: _Line, key: str) -> float:
    value, col = _kv(line, key)
    return _parse_float(value, line.number, col)


def _photon_count(line: _Line, token: tuple[str, int]) -> int:
    value, col = token
    n = _parse_int(value, line.number, col)
    if n < 0:
        raise ParseError("photon count must be non-negative", line.number, col)
    return n


def _optional_pol(line: _Line) -> str:
    """An optional trailing ``pol x|y`` clause; x when absent."""
    if line.peek() is None:
        return "x"
    _keyword(line, "pol")
    pol, col = line.take("polarization axis")
    if pol not in ("x", "y"):
        raise ParseError(f"polarization must be x or y, got {pol!r}", line.number, col)
    return pol


def _parse_on_port(line: _Line, declared: set[str], kind: str) -> ElementStmt:
    """The ``KEY=FLOAT ... on PORT`` rest of a one-port element's line."""
    values = tuple(_kv_float(line, key) for key in _ON_PORT[kind])
    _keyword(line, "on")
    port, _ = _declared_port(line, declared)
    line.finish()
    return ElementStmt(kind, values, (port,), line.number)


def _parse_source(line: _Line, declared: set[str], sourced: set[str]) -> SourceStmt:
    port, pcol = _declared_port(line, declared)
    if port in sourced:
        raise ParseError(f"duplicate source for port {port!r}", line.number, pcol)
    kind, kcol = line.take("source kind")
    if kind == "fock":
        n = _photon_count(line, line.take("photon count"))
        spec = SourceSpec(kind="fock", n=n, pol=_optional_pol(line))
    elif kind == "linpol":
        angle = math.radians(_kv_float(line, "angle"))
        spec = SourceSpec(kind="linpol", n=_photon_count(line, _kv(line, "n")), angle=angle)
    elif kind == "circpol":
        hand, col = line.take("handedness")
        if hand not in ("rcp", "lcp"):
            raise ParseError(f"handedness must be rcp or lcp, got {hand!r}", line.number, col)
        n = _photon_count(line, _kv(line, "n"))
        spec = SourceSpec(kind="circpol", n=n, handedness=hand)
    elif kind == "rcp_lcp_pair":
        spec = SourceSpec(kind="rcp_lcp_pair", n=2)
    elif kind == "coherent":
        gamma = complex(_kv_float(line, "re"), _kv_float(line, "im"))
        spec = SourceSpec(kind="coherent", gamma=gamma, pol=_optional_pol(line))
    else:
        raise ParseError(f"unknown source kind {kind!r}", line.number, kcol)
    line.finish()
    sourced.add(port)
    return SourceStmt(port=port, spec=spec, line=line.number)


def _parse_port_pair(line: _Line, declared: set[str]) -> dict[str, int]:
    """Two distinct declared ports, in order, each mapped to its column."""
    p1, col1 = _declared_port(line, declared)
    p2, col2 = _declared_port(line, declared)
    if p1 == p2:
        raise ParseError(f"ports must be distinct, got {p1!r} twice", line.number, col2)
    return {p1: col1, p2: col2}


def _parse_rbs(line: _Line, declared: set[str]) -> ElementStmt:
    tok = line.peek() or line.take("splitter coefficients")  # take fails: no token left
    if tok[0] == "split=50":
        line.take("split=50")
        values = ()
    else:
        value, rcol = _kv(line, "r")
        rho = _parse_cplx(value, line.number, rcol)
        value, tcol = _kv(line, "t")
        tau = _parse_cplx(value, line.number, tcol)
        values = (rho, tau)
        try:
            _validate_rbs_coefficients(rho, tau)
        except EnergyConservationError as exc:
            raise ParseError(f"splitter energy conservation: {exc}", line.number, rcol) from exc
        except PhaseRelationError as exc:
            raise ParseError(f"splitter phase relation: {exc}", line.number, rcol) from exc
        except NonUnitaryError as exc:
            raise ParseError(f"splitter unitarity: {exc}", line.number, rcol) from exc
    ins = _parse_port_pair(line, declared)
    _keyword(line, "->")
    outs = _parse_port_pair(line, declared)
    reused = [col for port, col in outs.items() if port in ins]
    if len(reused) == 1:
        raise ParseError(
            "splitter output ports must reuse both input ports or neither",
            line.number,
            reused[0],
        )
    line.finish()
    return ElementStmt("rbs", values, (*ins, *outs), line.number)


def _parse_pbs(line: _Line, declared: set[str]) -> ElementStmt:
    axis = _kv_float(line, "axis")
    src, _ = _declared_port(line, declared)
    _keyword(line, "->")
    outs = _parse_port_pair(line, declared)
    if src in outs:
        raise ParseError("polarizing splitter ports must be distinct", line.number, outs[src])
    line.finish()
    return ElementStmt("pbs", (axis,), (src, *outs), line.number)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text, validating statically checkable structure."""
    ports: list[str] = []
    declared: set[str] = set()
    sourced: set[str] = set()
    sources: list[SourceStmt] = []
    elements: list[ElementStmt] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]
        if not tokens:
            continue
        line = _Line(number, tokens)
        head, hcol = line.take("statement keyword")
        if head == "port":
            pname, col = _ident(line, "port name")
            if pname in declared:
                raise ParseError(f"duplicate port declaration {pname!r}", number, col)
            line.finish()
            declared.add(pname)
            ports.append(pname)
        elif head == "source":
            sources.append(_parse_source(line, declared, sourced))
        elif head == "rbs":
            elements.append(_parse_rbs(line, declared))
        elif head == "pbs":
            elements.append(_parse_pbs(line, declared))
        elif head in _ON_PORT:
            elements.append(_parse_on_port(line, declared, head))
        else:
            raise ParseError(f"unknown keyword {head!r}", number, hcol)
    circuit = Circuit(ports=tuple(ports), sources=tuple(sources), elements=tuple(elements))
    if any(s.spec.kind == "coherent" for s in circuit.sources):
        for st in circuit.elements:
            if st.kind in ("pbs", "rotpol"):
                raise ParseError(
                    "coherent sources only combine with rbs, waveplate and "
                    "phase elements",
                    st.line,
                )
    circuit.bound  # elaborated here, so a basis mismatch fails at parse time
    return circuit


def _fmt(value: float) -> str:
    out = f"{value:.12g}"
    return "0" if out == "-0" else out


def _fmt_cplx(value: complex) -> str:
    return f"{_fmt(value.real)}{value.imag:+.12g}i"


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text: ports, then sources, then elements, one per line."""
    lines = [f"port {p}" for p in circuit.ports]
    for src in circuit.sources:
        spec = src.spec
        if spec.kind == "fock":
            lines.append(f"source {src.port} fock {spec.n} pol {spec.pol}")
        elif spec.kind == "linpol":
            lines.append(
                f"source {src.port} linpol angle={_fmt(math.degrees(spec.angle))} n={spec.n}"
            )
        elif spec.kind == "circpol":
            lines.append(f"source {src.port} circpol {spec.handedness} n={spec.n}")
        elif spec.kind == "rcp_lcp_pair":
            lines.append(f"source {src.port} rcp_lcp_pair")
        elif spec.kind == "coherent":
            lines.append(
                f"source {src.port} coherent re={_fmt(spec.gamma.real)} "
                f"im={_fmt(spec.gamma.imag)} pol {spec.pol}"
            )
        else:  # pragma: no cover - specs are built by the parser
            raise ValueError(f"unknown source kind {spec.kind!r}")
    for st in circuit.elements:
        if st.kind in _ON_PORT:
            keys = " ".join(f"{k}={_fmt(v)}" for k, v in zip(_ON_PORT[st.kind], st.values))
            lines.append(f"{st.kind} {keys} on {st.ports[0]}")
            continue
        if st.kind == "pbs":
            coeff = f"axis={_fmt(st.values[0])}"
        elif st.values:
            coeff = f"r={_fmt_cplx(st.values[0])} t={_fmt_cplx(st.values[1])}"
        else:
            coeff = "split=50"
        # rbs and pbs both end in two output ports
        ins, outs = " ".join(st.ports[:-2]), " ".join(st.ports[-2:])
        lines.append(f"{st.kind} {coeff} {ins} -> {outs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sources


def make_source(
    spec: SourceSpec, port: str, *, max_photons: int = DEFAULT_MAX_PHOTONS
) -> PhotonState:
    """Build the normalized initial ket for one source.  ``linpol`` and
    ``circpol`` are n photons polarized along (alpha, beta):
    (alpha ax^dag + beta ay^dag)^n / sqrt(n!) |0>."""
    if spec.kind == "fock":
        return PhotonState.from_occupancy({Mode(port, spec.pol): spec.n}, ports=[port])
    if spec.kind == "coherent":
        trunc = default_truncation(spec.gamma, cap=max_photons)
        return coherent_state(
            CoherentParams(spec.gamma, trunc), Mode(port, spec.pol)
        )
    mx, my = Mode(port, "x"), Mode(port, "y")
    inv = 1.0 / math.sqrt(2.0)
    if spec.kind == "rcp_lcp_pair":
        return PhotonState(
            {BasisState({mx: 2}): inv, BasisState({my: 2}): inv}, ports=[port]
        )
    if spec.kind == "linpol":
        alpha, beta = math.cos(spec.angle), math.sin(spec.angle)
    elif spec.kind == "circpol":
        alpha, beta = inv, (1j if spec.handedness == "rcp" else -1j) * inv
    else:
        raise ValueError(f"unknown source kind {spec.kind!r}")
    n = spec.n
    terms = {}
    for k in range(n + 1):
        amp = math.sqrt(math.comb(n, k)) * alpha**k * beta ** (n - k)
        terms[BasisState({mx: k, my: n - k})] = amp
    return normalize(PhotonState(terms, ports=[port]))


def source_budget(spec: SourceSpec, max_photons: int = DEFAULT_MAX_PHOTONS) -> int:
    """Largest photon number the source can inject."""
    if spec.kind == "coherent":
        return default_truncation(spec.gamma, cap=max_photons)
    if spec.kind == "rcp_lcp_pair":
        return 2  # make_source injects a pair whatever ``spec.n`` says
    return spec.n


# ---------------------------------------------------------------------------
# elaboration and running


def elaborate(circuit: Circuit) -> list[tuple[ModeTransform, int]]:
    """Bind statements to concrete mode transforms, tracking each port's
    polarization axis pair (rotated polarizing splitters relabel to x'/y').
    A splitter whose inputs carry different pairs is a ParseError at its line."""
    pairs: dict[str, tuple[str, str]] = {}

    def axis_pair(port: str) -> tuple[str, str]:
        return pairs.setdefault(port, ("x", "y"))

    bound: list[tuple[ModeTransform, int]] = []
    for st in circuit.elements:
        kind, values, ports = st.kind, st.values, st.ports
        if kind == "rbs":
            in1, in2, out1, out2 = ports
            pin, pin2 = axis_pair(in1), axis_pair(in2)
            if pin != pin2:
                raise ParseError(
                    f"ports {in1!r} and {in2!r} carry different "
                    f"polarization bases {pin} vs {pin2}",
                    st.line,
                )
            made = [
                make_rbs(
                    *(values or SPLIT50),
                    in_modes=(Mode(in1, ax), Mode(in2, ax)),
                    out_modes=(Mode(out1, ax), Mode(out2, ax)),
                )
                for ax in pin
            ]
            pairs[out1] = pairs[out2] = pin
        elif kind == "pbs":
            src, transmitted, reflected = ports
            t = make_pbs(
                math.radians(values[0]),
                in_port=src,
                transmitted_port=transmitted,
                reflected_port=reflected,
                axes=axis_pair(src),
            )
            pairs[transmitted] = pairs[reflected] = (t.out_modes[0].pol, t.out_modes[1].pol)
            made = [t]
        elif kind == "waveplate":
            phase, axis = map(math.radians, values)
            made = [make_waveplate(phase, axis, port=ports[0], axes=axis_pair(ports[0]))]
        elif kind == "rotpol":
            made = [
                make_polarization_rotation(
                    math.radians(values[0]), port=ports[0], axes=axis_pair(ports[0])
                )
            ]
        elif kind == "phase":
            made = [
                make_phase_shifter(math.radians(values[0]), mode=Mode(ports[0], ax))
                for ax in axis_pair(ports[0])
            ]
        else:
            raise TypeError(f"unknown element statement {st!r}")
        bound.extend((t, st.line) for t in made)
    return bound


def initial_state(circuit: Circuit, max_photons: int = DEFAULT_MAX_PHOTONS) -> PhotonState:
    budget = sum(source_budget(s.spec, max_photons) for s in circuit.sources)
    try:
        check_photon_budget(budget, max_photons)
    except PhotonBudgetError as exc:
        raise PhotonBudgetError(f"sources may inject up to {budget} photons: {exc}") from None
    states = [make_source(s.spec, s.port, max_photons=max_photons) for s in circuit.sources]
    # the vacuum factor declares every circuit port on the product
    state = tensor_product(PhotonState.vacuum(circuit.ports), *states)
    _check_size(len(state), "the initial state")
    return state


@dataclass(frozen=True)
class RunResult:
    engine: str
    state: PhotonState
    distributions: dict[str, dict[int, float]]
    discrepancy: float | None = None


def _run_engines(
    circuit: Circuit, names, max_photons: int
) -> tuple[PhotonState, float | None]:
    """Evolve the circuit on each named engine; return the first engine's
    final state and, for two engines, their max amplitude difference."""
    start = initial_state(circuit, max_photons)
    states = [_ENGINES[name].evolve(start, circuit.bound) for name in names]
    discrepancy = max_amplitude_difference(*states) if len(states) == 2 else None
    return states[0], discrepancy


def run_circuit(
    circuit: Circuit,
    engine: str = "both",
    *,
    max_photons: int = DEFAULT_MAX_PHOTONS,
) -> RunResult:
    """Run the circuit on one engine, or on both and compare.

    With ``engine="both"`` the two engines' final amplitudes must agree
    within ENGINE_TOLERANCE or an EngineDisagreementError is raised; the
    reported state comes from the path-sum engine.
    """
    if engine not in ("both", *_ENGINES):
        raise ValueError(f"engine must be one of paths, operators, both; got {engine!r}")
    names = _ENGINES if engine == "both" else (engine,)
    state, discrepancy = _run_engines(circuit, names, max_photons)
    if discrepancy is not None and discrepancy > ENGINE_TOLERANCE:
        raise EngineDisagreementError(discrepancy)
    distributions = {
        port: number_distribution(state, port) for port in sorted(state.ports)
    }
    return RunResult(
        engine=engine, state=state, distributions=distributions, discrepancy=discrepancy
    )


def cross_check(circuit: Circuit) -> float:
    """Max amplitude difference between the two engines on this circuit."""
    return _run_engines(circuit, _ENGINES, DEFAULT_MAX_PHOTONS)[1]


# ---------------------------------------------------------------------------
# built-in demonstration circuits (kept byte-identical to circuits/*.fpc)

_MZI_TEXT = """\
port a
port b
port c
port u
port l
port o3
port o4
source a rcp_lcp_pair
pbs axis=0 a -> l u
waveplate phase=180 axis=45 on u
rbs split=50 u l -> o3 o4
"""

_HOM_TEXT = """\
port a
port b
port c
port d
source a fock 1 pol x
source b fock 1 pol x
rbs split=50 a b -> c d
"""

_EXAMPLE1_TEXT = """\
port a
source a fock 2 pol y
waveplate phase=180 axis=45 on a
rotpol angle=45 on a
"""

_EXAMPLE2_TEXT = """\
port a
source a fock 2 pol y
waveplate phase=90 axis=45 on a
rotpol angle=45 on a
"""

_EXAMPLE3_TEXT = """\
port a
port r3
port t4
source a linpol angle=45 n=2
pbs axis=30 a -> t4 r3
"""

_EXAMPLE4_TEXT = """\
port a
source a fock 3 pol x
waveplate phase=180 axis=45 on a
rotpol angle=45 on a
"""

DEMO_CIRCUITS: dict[str, str] = {
    "mzi": _MZI_TEXT,
    "hom": _HOM_TEXT,
    "example1": _EXAMPLE1_TEXT,
    "example2": _EXAMPLE2_TEXT,
    "example3": _EXAMPLE3_TEXT,
    "example4": _EXAMPLE4_TEXT,
    "example5": _MZI_TEXT,
}


# ---------------------------------------------------------------------------
# randomized circuits for the cross-engine suite


def random_circuit_text(rng: random.Random, *, max_elements: int = 4) -> str:
    """Generate a small random circuit exercising every element kind.  It has
    one or two sources of at most two photons each, so at most 4 photons."""
    ports: list[str] = []

    def new_port() -> str:
        name = f"p{len(ports)}"
        ports.append(name)
        return name

    a, b = new_port(), new_port()
    sources = []
    for port in (a, b):
        kind = rng.choice(["fock", "fock", "linpol", "circpol", "pair", "none"])
        if kind == "pair":
            spec = SourceSpec(kind="rcp_lcp_pair", n=2)
        elif kind == "linpol":
            n = rng.randint(1, 2)
            # rounded to the digits its text carries, so serializing gives them back
            angle = math.radians(float(_fmt(rng.uniform(-180.0, 180.0))))
            spec = SourceSpec(kind="linpol", n=n, angle=angle)
        elif kind == "circpol":
            n = rng.randint(1, 2)
            spec = SourceSpec(kind="circpol", n=n, handedness=rng.choice(["rcp", "lcp"]))
        elif kind == "fock":
            n = rng.randint(1, 2)
            spec = SourceSpec(kind="fock", n=n, pol=rng.choice(["x", "y"]))
        else:
            continue
        sources.append(SourceStmt(port, spec))
    if not sources:
        sources.append(SourceStmt(a, SourceSpec(kind="fock", n=1)))

    elements = []
    pool = [a, b]
    tags = {a: "plain", b: "plain"}
    for _ in range(rng.randint(1, max_elements)):
        kinds = ["waveplate", "rotpol", "phase"]
        same_tag = [
            (p, q)
            for i, p in enumerate(pool)
            for q in pool[i + 1 :]
            if tags[p] == tags[q]
        ]
        if same_tag:
            kinds.extend(["rbs", "rbs"])
        if any(tags[p] == "plain" for p in pool):
            kinds.append("pbs")
        kind = rng.choice(kinds)
        if kind == "rbs":
            ins = list(rng.choice(same_tag))
            rng.shuffle(ins)
            outs = [new_port(), new_port()]
            if rng.random() < 0.5:
                values = ()  # split=50
            else:
                half = rng.uniform(0.15, math.pi / 2 - 0.15)
                phi = rng.uniform(-math.pi, math.pi)
                sign = rng.choice([-1.0, 1.0])
                rho = math.cos(half) * complex(math.cos(phi), math.sin(phi))
                arg_t = phi + sign * math.pi / 2
                tau = math.sin(half) * complex(math.cos(arg_t), math.sin(arg_t))
                values = (rho, tau)
            elements.append(ElementStmt("rbs", values, (*ins, *outs)))
            for port in ins:
                pool.remove(port)
            pool.extend(outs)
            tags[outs[0]] = tags[outs[1]] = tags[ins[0]]
        elif kind == "pbs":
            candidates = [p for p in pool if tags[p] == "plain"]
            src = rng.choice(candidates)
            t_out, r_out = new_port(), new_port()
            axis = rng.choice([0, 15, 30, 45, 60, 75, 90])
            elements.append(ElementStmt("pbs", (axis,), (src, t_out, r_out)))
            pool.remove(src)
            pool.extend([t_out, r_out])
            tag = "plain" if axis == 0 else "rot"
            tags[t_out] = tags[r_out] = tag
        else:
            port = rng.choice(pool)
            values = tuple(rng.uniform(-180.0, 180.0) for _ in _ON_PORT[kind])
            elements.append(ElementStmt(kind, values, (port,)))

    return serialize_circuit(Circuit(tuple(ports), tuple(sources), tuple(elements)))
