"""Command-line front end: circuit runs, path traces, Airy export, checks.

Exit codes (each error type's ``exit_code``): 0 success, 2 parse error
(message carries line:col), 3 engine disagreement, 4 photon budget, state
size or truncation failure, 1 anything else, a bad flag or flag value
included (``--help`` exits 0).  Output is deterministic for fixed inputs
and flags; files are written in one shot after all computation succeeds,
so failures leave no partial file.

``run`` and ``trace`` take the photon budget from ``--max-photons`` or
``FOCKPATH_MAX_PHOTONS`` and check it where photons enter; ``run`` checks
the initial state against ``fock.MAX_TERMS``, and so do the engines: the
path-sum engine each element's output, the operators engine each
expansion, which it stops early once the output must end above the limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from .circuit import (
    DEMO_CIRCUITS,
    RunResult,
    _fmt,
    _parse_cplx,
    cross_check,
    parse_circuit,
    random_circuit_text,
    run_circuit,
)
from .elements import make_rbs, make_split50_rbs, make_waveplate
from .errors import FockPathError, ParseError
from .fock import DEFAULT_MAX_PHOTONS, PhotonState
from .mirror import MirrorGeometry, airy_profile, image_distance
from .paths import trace_paths

__all__ = ["main", "console_entry"]

CHECK_TOLERANCE = 1e-10


def _default_max_photons() -> int:
    raw = os.environ.get("FOCKPATH_MAX_PHOTONS")
    if raw is None:
        return DEFAULT_MAX_PHOTONS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"FOCKPATH_MAX_PHOTONS must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError("FOCKPATH_MAX_PHOTONS must be at least 1")
    return value


def _int_at_least(low: int):
    """An argparse ``type`` for integers of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _parse_cli_complex(text: str) -> complex:
    """Accept the circuit-file complex format RE+IMi, e.g. 0.6+0.8i."""
    try:
        return _parse_cplx(text, 0, 0)
    except ParseError:
        raise ValueError(f"malformed complex number {text!r} (expected RE+IMi)")


# one element of run's "state" array, laid out as json.dumps(indent=2) lays
# out the array as a value of the top-level object
_STATE_ROW = '\n    {\n      "occupancy": %s,\n      "re": %r,\n      "im": %r\n    }'


def _state_json(state: PhotonState) -> str:
    """The text ``json.dumps(..., indent=2)`` gives ``run``'s ``state``
    array: each term's occupancy with its rounded real and imaginary parts,
    in ``sorted_terms`` order.  A finite float is written by its ``repr``,
    as ``json`` writes it."""
    terms = state.sorted_terms()
    modes = {mode for basis, _ in terms for mode, _ in basis.items()}
    keys = {mode: f"\n        {json.dumps(mode.label())}: " for mode in modes}
    rows = []
    for basis, amp in terms:
        occupancy = ",".join([keys[mode] + str(n) for mode, n in basis.items()])
        rows.append(
            _STATE_ROW
            % (
                "{" + occupancy + "\n      }" if occupancy else "{}",
                float(_fmt(amp.real)),
                float(_fmt(amp.imag)),
            )
        )
    return "[" + ",".join(rows) + "\n  ]" if rows else "[]"


def _run_json(result: RunResult) -> str:
    """``run``'s JSON text: the ``json.dumps(..., indent=2)`` text of
    ``engine``, the ``state`` rows, ``distributions`` and ``discrepancy``,
    with every number rounded to the 12 digits ``_fmt`` writes, and a newline."""
    rest = {
        "distributions": {
            port: {str(n): float(_fmt(p)) for n, p in dist.items()}
            for port, dist in result.distributions.items()
        },
        "discrepancy": None
        if result.discrepancy is None
        else float(_fmt(result.discrepancy)),
    }
    return (
        f'{{\n  "engine": {json.dumps(result.engine)},\n'
        f'  "state": {_state_json(result.state)},\n'
        f"{json.dumps(rest, indent=2)[2:]}\n"
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    if (args.file is None) == (args.demo is None):
        raise ValueError("give exactly one of a circuit file or --demo")
    if args.demo is not None:
        text = DEMO_CIRCUITS[args.demo]
    else:
        text = Path(args.file).read_text(encoding="utf-8")
    circuit = parse_circuit(text)
    result = run_circuit(circuit, engine=args.engine, max_photons=args.max_photons)
    if args.format == "json":
        # json.dumps indents in pure Python, so _run_json writes the state
        # rows, nearly all of the text, itself
        out = _run_json(result)
    else:
        lines = ["basis,re,im"]
        for basis, amp in result.state.sorted_terms():
            lines.append(f"{basis.label()},{_fmt(amp.real)},{_fmt(amp.imag)}")
        out = "\n".join(lines) + "\n"
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# trace


def _trace_matrix(args):
    if args.element == "rbs50":
        return make_split50_rbs().matrix
    if args.element == "rbs":
        if args.r is None or args.t is None:
            raise ValueError("--element rbs needs --r and --t")
        return make_rbs(_parse_cli_complex(args.r), _parse_cli_complex(args.t)).matrix
    if args.element == "waveplate":
        if args.phase is None:
            raise ValueError("--element waveplate needs --phase (degrees)")
        return make_waveplate(
            math.radians(args.phase), math.radians(args.axis)
        ).matrix
    return ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def _cmd_trace(args) -> int:
    matrix = _trace_matrix(args)
    traces = trace_paths(args.n1, args.n2, matrix, max_photons=args.max_photons)
    rows = []
    for tr in traces:
        rows.append(
            {
                "assignment": [list(row) for row in tr.assignment],
                "output": list(tr.output_counts),
                "re": float(_fmt(tr.amplitude.real)),
                "im": float(_fmt(tr.amplitude.imag)),
                "multiplicity": tr.multiplicity,
                "bose_factor": float(_fmt(tr.bose_factor)),
            }
        )
    out = json.dumps(rows, indent=2) + "\n"
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# airy


def _require_length(flag: str, value: float) -> None:
    if not 0 < value < math.inf:  # also rejects NaN
        raise ValueError(f"{flag} must be positive and finite, got {value!r}")


def _conjugate_distance(flag: str, given: float, focal: float) -> float:
    """The distance conjugate to ``given``, the plane that ``flag`` sets:
    1/z1 + 1/z2 = 1/f is symmetric, so one solver gives either.  Errors
    name ``flag``; a plane at or inside the focal length has no real
    conjugate, and nor has one so close that 1 / ``given`` overflows.  Nor
    has one so near it that 1/f - 1/``given`` is subnormal: the conjugate
    overflows."""
    _require_length(flag, given)
    other = image_distance(given, focal, plane=f"the {flag} plane")
    if not other > 0:  # -0.0 when 1 / given overflows
        raise ValueError(
            f"the {flag} plane at {given:g} m is inside the focal length "
            f"{focal:g} m, so it has no real conjugate plane"
        )
    if not other < math.inf:
        raise ValueError(f"the {flag} plane at {given:g} m has a conjugate plane that overflows")
    return other


def _cmd_airy(args) -> int:
    if args.z1 is not None and args.z2 is not None:
        raise ValueError("give at most one of --z1 and --z2")
    _require_length("--focal", args.focal)
    # every plane is solved through 1 / focal; the default source plane is 2 * focal
    if not (1.0 / args.focal < math.inf and 2.0 * args.focal < math.inf):
        raise ValueError(f"--focal must keep 1 / focal and 2 * focal finite, got {args.focal!r}")
    if args.z2 is not None:
        z2 = args.z2
        z1 = _conjugate_distance("--z2", z2, args.focal)
    elif args.z1 is not None:
        z1 = args.z1
        z2 = _conjugate_distance("--z1", z1, args.focal)
    else:
        z1 = 2.0 * args.focal
        z2 = image_distance(z1, args.focal)
    geometry = MirrorGeometry(
        focal_length=args.focal,
        aperture_radius=args.aperture,
        wavelength=args.wavelength,
        z1=z1,
        z2=z2,
    )
    samples = airy_profile(
        geometry,
        args.samples,
        r_max=args.rmax,
        include_aberration=args.aberration,
    )
    amps = [s.amplitude for s in samples]
    if args.normalize:
        peak = amps[0]
        amps = [a / peak for a in amps]
    columns = ("rho2_m", "re", "im", "abs")
    rows = [(s.position, a.real, a.imag, abs(a)) for s, a in zip(samples, amps)]
    if args.format == "json":
        payload = [{k: float(_fmt(v)) for k, v in zip(columns, row)} for row in rows]
        out = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
        out = "\n".join(lines) + "\n"
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# check


def _cmd_check(args) -> int:
    rng = random.Random(args.seed)
    worst = 0.0
    worst_text = ""
    for _ in range(args.count):
        text = random_circuit_text(rng, max_elements=4)
        circuit = parse_circuit(text)
        disc = cross_check(circuit)
        if disc > worst:
            worst = disc
            worst_text = text
    line = (
        f"checked {args.count} random circuits (seed {args.seed}); "
        f"max amplitude discrepancy {worst:.3e}\n"
    )
    _emit(line, args.output)
    if worst >= CHECK_TOLERANCE:
        sys.stderr.write("worst circuit:\n" + worst_text)
        return 3
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockpath",
        description="Few-photon linear optics: dual-engine circuit runs, "
        "path traces, and mirror focusing profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a circuit file or built-in demo")
    run.add_argument("file", nargs="?", help="circuit file (.fpc)")
    run.add_argument("--demo", choices=sorted(DEMO_CIRCUITS), help="built-in circuit")
    run.add_argument(
        "--engine", choices=["paths", "operators", "both"], default="both"
    )
    run.add_argument("--max-photons", type=_int_at_least(1), default=None)
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument("--output", help="write to this file instead of stdout")
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser("trace", help="list photon routings through one element")
    trace.add_argument("--n1", type=int, required=True, help="photons in input 1")
    trace.add_argument("--n2", type=int, required=True, help="photons in input 2")
    trace.add_argument(
        "--element",
        choices=["rbs50", "rbs", "waveplate", "identity"],
        default="rbs50",
    )
    trace.add_argument("--r", help="splitter rho as RE+IMi")
    trace.add_argument("--t", help="splitter tau as RE+IMi")
    trace.add_argument("--phase", type=float, help="wave-plate phase, degrees")
    trace.add_argument("--axis", type=float, default=0.0, help="wave-plate axis, degrees")
    trace.add_argument("--max-photons", type=_int_at_least(1), default=None)
    trace.add_argument("--output", help="write to this file instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    airy = sub.add_parser("airy", help="export the focal-plane radial profile")
    airy.add_argument("--wavelength", type=float, default=0.5e-6)
    airy.add_argument("--focal", type=float, default=0.2)
    airy.add_argument("--aperture", type=float, default=0.01)
    airy.add_argument("--z1", type=float, default=None, help="source distance (m)")
    airy.add_argument(
        "--z2", type=float, default=None, help="detection-plane distance (m)"
    )
    airy.add_argument("--samples", type=int, default=120)
    airy.add_argument("--rmax", type=float, default=None, help="outermost radius (m)")
    airy.add_argument("--aberration", action="store_true")
    airy.add_argument(
        "--normalize", action="store_true", help="scale so the on-axis value is 1"
    )
    airy.add_argument("--format", choices=["csv", "json"], default="csv")
    airy.add_argument("--output", help="write to this file instead of stdout")
    airy.set_defaults(func=_cmd_airy)

    check = sub.add_parser(
        "check", help="cross-check both engines on randomized circuits"
    )
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--count", type=_int_at_least(0), default=200)
    check.add_argument("--output", help="write to this file instead of stdout")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a bad flag
        return 0 if exc.code == 0 else 1
    try:
        if hasattr(args, "max_photons") and args.max_photons is None:
            args.max_photons = _default_max_photons()
        return args.func(args)
    except (FockPathError, ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 1)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
