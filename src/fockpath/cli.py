"""Command-line front end: circuit runs, path traces, Airy export, checks.

Exit codes: 0 success, 2 parse error (message carries line:col), 3 engine
disagreement, 4 photon budget or truncation failure, 1 anything else.
Output is deterministic for fixed inputs and flags; files are written in
one shot after all computation succeeds, so failures leave no partial file.
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
    cross_check,
    parse_circuit,
    random_circuit_text,
    run_circuit,
)
from .elements import make_rbs, make_split50_rbs, make_waveplate
from .errors import (
    EngineDisagreementError,
    FockPathError,
    ParseError,
    PhotonBudgetError,
    TruncationError,
)
from .fock import DEFAULT_MAX_PHOTONS, PhotonState, state_to_json_obj
from .mirror import MirrorGeometry, airy_profile, focal_amplitude_quadrature
from .paths import trace_paths

__all__ = ["main", "console_entry"]

CHECK_TOLERANCE = 1e-10


def _round12(value: float) -> float:
    out = float(f"{value:.12g}")
    return 0.0 if out == 0 else out


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


def _parse_cli_complex(text: str) -> complex:
    """Accept the circuit-file complex format RE+IMi, e.g. 0.6+0.8i."""
    from .circuit import _parse_cplx

    try:
        return _parse_cplx(text, 0, 0)
    except ParseError:
        raise ValueError(f"malformed complex number {text!r} (expected RE+IMi)")


def _state_rows(state: PhotonState) -> list[dict]:
    return [
        {**row, "re": _round12(row["re"]), "im": _round12(row["im"])}
        for row in state_to_json_obj(state)
    ]


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
        name = args.demo
    else:
        text = Path(args.file).read_text(encoding="utf-8")
        name = args.file
    circuit = parse_circuit(text, name=name)
    result = run_circuit(circuit, engine=args.engine, max_photons=args.max_photons)
    if args.format == "json":
        payload = {
            "engine": result.engine,
            "state": _state_rows(result.state),
            "distributions": {
                port: {str(n): _round12(p) for n, p in dist.items()}
                for port, dist in result.distributions.items()
            },
            "discrepancy": None
            if result.discrepancy is None
            else _round12(result.discrepancy),
        }
        out = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["basis,re,im"]
        for basis, amp in result.state.sorted_terms():
            lines.append(
                f"{basis.label()},{_round12(amp.real):.12g},{_round12(amp.imag):.12g}"
            )
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
                "re": _round12(tr.amplitude.real),
                "im": _round12(tr.amplitude.imag),
                "multiplicity": tr.multiplicity,
                "bose_factor": _round12(tr.bose_factor),
            }
        )
    out = json.dumps(rows, indent=2) + "\n"
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# airy


def _cmd_airy(args) -> int:
    if args.z1 is not None and args.z2 is not None:
        raise ValueError("give at most one of --z1 and --z2")
    if args.z2 is not None:
        from .mirror import image_distance

        # invert the imaging equation to recover z1 for the given plane
        z2 = args.z2
        z1 = image_distance(z2, args.focal)
        geometry = MirrorGeometry(
            focal_length=args.focal,
            aperture_radius=args.aperture,
            wavelength=args.wavelength,
            z1=z1,
            z2=z2,
        )
    else:
        z1 = args.z1 if args.z1 is not None else 2.0 * args.focal
        geometry = MirrorGeometry.imaging(
            focal_length=args.focal,
            aperture_radius=args.aperture,
            wavelength=args.wavelength,
            z1=z1,
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
    if args.format == "json":
        payload = [
            {
                "rho2_m": _round12(s.position),
                "re": _round12(a.real),
                "im": _round12(a.imag),
                "abs": _round12(abs(a)),
            }
            for s, a in zip(samples, amps)
        ]
        out = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["rho2_m,re,im,abs"]
        for s, a in zip(samples, amps):
            lines.append(
                f"{_round12(s.position):.12g},{_round12(a.real):.12g},"
                f"{_round12(a.imag):.12g},{_round12(abs(a)):.12g}"
            )
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
        text = random_circuit_text(rng, max_photons=4, max_elements=4)
        circuit = parse_circuit(text)
        disc = cross_check(circuit, max_photons=args.max_photons)
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
    run.add_argument("--max-photons", type=int, default=None)
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
    trace.add_argument("--max-photons", type=int, default=None)
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
    check.add_argument("--count", type=int, default=200)
    check.add_argument("--max-photons", type=int, default=None)
    check.add_argument("--output", help="write to this file instead of stdout")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_photons", None) is None and hasattr(args, "max_photons"):
        try:
            args.max_photons = _default_max_photons()
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EngineDisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (PhotonBudgetError, TruncationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (FockPathError, ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())
