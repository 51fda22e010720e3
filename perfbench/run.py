"""fockpath benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 18 --trace 0

Workloads: mesh, check, coherent, airy (see workloads.py and README.md).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a table for people comes
before it.  Op and set-up times are in reference seconds (see speed.py), which
cancel most of the drift of a shared machine's speed.  Every op's output
is checked by oracle.py; a failed op counts in ``failed`` and lowers
``ok_rate``.  The program is imported from ``src/`` of the checkout this
file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, calibrate, to_reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_LAUNCHES = 15
SETUP_CALIBRATIONS = 3
TAIL_BEYOND = 10
TRACE_OPS = 4
DEADLINE_S = 170.0

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fockpath.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _setup_calibration() -> float:
    """Median of a few ``reference_work`` runs: a launch is short, so one
    calibration next to it would add noise of its own."""
    return statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(wall, reference) seconds to import fockpath.cli in fresh interpreters,
    after one untimed launch that leaves compiled bytecode behind.  Each
    launch is scaled by the calibrations taken in this process just before
    and after it, so that a slow spell of the machine does not read as a
    slower import."""
    times = []
    ref_before = None
    for launch in range(SETUP_LAUNCHES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=deadline - time.monotonic(),
        )
        ref_after = _setup_calibration()
        if launch:
            wall = float(out.stdout)
            times.append((wall, to_reference(wall, (ref_before + ref_after) / 2)))
        ref_before = ref_after
    return times


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Fewer samples give the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n, n - k


def run_worker(job: dict, workdir: Path, deadline: float) -> dict:
    (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(workdir)], env=_child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, check=True, timeout=deadline - time.monotonic(),
    )
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def check_records(workload: str, result: dict, workdir: Path) -> list[dict]:
    """Attach ``items`` and ``problem`` to every op record."""
    from oracle import CHECKS

    ops = {op["index"]: op for op in result["ops"]}
    for rec in result["records"]:
        items, problem = 0, None
        if rec["rc"] != 0:
            problem = rec["error"] or f"exit code {rec['rc']}"
        else:
            try:
                items, problem = CHECKS[workload]({**ops[rec["index"]], "outputs": rec["outputs"]}, workdir)
            except Exception as exc:  # unreadable output fails the op, not the run
                problem = f"oracle: {type(exc).__name__}: {exc}"
        rec["items"], rec["problem"] = items, problem
    return result["records"]


def end_to_end(records: list[dict], setup: list[tuple[float, float]], peak_rss_mb: float):
    timed = [r for r in records if r["phase"] == "timed"]
    scaled = [to_reference(r["wall_s"], r["ref_s"]) for r in timed]
    tail_s, pct, beyond = tail(scaled)
    ok = sum(r["problem"] is None for r in records)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "items_per_s": (sum(r["items"] for r in timed) / math.fsum(scaled), "1/s"),
        "ok_rate": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"op times in reference seconds (speed.py): reference_work took "
        f"{statistics.median(r['ref_s'] for r in timed):.4g} s against {REFERENCE_S} s; "
        f"wall op p50 {statistics.median(r['wall_s'] for r in timed):.4g} s",
        f"op_tail_s is p{pct:.1f} of {len(scaled)} timed ops, {beyond} beyond it",
        f"setup_s is the median of {len(setup)} launches in reference seconds; "
        f"wall median {statistics.median(wall for wall, _ in setup):.4g} s",
        f"fail_rate {1.0 - ok / len(records):.6g} ({len(records) - ok} of {len(records)} ops, warm-up included)",
    ]
    return metrics, notes


def per_layer(records: list[dict], workdir: Path) -> tuple[dict, list[str]]:
    """Per-layer totals over the traced ops, times in reference seconds."""
    from tracer import layer_metrics, load

    traced = [r for r in records if r["phase"] == "traced"]
    untraced = [r for r in records if r["phase"] == "untraced"]
    ref_s = statistics.median(r["ref_s"] for r in traced)
    metrics = {
        name: (to_reference(value, ref_s) if unit == "s" else value, unit)
        for name, (value, unit) in layer_metrics(*load(workdir / "spans.jsonl")).items()
    }
    p50 = [statistics.median(to_reference(r["wall_s"], r["ref_s"]) for r in rs) for rs in (traced, untraced)]
    metrics["trace.overhead_ratio"] = (p50[0] / p50[1], "ratio")
    return metrics, [
        f"totals over {len(traced)} traced ops; reference_work took {ref_s:.4g} s against {REFERENCE_S} s",
        "mirror.integrand_evals is computed from the quadrature calls' arguments",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "fockpath" / "cli.py").is_file():
        sys.stderr.write(f"error: no fockpath sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trace_ops": TRACE_OPS,
    }
    try:
        setup = [] if args.trace else measure_setup(deadline)
        result = run_worker(job, workdir, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    records = check_records(args.workload, result, workdir)
    if args.trace:
        metrics, notes = per_layer(records, workdir)
    else:
        metrics, notes = end_to_end(records, setup, result["peak_rss_mb"])
    for sub in ("in", "out"):
        shutil.rmtree(workdir / sub, ignore_errors=True)

    failed = [r for r in records if r["problem"] is not None]
    for rec in failed:
        sys.stderr.write(f"op {rec['index']} ({rec['phase']}) failed: {rec['problem']}\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
