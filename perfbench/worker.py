"""Runs one workload's ops in a process of its own.

Usage: ``python3 worker.py WORKDIR``, where ``WORKDIR/job.json`` holds
``workload``, ``seed``, ``seconds``, ``trace`` and ``trace_ops``, with
``src/`` on PYTHONPATH.  Ops call ``fockpath.cli.main(argv)`` in-process, one at a time, from
``WORKDIR``.  Op 0 is an untimed warm-up.  Inputs are generated in chunks
between ops, never inside a timed region.  A calibration (speed.py) runs
before the first measured op and after each one.

Without tracing, timed ops run until their summed wall time reaches
``seconds``.  With tracing, ops 1 .. ``trace_ops`` run once untraced and
once traced, so that counts repeat exactly for a seed; the spans go to
``WORKDIR/spans.jsonl``.  Results, with this process's peak RSS, go to
``WORKDIR/result.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

CHUNK = 8


def main() -> None:
    workdir = Path(sys.argv[1]).resolve()
    job = json.loads((workdir / "job.json").read_text(encoding="utf-8"))
    os.chdir(workdir)
    from fockpath import cli
    from speed import calibrate
    from workloads import write_ops

    name, seed = job["workload"], job["seed"]
    ops: list[dict] = []

    def op_spec(index: int) -> dict:
        while index >= len(ops):
            ops.extend(write_ops(name, seed, len(ops), len(ops) + CHUNK, workdir))
        return ops[index]

    def run(index: int, phase: str) -> dict:
        op = op_spec(index)
        # each phase writes output files of its own, so every run is checked
        calls = [[*argv[:-1], argv[-1].replace("out/", f"out/{phase}-")] for argv in op["calls"]]
        rc, error = 0, None
        start = time.perf_counter()
        for argv in calls:
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # an escaped error fails the op
                rc, error = None, f"{type(exc).__name__}: {exc}"
            if rc != 0:
                break
        wall = time.perf_counter() - start
        outputs = [argv[-1] for argv in calls]
        return {"index": index, "phase": phase, "wall_s": wall, "rc": rc, "error": error,
                "outputs": outputs}

    records = [run(0, "warmup")]
    ref_before = calibrate()

    def measured(index: int, phase: str) -> dict:
        """Run an op between two calibrations; ``ref_s`` is their mean."""
        nonlocal ref_before
        rec = run(index, phase)
        ref_after = calibrate()
        rec["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        return rec

    if job["trace"]:
        from tracer import Tracer

        indices = range(1, job["trace_ops"] + 1)
        records += [measured(i, "untraced") for i in indices]
        tracer = Tracer()
        tracer.install()
        for i in indices:
            tracer.op = i
            records.append(measured(i, "traced"))
        tracer.dump(workdir / "spans.jsonl")
    else:
        spent, index = 0.0, 1
        while spent < job["seconds"]:
            records.append(measured(index, "timed"))
            spent += records[-1]["wall_s"]
            index += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ops": ops, "records": records, "peak_rss_mb": peak_kb / 1024.0}
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
