"""Run one batch of a workload in this fresh interpreter; print the result as JSON.

    python3 perfbench/batch.py --workload NAME --seed N --workdir DIR [--trace] [--setup-only]
    python3 perfbench/batch.py --workload NAME --seed N --workdir DIR --record

Set-up is ``import toricnccr`` plus writing the workload's input files.  The
jobs then run one at a time through ``toricnccr.cli.main(argv)`` (or the
oracle API) with stdout captured, and each outcome is checked.  ``--record``
runs the fixed jobs and stores their exit codes and stdout digests in
``digests.json`` instead of checking them; use it only when a report format
changes on purpose.

Garbage is collected between jobs, outside their timing, so that what one job
leaves behind does not raise the peak memory of the next: without it, the
peak depends on the seeded job order.

On a shared virtual machine a core's speed swings by half and more over
seconds to minutes, with other tenants' load.  So a fixed piece of pure
interpreter work, ``calibrate``, is timed before set-up, after set-up and
after every job, and each time measured is also given scaled to a core that
runs ``calibrate`` in ``CALIBRATION_REF_S``: the raw time times
``CALIBRATION_REF_S`` over the mean of the calibrations on either side of it.
The scaled times are what the benchmark reports; a change to the program
moves them as it moves the raw ones, since ``calibrate`` calls no program
code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

CALIBRATION_REF_S = 0.03  # about calibrate()'s time on an idle core of a 2-vCPU Xeon VM


def run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _pair(a, b):
    return a + b, a * b % 11


def calibrate() -> float:
    """Time a fixed mix of calls, tuples, dict lookups and integer arithmetic.

    Its table stays small, so that it does not raise the batch's peak memory.
    """
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(80000):
        key = _pair(i & 63, i % 5)
        table[key] = table.get((i & 1023, 3), 0) + i
        total += i * i % 7
    return time.perf_counter() - start


def scaled(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` on a core that runs ``calibrate`` in ``CALIBRATION_REF_S``."""
    return raw_s * CALIBRATION_REF_S / ((before_s + after_s) / 2)


def run_job(cli, job, path, expected, record) -> str | None:
    """Run one job; why it failed, or ``None``."""
    if job.check == "api":
        return workloads.run_api(job, path)
    code, stdout = run_cli(cli, [job.command, str(path), *job.args])
    if record is not None and job.check == "digest":
        record[job.id] = {"exit": code, "sha256": workloads.digest(stdout)}
        return None
    return workloads.check_cli(job, code, stdout, expected)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    calibration = [calibrate()]
    start = time.perf_counter()
    from toricnccr import cli

    jobs, paths = workloads.prepare(args.workload, args.seed, args.workdir)
    setup_raw_s = time.perf_counter() - start
    calibration.append(calibrate())
    setup_s = scaled(setup_raw_s, *calibration)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    expected = {} if args.record else workloads.load_digests()
    record = {} if args.record else None
    failures, job_s, job_raw_s = {}, {}, {}
    for job in jobs:
        job_start = time.perf_counter()
        try:
            if tracer is None:
                why = run_job(cli, job, paths[job.system], expected, record)
            else:
                why = tracer.run_job(job.id, run_job, cli, job, paths[job.system], expected, record)
        except (Exception, SystemExit) as exc:
            why = f"{type(exc).__name__}: {exc}"
        job_raw_s[job.id] = time.perf_counter() - job_start
        if why is not None:
            failures[job.id] = why
        gc.collect()
        calibration.append(calibrate())
        job_s[job.id] = scaled(job_raw_s[job.id], calibration[-2], calibration[-1])
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    if record is not None:
        stored = workloads.load_digests() if workloads.DIGESTS.exists() else {}
        stored.update(record)
        workloads.DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(job_s.values()),
        "wall_raw_s": sum(job_raw_s.values()),
        "peak_rss_mib": peak_kib / 1024,
        "job_s": job_s,
        "calibration_s": calibration,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(args.workdir / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
