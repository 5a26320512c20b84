"""Benchmark of the toricnccr command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Run it from the root of a checkout; it uses ``src/`` and ``inputs/`` there.
One client in a closed loop: batches of jobs run one after another, each in a
fresh interpreter (``batch.py``), because CLI users pay cold caches on every
call, and never more than one child process at a time.  Batches repeat until
the next one would end after ``--seconds``.  A child is killed after
``BATCH_CAP_S``; its jobs then count as failed and its wall time runs to the
kill.  The workloads and their jobs are described in ``workloads.py``.

End-to-end metrics (``--trace 0``), medians over the run's batches, with
times scaled to a fixed core speed by the calibration described in
``batch.py`` (the raw medians are printed beside them):

* ``wall_s``: time to finish one batch of the workload's jobs;
* ``setup_s``: ``import toricnccr`` plus writing the input files, taken in
  every batch and in ``SETUP_PROBES`` extra set-up-only children;
* ``peak_rss_mib``: peak resident memory of a batch.

``fail_ratio`` (failed jobs over attempted jobs) is printed per workload and
appears in the result line as ``failed`` and ``attempted``.  With
``--trace 1`` untraced and traced batches alternate; the traced ones give the
per-layer metrics listed in ``spans.py`` (their times unscaled),
``trace.overhead_s`` is the difference of the two scaled ``wall_s`` figures,
and the last traced batch's spans are kept in
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".perfbench"
BATCH = Path(__file__).with_name("batch.py")
BATCH_CAP_S = 45
SETUP_PROBES = 9

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # every batch compiles the package from source, as on a first call, and
    # set iteration orders do not vary between batches
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_batch(workload: str, seed: int, *flags: str) -> dict | None:
    """One child interpreter; its result, or ``None`` if it failed or hit the cap."""
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        argv = [sys.executable, str(BATCH), "--workload", workload, "--seed", str(seed),
                "--workdir", workdir, *flags]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                                  timeout=BATCH_CAP_S)
        except subprocess.TimeoutExpired:
            print(f"batch exceeded {BATCH_CAP_S} s and was killed", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        if "--trace" in flags:
            shutil.copy(Path(workdir) / "spans.jsonl", WORK / f"spans-{workload}-seed{seed}.jsonl")
        return result


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Batches until ``seconds`` are used; medians of what they measured."""
    jobs = workloads.job_count(workload)
    setups, setups_raw = [], []
    for _ in range(SETUP_PROBES):
        probe = run_batch(workload, seed, "--setup-only")
        if probe is not None:
            setups.append(probe["setup_s"])
            setups_raw.append(probe["setup_raw_s"])
    plain, traced = [], []  # results of the batches that finished
    walls = {False: [], True: []}  # every batch, a killed one up to the kill, unscaled
    attempted = failed = rounds = 0
    failures = {}
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for is_traced in (False, True) if trace else (False,):
            began = time.perf_counter()
            result = run_batch(workload, seed, *(("--trace",) if is_traced else ()))
            attempted += jobs
            if result is None:
                failed += jobs
                walls[is_traced].append(time.perf_counter() - began)
                continue
            failed += len(result["failures"])
            failures.update(result["failures"])
            setups.append(result["setup_s"])
            setups_raw.append(result["setup_raw_s"])
            walls[is_traced].append(result["wall_s"])
            (traced if is_traced else plain).append(result)
        rounds += 1

    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "wall_s": median(walls[False]),
        "setup_s": median(setups),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
        "wall_samples": walls[False],
        "wall_raw_s": median([r["wall_raw_s"] for r in plain]),
        "setup_raw_s": median(setups_raw),
    }
    if trace:
        layers = {
            metric: median([r["layers"][metric] for r in traced])
            for metric, _, _ in spans.PER_LAYER
        }
        layers["trace.overhead_s"] = median(walls[True]) - summary["wall_s"]
        summary["layers"] = layers
    return summary


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(workload: str, summary: dict, trace: bool) -> dict:
    """Print the workload's figures; return its metrics for the result line."""
    ratio = summary["failed"] / summary["attempted"]
    print(f"{workload}: {len(summary['wall_samples'])} untraced batches")
    metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:14s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':14s} {ratio:.6g} ({summary['failed']} of {summary['attempted']} jobs)")
    print(f"  wall_s per batch: {', '.join(f'{w:.4f}' for w in summary['wall_samples'])}")
    print(f"  unscaled medians: wall {summary['wall_raw_s']:.6g} s, setup {summary['setup_raw_s']:.6g} s")
    for job_id, why in sorted(summary["failures"].items()):
        print(f"  FAILED {job_id}: {why}")
    if not trace:
        return metrics

    layers = summary["layers"]
    units = {metric: unit for metric, unit, _ in spans.PER_LAYER}
    units["trace.overhead_s"] = "s"
    for name, value in layers.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    selfs = {layer: layers[f"{layer}.self_s"] for layer in spans.LAYERS}
    total = sum(selfs.values())
    if total > 0:
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]))
        print(f"  self-time share: {shares}")
    return {name: {"value": value, "unit": units[name]} for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "toricnccr", workloads.INPUTS) if not p.is_dir()]
    if missing:
        print(f"perfbench: not a toricnccr checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print(
        f"perfbench: seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}, "
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"git {git_sha()}"
    )
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += summary["attempted"]
        failed += summary["failed"]
        for name, m in report(workload, summary, bool(args.trace)).items():
            metrics[name if len(names) == 1 else f"{workload}.{name}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
