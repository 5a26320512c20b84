"""The benchmark's three workloads: their systems, jobs and correctness checks.

Every job is one CLI call (``toricnccr.cli.main(argv)``) or one API call on a
weight system.  A workload's jobs are fixed; the seed only shuffles their
order, except in ``oracle-crosscheck``, where it also draws a few random valid
rank-one systems for the oracle to check.

Why these workloads:

* ``classify-ladder``: the product scan in ``uppersets.translation_classes``
  does almost all the work, with many shallow, repeated ``member`` queries;
  ``quivers`` and ``oracle`` stay idle.
* ``quiver-default``: the arrow search and its doubled-bound rerun dominate;
  classification is small and the ``--degrees`` job skips it entirely.
* ``oracle-crosscheck``: block-sum tables and witness loops in ``oracle``
  dominate, with deep, mostly distinct ``member`` queries; ``uppersets`` and
  ``quivers`` stay idle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"
DIGESTS = Path(__file__).with_name("digests.json")

RANK_ONE_INPUTS = ("a1", "ca4", "z2", "z3", "z4")
CLASS_COUNTS = {"a1": 1, "ca4": 2, "z2": 2, "z3": 3, "z4": 2}
# rank-one systems without torsion, named after their weights
LADDER = {
    "w2357": (2, 5, -3, -4),
    "w2525": (2, 5, -2, -5),
    "w3434": (3, 4, -3, -4),
    "w3544": (3, 5, -4, -4),
    "w3535": (3, 5, -3, -5),
    "w6": (1, 2, 3, -1, -2, -3),
}
WORKLOADS = ("classify-ladder", "quiver-default", "oracle-crosscheck")

# The seeded systems are checked on a narrower range than the fixed ones: their
# oracle cost varies about fourfold from draw to draw, and at -60..60 that
# variation would swamp the run-to-run spread of the workload's wall time.
RANDOM_RANGE = ("--range", "-12..12", "--window", "12")
RANDOM_TORSIONS = ((), (2,), (3,))


@dataclass(frozen=True)
class Job:
    """One call into the program.

    ``check`` is ``"digest"`` (recorded exit code and stdout sha256),
    ``"oracle"`` (a clean crosscheck report) or ``"api"`` (the API job's own
    expected value).
    """

    command: str
    system: str
    args: tuple[str, ...] = ()
    check: str = "digest"

    @property
    def id(self) -> str:
        return " ".join((self.command, self.system) + self.args)


def fixed_jobs(workload: str) -> list[Job]:
    if workload == "classify-ladder":
        jobs = [Job("exchange-graph", s) for s in RANK_ONE_INPUTS]
        jobs += [Job("exchange-graph", s) for s in ("w2357", "w2525", "w3434", "w3544")]
        jobs += [Job("classify", s) for s in ("ca4", "z3", "w2525")]
        # class 0's first exchange-graph edge is at these minimal elements
        for system, at in (("ca4", "(0)"), ("z3", "(0;0)"), ("w2525", "(0)")):
            jobs.append(Job("mutate", system, ("--class", "0", "--at", at)))
        return jobs
    if workload == "quiver-default":
        jobs = [
            Job("quiver", s, ("--class", str(k)) + (("--format", "dot") if (s, k) == ("z3", 2) else ()))
            for s in RANK_ONE_INPUTS
            for k in range(CLASS_COUNTS[s])
        ]
        jobs.append(Job("quiver", "ca4", ("--degrees", "(0) (1) (2)")))
        jobs.append(Job("quiver", "w6", ("--class", "0", "--bound", "12")))
        return jobs
    if workload == "oracle-crosscheck":
        jobs = [
            Job("oracle", s, ("--range", "-60..60", "--window", "60"))
            for s in RANK_ONE_INPUTS + ("w6", "w3535")
        ]
        jobs += [
            Job("homology-crosscheck", "z4", check="api"),
            Job("homology-crosscheck", "w6", check="api"),
            Job("local-cohomology", "w6", ("(7)", "3"), check="api"),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def job_count(workload: str) -> int:
    seeded = len(RANDOM_TORSIONS) if workload == "oracle-crosscheck" else 0
    return len(fixed_jobs(workload)) + seeded


def _document(torsion, weights) -> dict:
    return {"group": {"free_rank": 1, "torsion": list(torsion)}, "weights": weights}


def _shape(doc) -> tuple:
    """A system's identity up to the order of its weights."""
    return tuple(doc["group"]["torsion"]), tuple(sorted(map(tuple, doc["weights"])))


def random_systems(seed: int, taken=()) -> list[dict]:
    """One valid rank-one system per torsion choice (none, Z/2, Z/3).

    Each has 4 or 5 weights with free parts in -5..5.  The last weight
    completes the zero sum; draws that ``validate`` rejects, that need a free
    part outside -5..5, or whose shape is in ``taken`` are redrawn.
    """
    from toricnccr.errors import InputError
    from toricnccr.groups import FGGroup
    from toricnccr.weights import validate

    rng = random.Random(seed)
    taken = set(taken)
    systems = []
    for torsion in RANDOM_TORSIONS:
        group = FGGroup(1, torsion)
        n = rng.choice((4, 5))
        while True:
            weights = [
                [rng.randint(-5, 5)] + [rng.randrange(d) for d in torsion]
                for _ in range(n - 1)
            ]
            last = [-sum(w[0] for w in weights)]
            last += [-sum(w[1 + i] for w in weights) % d for i, d in enumerate(torsion)]
            if abs(last[0]) > 5:
                continue
            weights.append(last)
            doc = _document(torsion, weights)
            if _shape(doc) in taken:
                continue
            try:
                validate(group, [group.from_vector(w) for w in weights])
            except InputError:
                continue
            taken.add(_shape(doc))
            systems.append(doc)
            break
    return systems


def prepare(workload: str, seed: int, workdir: Path) -> tuple[list[Job], dict[str, Path]]:
    """Write the workload's input files and return its jobs in seeded order."""
    paths = {s: INPUTS / f"{s}.json" for s in RANK_ONE_INPUTS}
    docs = {s: _document((), [[w] for w in ws]) for s, ws in LADDER.items()}
    jobs = fixed_jobs(workload)
    if workload == "oracle-crosscheck":
        taken = {_shape(d) for d in docs.values()}
        taken |= {_shape(json.loads(p.read_text())) for p in paths.values()}
        for i, doc in enumerate(random_systems(seed, taken)):
            docs[f"rand{i}"] = doc
            jobs.append(Job("oracle", f"rand{i}", RANDOM_RANGE, check="oracle"))
    for name, doc in docs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    random.Random(seed).shuffle(jobs)
    return jobs, paths


# ---------------------------------------------------------------------------
# Correctness


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def check_cli(job: Job, exit_code: int, stdout: str, expected: dict) -> str | None:
    """Why the CLI job's outcome is wrong, or ``None`` when it is right."""
    if job.check == "oracle":
        if exit_code != 0:
            return f"exit code {exit_code}"
        report = json.loads(stdout)
        if report["mismatches"] != [] or report["agree"] != report["checked"]:
            return f"oracle disagrees: {report['summary']}"
        return None
    want = expected.get(job.id)
    if want is None:
        return "no recorded digest"
    if exit_code != want["exit"]:
        return f"exit code {exit_code}, recorded {want['exit']}"
    if stdout.startswith("{") and json.loads(stdout).get("warnings"):
        return "report carries warnings"
    if digest(stdout) != want["sha256"]:
        return "stdout digest differs from the recorded one"
    return None


def run_api(job: Job, path: Path) -> str | None:
    """Run an API job; why its result is wrong, or ``None`` when it is right."""
    from toricnccr import oracle
    from toricnccr.cli import load_document
    from toricnccr.groups import parse_element
    from toricnccr.weights import validate

    group, raw = load_document(str(path))
    ws = validate(group, raw)
    if job.command == "homology-crosscheck":
        for a in itertools.product((-1, 0, 1), repeat=len(ws.weights)):
            betti = oracle.betti_numbers(oracle.support_complex(ws, a))
            profile = oracle.classify_sign_vector(ws, a).betti_profile()
            if {k: v for k, v in betti.items() if v} != profile:
                return f"Betti numbers {betti} disagree with {profile} at {a}"
        return None
    if job.command == "local-cohomology":
        degree, window = job.args
        table = oracle.local_cohomology_window(ws, parse_element(group, degree), int(window))
        if table != {5: 20, 3: 2}:
            return f"local cohomology window {table}, expected {{5: 20, 3: 2}}"
        return None
    raise ValueError(f"unknown API job {job.command!r}")
