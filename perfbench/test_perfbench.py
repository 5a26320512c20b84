"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys

import pytest

import spans
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from toricnccr import cli  # noqa: E402
from toricnccr.groups import FGGroup  # noqa: E402
from toricnccr.weights import validate  # noqa: E402


def test_self_time_subtracts_child_spans_and_aggregated_calls():
    # job (0..10) -> main (1..9) -> classify (2..6) -> normalize (3..4)
    #                           \-> quiver (6..8); member calls: 1.5 s under classify
    tree = [
        spans.Span("j", "bench.job", 0.0, 10.0, None),
        spans.Span("j", "cli.main", 1.0, 9.0, 0),
        spans.Span("j", "uppersets.translation_classes", 2.0, 6.0, 1, hot_s=1.5),
        spans.Span("j", "uppersets.normalize", 3.0, 4.0, 2),
        spans.Span("j", "quivers.endomorphism_quiver", 6.0, 8.0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.5, 1.0, 2.0])


def test_layer_metrics_sum_self_time_by_layer():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("j", "bench.job", 0.0, 4.0, None),
        spans.Span("j", "cli.main", 0.5, 3.5, 0),
        spans.Span("j", "uppersets.exchange_graph", 1.0, 3.0, 1, hot_s=0.5),
    ]
    stat = tracer.hot["poset.GradedContext.member"]
    stat.calls, stat.distinct, stat.total_s, stat.self_s = 7, 3, 0.5, 0.5
    m = tracer.metrics()
    assert m["uppersets.self_s"] == pytest.approx(1.5)
    assert m["uppersets.exchange_graph_self_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["bench.self_s"] == pytest.approx(1.0)
    assert (m["poset.member_calls"], m["poset.member_distinct"]) == (7, 3)
    assert m["poset.self_s"] == pytest.approx(0.5)


def test_digest_check_rejects_a_one_byte_change():
    job = workloads.Job("exchange-graph", "a1")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["exchange-graph", str(workloads.INPUTS / "a1.json")])
    stdout = out.getvalue()
    expected = workloads.load_digests()
    assert workloads.check_cli(job, code, stdout, expected) is None
    changed = stdout.replace("CONNECTED", "CONNECTEd", 1)
    assert len(changed) == len(stdout) and changed != stdout
    assert workloads.check_cli(job, code, changed, expected) is not None
    assert workloads.check_cli(job, 2, stdout, expected) is not None


def test_every_fixed_job_has_a_recorded_digest():
    expected = workloads.load_digests()
    ids = [j.id for w in workloads.WORKLOADS for j in workloads.fixed_jobs(w) if j.check == "digest"]
    assert sorted(ids) == sorted(expected)


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_generator_is_reproducible_and_valid(seed):
    systems = workloads.random_systems(seed)
    assert systems == workloads.random_systems(seed)
    assert [tuple(s["group"]["torsion"]) for s in systems] == list(workloads.RANDOM_TORSIONS)
    for doc in systems:
        group = FGGroup(1, tuple(doc["group"]["torsion"]))
        assert 4 <= len(doc["weights"]) <= 5
        assert all(abs(w[0]) <= 5 for w in doc["weights"])
        validate(group, [group.from_vector(w) for w in doc["weights"]])


def test_seeds_vary_the_systems_and_avoid_taken_shapes():
    drawn = {json.dumps(workloads.random_systems(seed)) for seed in range(5)}
    assert len(drawn) > 1
    first = workloads.random_systems(3)
    taken = {workloads._shape(first[0])}
    assert workloads._shape(workloads.random_systems(3, taken)[0]) not in taken


def test_prepare_is_reproducible_per_seed(tmp_path):
    a, paths = workloads.prepare("oracle-crosscheck", 5, tmp_path)
    b, _ = workloads.prepare("oracle-crosscheck", 5, tmp_path)
    assert a == b
    assert len({(j.command, j.system, j.args) for j in a}) == len(a)
    assert all(paths[j.system].exists() for j in a)


def test_benchmark_json_lists_the_printed_metrics():
    import run

    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    printed = [(name, unit) for name, unit, _ in spans.PER_LAYER] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == printed
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)



def test_scaled_time_is_raw_time_at_the_reference_speed():
    import batch

    ref = batch.CALIBRATION_REF_S
    assert batch.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # a core at half speed takes twice as long for both
    assert batch.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert batch.scaled(3.0, ref, 2 * ref) == pytest.approx(2.0)
