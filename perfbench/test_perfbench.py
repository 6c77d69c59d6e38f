"""Tests of the benchmark itself: span self time and a smoke run of each workload.

    python3 -m pytest perfbench -q
"""

import json
import os
import threading

import pytest

import run
from tracer import Tracer, covered
from workloads import SIZES, WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def test_covered_merges_overlaps_and_skips_empty():
    assert covered([]) == 0.0
    assert covered([(3, 6), (1, 4), (8, 9), (5, 5)]) == pytest.approx(6.0)


def test_self_time_of_nested_spans_recorded_from_two_threads():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def child(parent, start, end, inner=None):
        with tracer.adopt(parent):
            now[0] = start
            with tracer.span("child"):
                if inner:
                    now[0] = inner[0]
                    with tracer.span("grandchild"):
                        now[0] = inner[1]
                now[0] = end

    with tracer.span("root") as root:
        for args in ((root, 1.0, 4.0, (2.0, 3.0)), (root, 3.0, 6.0)):
            t = threading.Thread(target=child, args=args)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
        now[0] = 10.0

    spans = {sp.name: sp for sp in tracer.spans if sp.name != "child"}
    children = [sp for sp in tracer.spans if sp.name == "child"]
    assert [c.parent for c in children] == [root.id, root.id]
    assert spans["grandchild"].parent == children[0].id
    # the two children overlap on [3, 4]: covered time is 5, not 6
    assert tracer.self_time(root) == pytest.approx(10.0 - 5.0)
    assert tracer.self_time(children[0]) == pytest.approx(3.0 - 1.0)
    assert tracer.self_time(children[1]) == pytest.approx(3.0)
    assert tracer.busy({"child"}) == pytest.approx(5.0)


def test_concurrent_threads_keep_separate_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(root):
        with tracer.adopt(root):
            with tracer.span("task"):
                barrier.wait(timeout=10)
                with tracer.span("leaf"):
                    barrier.wait(timeout=10)

    with tracer.span("root") as root:
        threads = [threading.Thread(target=work, args=(root,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tasks = {sp.id: sp for sp in tracer.spans if sp.name == "task"}
    leaves = [sp for sp in tracer.spans if sp.name == "leaf"]
    assert len(tasks) == 2 and len(leaves) == 2
    assert all(t.parent == root.id for t in tasks.values())
    assert sorted(leaf.parent for leaf in leaves) == sorted(tasks)
    assert 0.0 <= tracer.self_time(root) <= root.duration


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


EXTRAS = {
    "toda_spectra": {"sample_s", "compare_s", "eigs_per_s"},
    "quartic_mcmc": {"sample_s", "compare_s", "sweeps_per_s", "ess_per_s"},
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    report = run.run_benchmark(workload, seed=1, seconds=0, trace=False, size=SIZES["smoke"])
    line = run.summary_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert ({k: m["unit"] for k, m in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert report["end_to_end"]["failed_ratio"]["value"] == 0
    assert EXTRAS[workload] <= set(report["end_to_end"])
    assert report["fingerprints"] and report["machine"]["workers"] == os.cpu_count()

    traced = run.summary_line(
        run.run_benchmark(workload, seed=1, seconds=0, trace=True, size=SIZES["smoke"]))
    assert traced["correct"] and traced["failed"] == 0
    assert ({k: m["unit"] for k, m in traced["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
    assert traced["metrics"]["cli.self_s"]["value"] > 0
