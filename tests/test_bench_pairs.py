"""tools/bench_pairs.summarize: medians, quartiles and pair wins of a BENCH file."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

BETTER = {"wall_s": "lower", "throughput": "higher"}


def _run(failed=0, **metrics):
    return {"metrics": metrics, "attempted": 5, "failed": failed, "failures": []}


def _pair(parent, change, workload="w"):
    return {"parent": {workload: parent}, "change": {workload: change}}


def test_wins_in_both_directions():
    pairs = [
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=1.0, throughput=20.0)),
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=3.0, throughput=5.0)),
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=1.5, throughput=11.0)),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    for metric in BETTER:
        assert summary[metric]["change_better_pairs"] == 2
        assert summary[metric]["parent_better_pairs"] == 1
        assert summary[metric]["pairs"] == 3
    assert summary["wall_s"]["parent_median"] == 2.0
    assert summary["wall_s"]["change_median"] == 1.5
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_ties_count_for_neither_side():
    pairs = [_pair(_run(wall_s=1.0, throughput=4.0), _run(wall_s=1.0, throughput=4.0))] * 2
    pairs.append(_pair(_run(wall_s=1.0, throughput=4.0), _run(wall_s=0.5, throughput=4.0)))
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    assert summary["wall_s"]["change_better_pairs"] == 1
    assert summary["wall_s"]["parent_better_pairs"] == 0
    assert summary["throughput"]["change_better_pairs"] == 0
    assert summary["throughput"]["parent_better_pairs"] == 0


def test_a_failed_side_is_no_win_and_stays_out_of_the_medians():
    # a side whose every timed run failed reports 0.0, the best lower-is-better value
    zeros = _run(failed=5, wall_s=0.0, throughput=0.0)
    pairs = [
        _pair(_run(wall_s=2.0, throughput=10.0), zeros),
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=2.5, throughput=9.0)),
        _pair(_run(failed=1, wall_s=9.0, throughput=1.0), _run(wall_s=2.5, throughput=9.0)),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    assert summary["failed"] == {"parent": 1, "change": 5}
    for metric in BETTER:
        assert summary[metric]["change_better_pairs"] == 0
        assert summary[metric]["parent_better_pairs"] == 1
        assert summary[metric]["pairs"] == 1
    assert summary["wall_s"]["parent_median"] == 2.0
    assert summary["wall_s"]["change_median"] == 2.5


def test_every_pair_failed_leaves_only_the_failure_totals():
    pairs = [_pair(_run(wall_s=1.0), _run(failed=2, wall_s=0.0))] * 2
    assert bench_pairs.summarize(pairs, BETTER)["w"] == {"failed": {"parent": 0, "change": 4}}


def test_a_metric_missing_on_one_side_is_left_out():
    pairs = [_pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=1.0))] * 2
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    assert "throughput" not in summary
    assert summary["wall_s"]["change_better_pairs"] == 2
