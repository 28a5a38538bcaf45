"""Tests of the benchmark itself.

Run with:  python3 -m pytest benchmarks -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    "paths-2d": {"replicas": 2, "scales": 2},
    "ensemble-2d": {"replicas": 3},
    "porosity-3d": {"replicas": 2, "scales": 2},
    "dimension-sparse": {"replicas": 3, "depths": [4, 5, 6]},
}


def declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed():
    bench = declared()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    for workload in bench["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    computed = set(spans.layer_metrics([], 0)) | {"trace.overhead_frac"}
    assert computed == {m["name"] for m in bench["per_layer"]}
    assert set(run.metric_units(False)) == {"wall_s", "setup_s", "throughput", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_arithmetic():
    # cli.run [0, 100] contains a driver [10, 90], which contains two
    # expansions [20, 50] and [55, 85]; the first holds a hash call [25, 45].
    ns = 10**9
    tree = [
        ["cli.run", 0, 100 * ns, -1, 0],
        ["experiments.run_path_batch_partial", 10 * ns, 90 * ns, 0, 0],
        ["percolation.expand_retained", 20 * ns, 50 * ns, 1, 6],
        ["rng.child_keys", 25 * ns, 45 * ns, 2, 8],
        ["percolation.expand_retained", 55 * ns, 85 * ns, 1, 2],
    ]
    assert spans.self_times(tree) == pytest.approx([20, 20, 10, 20, 30])
    layers = spans.layer_self_times(tree)
    assert layers["percolation"] == pytest.approx(40)
    assert layers["rng"] == pytest.approx(20)
    assert sum(layers.values()) == pytest.approx(100)
    metrics = spans.layer_metrics(tree, 123)
    assert metrics["percolation.expand_calls"] == 2
    assert metrics["percolation.expand_self_s"] == pytest.approx(40)
    assert metrics["percolation.nodes_hashed"] == 8
    assert metrics["percolation.live_ratio"] == pytest.approx(1.0)
    assert metrics["rng.keys"] == 8
    assert metrics["cli.self_s"] == pytest.approx(20)
    assert metrics["cli.bytes_written"] == 123


def test_tracer_wraps_every_lookup_site():
    sys.path.insert(0, str(run.SRC))
    from percolab import experiments, percolation, qsampler, rng

    before = (qsampler.max_empty_block, percolation.child_keys, experiments.sample_qpath)
    tracer = spans.Tracer()
    tracer.install()
    try:
        after = (qsampler.max_empty_block, percolation.child_keys, experiments.sample_qpath)
        assert all(a is not b for a, b in zip(after, before))
        assert percolation.unit_draws is rng.unit_draws
        config = percolation.PercolationConfig(m=2, k=2, p=0.8, seed=1)
        experiments.run_path_batch_partial(config, paths=1, n=1, r=2, g=1)
    finally:
        tracer.uninstall()
    assert (qsampler.max_empty_block, percolation.child_keys, experiments.sample_qpath) == before
    names = {s[0] for s in tracer.spans}
    assert {"rng.child_keys", "rng.unit_draws", "percolation.expand_retained",
            "qsampler.sample_step", "qsampler.sample_qpath", "holes.empty_block_sides",
            "experiments.replica"} <= names
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_digest_gate_flags_a_tampered_csv(tmp_path):
    spec = {**workloads.WORKLOADS["ensemble-2d"].spec(3), **TINY["ensemble-2d"]}
    first = run.launch(spec, tmp_path / "a")
    assert first.problems == []
    digests = workloads.digest_outputs(tmp_path / "a" / "out")
    assert set(digests) == {"ensemble.csv", "replica_sweep.csv", "summary.json"}
    csv_path = tmp_path / "a" / "out" / "replica_sweep.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("0", "1", 1)
    csv_path.write_text("".join(lines))
    found = workloads.digest_mismatches(workloads.digest_outputs(tmp_path / "a" / "out"), digests)
    assert len(found) == 1 and found[0].startswith("replica_sweep.csv")


def test_frozen_digests_cover_every_workload():
    frozen = workloads.frozen_digests()
    assert set(frozen) == set(workloads.WORKLOADS)
    for name, entry in frozen.items():
        assert entry["spec"] == workloads.WORKLOADS[name].spec(workloads.DEFAULT_SEED)
        assert "summary.json" in entry["files"]
        assert "run_manifest.json" not in entry["files"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    spec = {**workloads.WORKLOADS[name].spec(5), **TINY[name], "workers": 1}
    plain = run.launch(spec, tmp_path / "plain")
    traced = run.launch(spec, tmp_path / "traced", "trace")
    assert plain.problems == [] and traced.problems == []
    assert plain.digests == traced.digests
    assert 0 < plain.setup_s < plain.wall_s and plain.peak_rss_mb > 0
    probe = run.launch(spec, tmp_path / "probe", "setup")
    assert probe.problems == [] and 0 < probe.setup_s <= probe.wall_s
    assert not (tmp_path / "probe" / "out").exists()
    metrics = spans.layer_metrics(traced.spans, traced.bytes_written)
    assert metrics["cli.bytes_written"] > 0
    assert metrics["rng.keys"] > 0
    if name == "dimension-sparse":
        assert 0 < metrics["experiments.profile_yield"] <= 1
    else:
        assert metrics["percolation.expand_calls"] > 0
