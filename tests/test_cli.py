"""End-to-end checks of the command-line driver.

Covers spec parsing/validation, every experiment kind at desk scale,
worker-count and rerun determinism of the written artifacts, and the
documented exit codes (0 ok, 2 bad spec, 3 memory budget, 4 partial).
"""

import contextlib
import csv
import dataclasses
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from percolab import cli, rng


TINY = {
    "kind": "path-series",
    "p": 0.8,
    "seed": 5,
    "replicas": 3,
    "scales": 3,
    "resolution": 3,
    "probe_depth": 2,
}


def _read_outputs(out: Path) -> dict:
    """Map filename -> bytes for every artifact except the manifest.

    The manifest carries a wall-clock timestamp, so byte equality is
    asserted on everything else and field equality on the manifest.
    """
    found = {}
    for f in sorted(out.iterdir()):
        if f.name != "run_manifest.json":
            found[f.name] = f.read_bytes()
    return found


# -- spec parsing ---------------------------------------------------------------


def test_spec_defaults_round_trip():
    spec = cli.spec_from_dict({"kind": "ensemble"})
    assert spec.kind == "ensemble"
    assert (spec.m, spec.k, spec.p) == (2, 2, 0.8)
    again = cli.spec_from_dict(dataclasses.asdict(spec))
    assert again == spec


def test_spec_from_dict_coerces_grid_lists():
    spec = cli.spec_from_dict(
        {"kind": "covariance", "lags": [0, 2], "alpha_grid": [0.1, 0.3]}
    )
    assert spec.lags == (0, 2)
    assert spec.alpha_grid == (0.1, 0.3)


def test_spec_from_dict_unwraps_manifest():
    spec = cli.spec_from_dict({"spec": dict(TINY), "outputs": ["x.csv"], "partial": False})
    assert spec.kind == "path-series"
    assert spec.replicas == 3


def test_spec_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        cli.spec_from_dict({"kind": "ensemble", "pee": 0.8})


def test_spec_from_dict_requires_kind():
    with pytest.raises(ValueError):
        cli.spec_from_dict({})


def test_spec_errors_flag_bad_values():
    assert cli.spec_errors(cli.spec_from_dict({"kind": "nope"}))
    assert cli.spec_errors(cli.spec_from_dict({"kind": "ensemble", "p": 1.5}))
    assert cli.spec_errors(cli.spec_from_dict({"kind": "ensemble", "replicas": 0}))
    assert cli.spec_errors(cli.spec_from_dict({"kind": "ensemble", "alpha": -0.1}))


def test_validate_clean_spec_has_no_warnings():
    assert cli.validate(cli.ExperimentSpec(kind="path-series")) == []


def test_validate_warns_subcritical_and_budget():
    sub = cli.spec_from_dict({"kind": "ensemble", "p": 0.2})
    assert any("critical" in w for w in cli.validate(sub))
    for big in [
        {"kind": "ensemble", "resolution": 12, "probe_depth": 4},
        {"kind": "dimension-slope", "depths": [4, 30]},  # expected frontier only
        {"kind": "ensemble", "m": 3, "k": 3, "resolution": 300},  # past float range
        {"kind": "dimension-slope", "depths": [4, 8000]},  # 4**8000 has 4817 digits
    ]:
        assert any("budget" in w for w in cli.validate(cli.spec_from_dict(big)))


def test_validate_warns_of_a_large_resident_set(monkeypatch):
    # about 1.5e7 expected frontier nodes fit the 2^24 budget, and five
    # workers hold more than four budgets of them at once
    monkeypatch.delenv("PERCOLAB_MAX_NODES", raising=False)
    spec = cli.spec_from_dict({"kind": "dimension-slope", "depths": [4, 14], "workers": 5})
    warnings = cli.validate(spec)
    assert len(warnings) == 1
    assert warnings[0].startswith("5 workers x ") and "large resident set" in warnings[0]
    assert cli.validate(dataclasses.replace(spec, workers=4)) == []


# -- every kind runs and writes its tables --------------------------------------


@pytest.mark.parametrize(
    "overrides,files",
    [
        ({}, ["path_summary.csv", "scales.csv", "indicators.csv", "porosity.csv"]),
        ({"kind": "ensemble", "replicas": 30}, ["ensemble.csv", "replica_sweep.csv"]),
        ({"kind": "covariance", "replicas": 20, "lags": [0, 1]}, ["covariance.csv"]),
        ({"kind": "porosity-extremes", "scales": 4}, ["extremes.csv"]),
        (
            {"kind": "slice-decay", "replicas": 40, "resolutions": [2, 3]},
            ["slice.csv"],
        ),
        (
            {"kind": "dimension-slope", "replicas": 30, "depths": [3, 4, 5]},
            ["dimension.csv"],
        ),
    ],
)
def test_run_each_kind_writes_tables(tmp_path, overrides, files):
    spec = cli.spec_from_dict({**TINY, **overrides, "out_dir": str(tmp_path)})
    manifest = cli.run(spec)
    for name in files + ["summary.json"]:
        assert (tmp_path / name).exists(), name
        assert name in manifest["outputs"]
    assert manifest["partial"] is False
    assert manifest["spec"] == dataclasses.asdict(spec)
    assert manifest["tool"] == "percolab"
    # every CSV begins with a header line and has at least one data row
    for name in files:
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2
        assert lines[0][0].isalpha()


def test_covariance_rows_are_sorted_unique_lags(tmp_path):
    # a repeated lag gets one row, and rows run in increasing lag order
    payload = {**TINY, "kind": "covariance", "seed": 6, "alpha": 0.5, "replicas": 20}
    spec = cli.spec_from_dict({**payload, "lags": [2, 0, 2, 1], "out_dir": str(tmp_path)})
    cli.run(spec)
    with open(tmp_path / "covariance.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["lag"] for row in rows] == ["0", "1", "2"]
    assert all(row["replicas"] == "20" for row in rows)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert [entry["lag"] for entry in summary["lags"]] == [0, 1, 2]


def test_run_is_deterministic_per_spec(tmp_path):
    spec = cli.spec_from_dict(TINY)
    cli.run(dataclasses.replace(spec, out_dir=str(tmp_path / "a")))
    cli.run(dataclasses.replace(spec, out_dir=str(tmp_path / "b")))
    assert _read_outputs(tmp_path / "a") == _read_outputs(tmp_path / "b")


def test_run_worker_count_does_not_change_artifacts(tmp_path):
    serial = cli.spec_from_dict(TINY)
    pooled = cli.spec_from_dict({**TINY, "workers": 2})
    cli.run(dataclasses.replace(serial, out_dir=str(tmp_path / "s")))
    cli.run(dataclasses.replace(pooled, out_dir=str(tmp_path / "p")))
    assert _read_outputs(tmp_path / "s") == _read_outputs(tmp_path / "p")


def test_manifest_names_the_hash_body(tmp_path, monkeypatch):
    spec = cli.spec_from_dict({**TINY, "kind": "ensemble", "replicas": 4})
    kernels = [
        cli.run(dataclasses.replace(spec, workers=w, out_dir=str(tmp_path / str(w))))["hash_kernel"]
        for w in (1, 2)
    ]
    assert kernels == [rng.hash_kernel()] * 2
    assert kernels[0] in ("native", "numpy")
    monkeypatch.setattr(rng, "_loops", lambda: None)  # the compiled body off
    off = cli.run(dataclasses.replace(spec, out_dir=str(tmp_path / "off")))
    assert off["hash_kernel"] == "numpy"
    assert _read_outputs(tmp_path / "off") == _read_outputs(tmp_path / "1")


# -- entry point and exit codes --------------------------------------------------


def _write_spec(tmp_path: Path, payload: dict) -> str:
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(payload), encoding="utf-8")
    return str(f)


def test_main_ok_and_manifest_rerun(tmp_path, capsys):
    spec_file = _write_spec(tmp_path, TINY)
    assert cli.main(["--spec", spec_file, "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    # a prior manifest is itself a valid spec input
    manifest = str(tmp_path / "one" / "run_manifest.json")
    assert cli.main(["--spec", manifest, "--out", str(tmp_path / "two")]) == 0
    assert _read_outputs(tmp_path / "one") == _read_outputs(tmp_path / "two")


def test_main_flag_overrides_beat_spec(tmp_path):
    spec_file = _write_spec(tmp_path, {**TINY, "out_dir": str(tmp_path / "unused")})
    out = tmp_path / "o"
    assert cli.main(["--spec", spec_file, "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["seed"] == 9
    # the manifest names the directory that was written
    assert manifest["spec"]["out_dir"] == str(out)
    assert not (tmp_path / "unused").exists()


def test_main_rejects_bad_json(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json", encoding="utf-8")
    assert cli.main(["--spec", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_main_rejects_unknown_field(tmp_path, capsys):
    # delta_frac was a field once: older manifests that carry it are refused
    for name, payload in [
        ("typo_field", {**TINY, "typo_field": 1}),
        ("delta_frac", {"spec": {**TINY, "delta_frac": 1 / 3}}),
    ]:
        spec_file = _write_spec(tmp_path, payload)
        assert cli.main(["--spec", spec_file, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "invalid spec" in err and name in err and len(err.splitlines()) == 1


def test_main_requires_kind(tmp_path, capsys):
    spec_file = _write_spec(tmp_path, {"p": 0.8})
    assert cli.main(["--spec", spec_file]) == 2
    capsys.readouterr()


def test_main_kind_flag_fills_and_overrides_kind(tmp_path, capsys):
    kindless = {key: value for key, value in TINY.items() if key != "kind"}
    spec_file = _write_spec(tmp_path, kindless)
    one = tmp_path / "one"
    assert cli.main(["--spec", spec_file, "--kind", "path-series", "--out", str(one)]) == 0
    # the flag also overrides the kind inside a prior run manifest
    manifest = str(one / "run_manifest.json")
    two = tmp_path / "two"
    argv = ["--spec", manifest, "--kind", "porosity-extremes", "--out", str(two)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    rerun = json.loads((two / "run_manifest.json").read_text(encoding="utf-8"))
    assert rerun["spec"]["kind"] == "porosity-extremes"
    assert rerun["spec"]["seed"] == TINY["seed"]


@pytest.mark.parametrize(
    "bad",
    [
        {"scales": 1.5},
        {"m": 2.0},
        {"replicas": True},
        {"kind": "ensemble", "replicas": 1},
        {"seed": "5"},
        {"lags": 2},
        {"alpha_grid": [0.25, None]},
        {"alpha_grid": []},
        {"eps_grid": []},
        # one case per range bound of spec_errors
        {"scales": 0},
        {"resolution": 0},
        {"probe_depth": -1},
        {"workers": 0},
        {"lags": [0, -1]},
        {"lags": []},
        {"depths": [0, 4]},
        {"depths": []},
        # a slope needs two distinct depths
        {"kind": "dimension-slope", "depths": [1]},
        {"kind": "dimension-slope", "depths": [5, 5]},
        {"resolutions": [4, 0]},
        {"resolutions": []},
        {"slab_axis": 2},
        {"slab_position": 16},  # the coarsest default slice grid has 2^4 cells
        {"max_attempts": 0},
        # below the critical p the mass factor k^(-depth d) grows with depth
        {"p": 0.2, "probe_depth": 5000},
        # every kind reads k as a float
        {"k": 10**400},
        {"kind": "dimension-slope", "k": 10**400},
    ],
    ids=["float-int", "float-m", "bool-int", "one-replica-ensemble", "str-int",
         "scalar-list", "null-in-list", "empty-alpha-grid", "empty-eps-grid",
         "zero-scales", "zero-resolution", "negative-probe-depth", "zero-workers",
         "negative-lag", "empty-lags", "zero-depth", "empty-depths", "one-depth",
         "repeated-depth", "zero-resolutions",
         "empty-resolutions", "slab-axis-past-m", "slab-position-past-grid",
         "zero-max-attempts", "mass-factor-overflow", "k-past-float-range",
         "slope-k-past-float-range"],
)
def test_main_rejects_badly_typed_spec(tmp_path, capsys, bad):
    spec_file = _write_spec(tmp_path, {**TINY, **bad})
    out = tmp_path / "o"
    assert cli.main(["--spec", spec_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid spec:")
    assert all(name in err for name in bad if name != "kind")  # the field's own check
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_main_rejects_a_spec_file_that_is_not_an_object(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps([TINY]), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["--spec", str(spec_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: spec file must hold a JSON object\n"
    assert not out.exists()


def test_run_refuses_an_invalid_spec(tmp_path):
    # the library entry point checks the spec itself, as main does
    spec = cli.spec_from_dict({**TINY, "scales": 0, "workers": 0, "out_dir": str(tmp_path / "o")})
    with pytest.raises(ValueError, match="scales must be >= 1; workers must be >= 1"):
        cli.run(spec)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["path-series", "porosity-extremes"])
@pytest.mark.parametrize(
    "eps", [[float("nan")], [float("inf")], [float("nan"), float("inf")], [0.1, 10**400]],
    ids=["nan", "inf", "nan-inf", "past-float"],
)
def test_main_rejects_nonfinite_eps(tmp_path, capsys, kind, eps):
    # json writes these as NaN and Infinity, which json.load reads back; an
    # integer past the float range is finite but has no float to write
    spec_file = _write_spec(tmp_path, {**TINY, "kind": kind, "eps_grid": eps})
    out = tmp_path / "o"
    assert cli.main(["--spec", spec_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid spec:") and "eps_grid" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_main_memory_budget_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERCOLAB_MAX_NODES", "100")
    # each replica's 64-cell grid fits; its retained frontier outgrows 100
    ensemble = {**TINY, "kind": "ensemble", "replicas": 5}
    specs = [
        {**ensemble, "workers": 1},
        {**ensemble, "workers": 2},  # a pool worker's error must reach the parent
        # deep specs: node counts past 4300 digits stay out of every message
        {"kind": "dimension-slope", "depths": [4, 8000]},
        {"kind": "ensemble", "resolution": 8000},
        {"kind": "ensemble", "resolution": 10**8},
        {"kind": "ensemble", "m": 3, "k": 3, "resolution": 10**8},
        {"kind": "path-series", "resolution": 3, "probe_depth": 8000},
        {"kind": "slice-decay", "resolutions": [10**8]},
        # path kinds budget one scale's grid before they stack any: 2^80
        # cells cannot even be allocated, 2^32 and 2^33 only as 8-16 GiB
        {"kind": "path-series", "resolution": 40, "replicas": 1, "scales": 2},
        {"kind": "path-series", "resolution": 16, "replicas": 1, "scales": 2},
        {"kind": "path-series", "m": 3, "resolution": 11, "replicas": 1, "scales": 2},
        {"kind": "covariance", "resolution": 16, "replicas": 2, "lags": [0, 1]},
        {"kind": "porosity-extremes", "resolution": 16, "replicas": 1, "scales": 2},
        # sizes far past any budget are refused before k^m, a grid's k^(m r)
        # cells or a depth-long profile is built, so at once
        {"kind": "path-series", "m": 1, "k": 3, "resolution": 2, "probe_depth": 10**8,
         "replicas": 1, "scales": 2},
        {"kind": "slice-decay", "k": 3, "resolutions": [10**8], "replicas": 2},
        {"kind": "slice-decay", "k": 2, "resolutions": [10**9], "replicas": 2},
        {"kind": "ensemble", "m": 10**7, "k": 3, "replicas": 2},
        {"kind": "ensemble", "m": 10**6, "k": 3, "replicas": 2},
        {"kind": "dimension-slope", "m": 10**6, "k": 3, "replicas": 2},
        {"kind": "dimension-slope", "p": 0.3, "depths": [2, 10**8], "replicas": 2},
        # n scale records are budgeted before any is allocated
        {"kind": "path-series", "scales": 10**13, "replicas": 1, "resolution": 2,
         "probe_depth": 1},
        {"kind": "covariance", "lags": [0, 10**13], "replicas": 2, "resolution": 2,
         "probe_depth": 1},
    ]
    for i, spec in enumerate(specs):
        spec_file = _write_spec(tmp_path, spec)
        out = tmp_path / f"o{i}"
        start = time.perf_counter()
        assert cli.main(["--spec", spec_file, "--out", str(out)]) == 3, spec
        assert time.perf_counter() - start < 2.0, spec
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err
        lines = err.splitlines()
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        # the advice names only what a CLI run can change
        assert "PERCOLAB_MAX_NODES" in err and "pass max_nodes" not in err
        assert all(len(line) < 200 for line in err.splitlines())
        assert not out.exists()


def test_replica_records_are_budgeted_before_any_task_is_listed(tmp_path, capsys, monkeypatch):
    # every kind lists one task per replica before any runs: the count is
    # checked against the node budget as a path's scale records are
    monkeypatch.setenv("PERCOLAB_MAX_NODES", "8")
    spec = {"kind": "ensemble", "m": 1, "k": 2, "resolution": 1, "probe_depth": 1}
    for replicas, code in ((9, 3), (8, 0)):
        out = tmp_path / f"o{replicas}"
        spec_file = _write_spec(tmp_path, {**spec, "replicas": replicas})
        assert cli.main(["--spec", spec_file, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == ("error: expansion needs at least 9 nodes, budget is 8 "
                       "(raise PERCOLAB_MAX_NODES)\n" if code else "")
        assert out.exists() == (code == 0)


def test_spec_errors_weighs_mass_at_the_deepest_level_read():
    # resolution + probe_depth for grid kinds, the finest resolution for
    # slice-decay; dimension-slope counts nodes and weighs no mass
    deep = {"p": 0.2, "resolution": 3, "resolutions": [2, 3]}
    for kind in cli.KINDS:
        if kind == "dimension-slope":
            continue
        fits = cli.spec_from_dict({**deep, "kind": kind, "probe_depth": 2000})
        assert cli.spec_errors(fits) == []
        over = cli.spec_from_dict({**deep, "kind": kind, "probe_depth": 5000})
        assert "probe_depth" in "; ".join(cli.spec_errors(over))
    slope = cli.spec_from_dict({**deep, "kind": "dimension-slope", "probe_depth": 5000})
    assert cli.spec_errors(slope) == []


def test_main_partial_run_exits_4_but_keeps_prefix(tmp_path, capsys):
    payload = {
        **TINY,
        "p": 0.3,
        "seed": 2,
        "replicas": 8,
        "scales": 25,
        "probe_depth": 6,
        "max_attempts": 2,
    }
    spec_file = _write_spec(tmp_path, payload)
    out = tmp_path / "o"
    assert cli.main(["--spec", spec_file, "--out", str(out)]) == 4
    capsys.readouterr()
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["partial"] is True
    assert "rejection_error" in manifest
    assert 0 < len(manifest["replica_seeds"]) < 8
    assert (out / "path_summary.csv").exists()


def test_main_dimension_slope_without_survivors_exits_4(tmp_path, capsys):
    # subcritical trees all die before depth 20: survival rejection is
    # exhausted, and this kind has no completed prefix to write
    payload = {"kind": "dimension-slope", "p": 0.1, "replicas": 2, "depths": [4, 20]}
    out = tmp_path / "o"
    assert cli.main(["--spec", _write_spec(tmp_path, payload), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and "UserWarning" not in err
    # the subcritical advisory is printed once, by validate
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "critical" in warnings[0]
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: only 0 of 2 trees survived to depth 20 within 40 candidates"]
    assert not out.exists()


def test_main_slice_decay_without_survivors_exits_4(tmp_path, capsys):
    # no tree survives at the coarsest resolution: the run stops with one
    # error line, before any 0/0 fraction is averaged, and writes nothing
    payload = {"kind": "slice-decay", "p": 0.2, "replicas": 2, "resolutions": [2, 4]}
    out = tmp_path / "o"
    assert cli.main(["--spec", _write_spec(tmp_path, payload), "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("warning:") and "critical" in lines[0]
    assert lines[1] == "error: no tree of 2 survived at resolution 2"
    assert not out.exists()


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_main_slice_decay_zero_fine_fraction_writes_null(tmp_path, capsys, seed):
    # trees survive, but at resolution 4 no slab holds mass: the ratio onto
    # it has no value, and summary.json stays standard JSON
    payload = {"kind": "slice-decay", "p": 0.3, "replicas": 3, "resolutions": [2, 4]}
    out = tmp_path / "o"
    spec_file = _write_spec(tmp_path, payload)
    assert cli.main(["--spec", spec_file, "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text, parse_constant=_refuse)
    assert summary["surviving"][1] > 0 and summary["mean_fraction"][1] == 0.0
    assert summary["observed_ratios"] == [None]
    assert "resolution 4" in summary["null_ratio_reason"]


def test_main_resolution_one_path_series(tmp_path, capsys):
    # at r = 1 the side-2 grid's ball faces fall on cell boundaries; the
    # one-cell ball box must keep its cell, or the ball is massless
    payload = {
        "kind": "path-series", "p": 0.8, "replicas": 2, "scales": 2,
        "resolution": 1, "probe_depth": 2,
    }
    out = tmp_path / "o"
    assert cli.main(["--spec", _write_spec(tmp_path, payload), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("path_summary.csv", "scales.csv", "indicators.csv", "porosity.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("size", [1, 2, 5, 6, 9])
def test_median_matches_numpy(size):
    # porosity-extremes summaries take medians without np.median, whose
    # first call imports numpy.ma; they must stay byte-identical to it
    import numpy as np

    rng = np.random.default_rng(size)
    values = (rng.integers(0, 32, size) / 32).tolist()  # ties, as porosities have
    values[-1] = 0.1  # a middle pair whose mean rounds
    for sample in (values, sorted(values), [1e-300, 0.3, 0.7, 1.0][: size + 1]):
        assert repr(cli._median(sample)) == repr(float(np.median(sample)))
    assert np.isnan(cli._median(values + [float("nan")]))


# -- the exit contract as a whole -------------------------------------------------

# one field at or just past a spec_errors bound, or past the node budget
_EDGES = [
    {"scales": 0},
    {"resolution": 0},
    {"resolution": 40},  # past the budget for any m and k
    {"probe_depth": -1},
    {"replicas": 1},  # too few for an ensemble's interval
    {"p": 0.0},
    {"p": 1.0},
    {"p": 0.2},  # subcritical at every m and k drawn: rejections
    {"max_attempts": 0},
    {"max_attempts": 1},
    {"alpha_grid": [1.0]},
    {"alpha_grid": [0.0]},
    {"eps_grid": [0.0]},
    {"eps_grid": [10.0]},
    {"lags": [-1]},
    {"lags": [3, 0, 3]},
    {"depths": [3]},  # one depth fits no slope
    {"depths": [3, 3]},
    {"depths": [0, 2]},
    {"resolutions": [0, 2]},
    {"resolutions": [1, 40]},
    {"slab_axis": 3},
    {"slab_position": 2},
    # far past any bound: refused before the size is built
    {"probe_depth": 10**8},
    {"m": 10**7},
    {"resolution": 10**8},
    {"resolutions": [10**8]},
    {"scales": 10**13},
    {"lags": [0, 10**13]},
    {"replicas": 10**13},
    {"k": 10**400},
]


# a small spec; one edge at most replaces a field
_BASES = st.fixed_dictionaries(
    {
        "m": st.integers(1, 2),
        "k": st.integers(2, 3),
        "p": st.sampled_from([0.4, 0.7, 0.9]),
        "seed": st.integers(0, 3),
        "scales": st.integers(1, 3),
        "resolution": st.integers(1, 3),
        "probe_depth": st.integers(0, 2),
        "replicas": st.integers(2, 3),
        "max_attempts": st.sampled_from([2, 20]),
        "lags": st.just([0, 1]),
        "depths": st.integers(3, 5).map(lambda j: [2, j]),
        "resolutions": st.integers(2, 3).map(lambda r: [1, r]),
        "alpha_grid": st.just([0.25, 0.5]),
        "eps_grid": st.just([0.01]),
    }
)
_BASE = {
    "m": 2, "k": 2, "p": 0.7, "scales": 2, "resolution": 2, "probe_depth": 1, "replicas": 2,
    "lags": [0, 1], "depths": [2, 3], "resolutions": [1, 2],
}


def _no_constant(name):
    raise ValueError(f"summary.json holds {name}")


@pytest.mark.parametrize("kind", cli.KINDS)
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(base=_BASES, edge=st.sampled_from([{}] + _EDGES))
@example(base=_BASE, edge={"resolution": 40})
@example(base=_BASE, edge={"resolutions": [1, 40]})
@example(base=_BASE, edge={"depths": [3]})
@example(base={"m": 1, "k": 3, "resolution": 2, "replicas": 1, "scales": 2},
         edge={"probe_depth": 10**8})
@example(base={"k": 3, "replicas": 2}, edge={"m": 10**6})
@example(base={"p": 0.2, "replicas": 1, "scales": 2, "max_attempts": 5},
         edge={"probe_depth": 5000})
@example(base=_BASE, edge={"scales": 10**13})
@example(base=_BASE, edge={"lags": [0, 10**13]})
@example(base=_BASE, edge={"replicas": 10**13})
@example(base=_BASE, edge={"k": 10**400})
def test_main_keeps_its_exit_contract(monkeypatch, kind, base, edge):
    # 6 kinds x 70 specs run in about 2.5 s on 2 CPUs: exit 0 or 4 with
    # tables, or exit 2, 3 or 4 with one error line and no output directory
    monkeypatch.delenv("PERCOLAB_MAX_NODES", raising=False)
    spec = {**base, "kind": kind, **edge}
    with tempfile.TemporaryDirectory() as tmp:
        spec_file = _write_spec(Path(tmp), spec)
        out = Path(tmp) / "o"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--spec", spec_file, "--out", str(out), "--workers", "1"])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4)
        assert [str(w.message) for w in caught] == []
        if out.exists():
            assert code in (0, 4)
            assert not any(line.startswith("error:") for line in lines)
            text = (out / "summary.json").read_text(encoding="utf-8")
            json.loads(text, parse_constant=_no_constant)
        else:
            assert code != 0
            assert [line for line in lines if line.startswith("error:")] == lines[-1:]
            assert all(line.startswith("warning:") for line in lines[:-1])
