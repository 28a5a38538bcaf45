"""End-to-end checks of the command-line driver.

Covers spec parsing/validation, every experiment kind at desk scale,
worker-count and rerun determinism of the written artifacts, and the
documented exit codes (0 ok, 2 bad spec, 3 memory budget, 4 partial).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from percolab import cli


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
        {"kind": "dimension-slope", "depths": [8000]},  # 4**8000 has 4817 digits
    ]:
        assert any("budget" in w for w in cli.validate(cli.spec_from_dict(big)))


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
    spec = cli.spec_from_dict({**TINY, **overrides})
    manifest = cli.run(spec, out_dir=str(tmp_path))
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


def test_run_is_deterministic_per_spec(tmp_path):
    spec = cli.spec_from_dict(TINY)
    cli.run(spec, out_dir=str(tmp_path / "a"))
    cli.run(spec, out_dir=str(tmp_path / "b"))
    assert _read_outputs(tmp_path / "a") == _read_outputs(tmp_path / "b")


def test_run_worker_count_does_not_change_artifacts(tmp_path):
    serial = cli.spec_from_dict(TINY)
    pooled = cli.spec_from_dict({**TINY, "workers": 2})
    cli.run(serial, out_dir=str(tmp_path / "s"))
    cli.run(pooled, out_dir=str(tmp_path / "p"))
    assert _read_outputs(tmp_path / "s") == _read_outputs(tmp_path / "p")


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
    spec_file = _write_spec(tmp_path, TINY)
    out = tmp_path / "o"
    assert cli.main(["--spec", spec_file, "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["seed"] == 9


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
    ],
    ids=["float-int", "float-m", "bool-int", "one-replica-ensemble", "str-int",
         "scalar-list", "null-in-list"],
)
def test_main_rejects_badly_typed_spec(tmp_path, capsys, bad):
    spec_file = _write_spec(tmp_path, {**TINY, **bad})
    out = tmp_path / "o"
    assert cli.main(["--spec", spec_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid spec:")
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
        {"kind": "dimension-slope", "depths": [8000]},
        {"kind": "ensemble", "resolution": 8000},
        {"kind": "path-series", "resolution": 3, "probe_depth": 8000},
        {"kind": "slice-decay", "resolutions": [10**8]},
    ]
    for i, spec in enumerate(specs):
        spec_file = _write_spec(tmp_path, spec)
        out = tmp_path / f"o{i}"
        assert cli.main(["--spec", spec_file, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err
        assert all(len(line) < 200 for line in err.splitlines())
        assert not out.exists()


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
    payload = {"kind": "dimension-slope", "p": 0.1, "replicas": 2, "depths": [20]}
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
