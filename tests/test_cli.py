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
    big = cli.spec_from_dict({"kind": "ensemble", "resolution": 12, "probe_depth": 4})
    assert any("budget" in w for w in cli.validate(big))


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
    spec_file = _write_spec(tmp_path, {**TINY, "typo_field": 1})
    assert cli.main(["--spec", spec_file, "--out", str(tmp_path / "o")]) == 2
    assert "invalid spec" in capsys.readouterr().err


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
    monkeypatch.setenv("PERCOLAB_MAX_NODES", "1000")
    spec_file = _write_spec(tmp_path, {**TINY, "kind": "ensemble", "replicas": 5})
    assert cli.main(["--spec", spec_file, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "budget" in err


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
