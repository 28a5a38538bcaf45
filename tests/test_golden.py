"""Frozen output digests: every experiment kind, byte for byte.

Each case runs one tiny spec through the command-line entry point and
compares the sha256 of every CSV table and of summary.json with a frozen
value; a digest that moves means the program's numbers changed.
run_manifest.json holds timestamps and wall times, so it is never
digested.  Unlike check 13, which compares worker counts against each
other, these digests catch a refactor that changes every number the same
way.  The cases run under the compiled hash body where it builds, and once
more under the numpy body, which every failure to build or load it falls
back to.
"""

import hashlib
import json
import os

import pytest

from percolab import _native, cli, rng

SPECS = {
    "path-series": {
        "kind": "path-series", "p": 0.8, "replicas": 3, "scales": 3,
        "resolution": 3, "probe_depth": 2,
    },
    "ensemble": {
        "kind": "ensemble", "p": 0.8, "replicas": 20, "resolution": 3,
        "probe_depth": 2,
    },
    "covariance": {
        "kind": "covariance", "p": 0.8, "replicas": 12, "lags": [2, 0, 1],
        "alpha": 0.5, "resolution": 3, "probe_depth": 2,
    },
    "porosity-extremes": {
        "kind": "porosity-extremes", "m": 3, "p": 0.5, "replicas": 3,
        "scales": 5, "resolution": 3, "probe_depth": 2,
    },
    "slice-decay": {
        "kind": "slice-decay", "p": 0.8, "replicas": 30, "resolutions": [2, 3],
        "probe_depth": 2,
    },
    "dimension-slope": {
        "kind": "dimension-slope", "p": 0.7, "replicas": 20, "depths": [3, 4, 5],
    },
    # k = 3: grid sides that are not powers of two, quarter-cell ball radii
    "path-series-k3": {
        "kind": "path-series", "m": 2, "k": 3, "p": 0.8, "replicas": 3, "scales": 3,
        "resolution": 2, "probe_depth": 2,
    },
    "porosity-extremes-k3": {
        "kind": "porosity-extremes", "m": 1, "k": 3, "p": 0.8, "replicas": 3,
        "scales": 5, "resolution": 3, "probe_depth": 2,
    },
    # eps off the default grid, one an integer: every table and summary
    # writes it as 1.0
    "path-series-eps": {
        "kind": "path-series", "p": 0.8, "replicas": 3, "scales": 3,
        "resolution": 3, "probe_depth": 2, "eps_grid": [1, 0.037, 5e-5],
    },
    "porosity-extremes-eps": {
        "kind": "porosity-extremes", "m": 3, "p": 0.5, "replicas": 3,
        "scales": 5, "resolution": 3, "probe_depth": 2, "eps_grid": [1, 0.037, 5e-5],
    },
    # an integer alpha: every table and summary writes it as 1.0
    "ensemble-alpha": {
        "kind": "ensemble", "p": 0.8, "replicas": 20, "resolution": 3,
        "probe_depth": 2, "alpha_grid": [1, 0.25],
    },
    "path-series-alpha": {
        "kind": "path-series", "p": 0.8, "replicas": 3, "scales": 3,
        "resolution": 3, "probe_depth": 2, "alpha_grid": [1, 0.25],
    },
    "covariance-alpha": {
        "kind": "covariance", "p": 0.8, "replicas": 12, "lags": [2, 0, 1],
        "alpha": 1, "resolution": 3, "probe_depth": 2,
    },
    # survival rejection runs out after a few replicas: exit code 4
    "partial": {
        "kind": "path-series", "p": 0.3, "replicas": 8, "scales": 25,
        "resolution": 3, "probe_depth": 6, "max_attempts": 2,
    },
}

# (name, seed, workers); the partial case also runs on a pool, whose
# workers must hand their rejection error back to the parent
CASES = [(name, seed, 1) for name in SPECS if name != "partial" for seed in (0, 1)]
CASES += [("partial", 2, 1), ("partial", 2, 2)]
IDS = [f"{n}-{s}" + (f"-workers{w}" if w > 1 else "") for n, s, w in CASES]

DIGESTS = {
    "path-series-0": {
        "indicators.csv": "198d04d0d86e517dc2205863ed6ca55d3f2fa4d2d4070311ba6213d9e49a1866",
        "path_summary.csv": "65b6cad2d148e931a123c4f066aec5568bc530265c832bb485836cc190d3b566",
        "porosity.csv": "a54750001040df6486ba2305d164698c678dc273df7c494e1ce1da19610e08f4",
        "scales.csv": "06da5918a5ab9a3fcbc2a3eec34bd11d6c8b231d053ab0aa7850f35198ebe13d",
        "summary.json": "9118e15c3e768b2921dbd61eea45d18ae7036be0b844e5a51d1cb68415b4dcaf",
    },
    "path-series-1": {
        "indicators.csv": "461adc180d6ff57e2723b44a71190d78234ced5d70bb44796b5700029135377f",
        "path_summary.csv": "6606d5dbf40ace8533b1c4de2f208e3d9f88be511a53f6a30e7d6e833b92339c",
        "porosity.csv": "a18b9fc6d90987f937bf52091a5184b06d78640d83fef42d7034539122c4f840",
        "scales.csv": "004c45ff2c3f075c66c20a035b0c392d426c7e3e2611453104f9e4659aeec9d0",
        "summary.json": "4c0f00807e5c69329ea4849606da7687c6f57571f4ab2b0934787d1f75896ad2",
    },
    "ensemble-0": {
        "ensemble.csv": "a41e175261f09a0db128dc936ca459055bae983ae4bdf6e55d233858ea23c6e0",
        "replica_sweep.csv": "71cb58e2713ecec994922dc05e51b3b18c43f09e3fcaa3b57c2a05a59d66d8b6",
        "summary.json": "206baf50fa9cb4d8e12df8ec8d24aa7ca64db3a453a3cbc39d8e7fc2a042f973",
    },
    "ensemble-1": {
        "ensemble.csv": "c9ed45585b23135d5f9996932d8946c819709cc003a5410e5597c956488e902c",
        "replica_sweep.csv": "54f3a4502332a1b20eca4c7f556b3e16f1835b674dd88a53e4f409c78ce6d16f",
        "summary.json": "e872daf61130289ed5c724936bf464b40fa45fc6577c08c74e2250470fb62996",
    },
    "covariance-0": {
        "covariance.csv": "55b89b9590a9208924963263cf4e35bfd556993959fba58fcb5a9732c8a61dbd",
        "summary.json": "a9d5876d0d9ef9f382bac26916ffa34745632f027577a5c4de6bd3cb47b3d3bb",
    },
    "covariance-1": {
        "covariance.csv": "af2db01bda5511d6f9d668401503c110ef23e259977f34119c69e2d899784c25",
        "summary.json": "85189b75ed6cde51fb4f7fd65188017d9747a6aefdbd62a925bae56b1c17b96d",
    },
    "porosity-extremes-0": {
        "extremes.csv": "8ebad514957318be18bb3a17686f2b6e8aec0f866162e49f12f8c0f36e1dccba",
        "summary.json": "f61388b9226ae85b8e596850de99d84e87c76e3a5fd4f01dcaf47762ec40a06c",
    },
    "porosity-extremes-1": {
        "extremes.csv": "9d7f98cd54bcaef45b1bc782f29bfd0740f367c601bf775597580ea4f6f11f65",
        "summary.json": "83c91520a7e3ad7b2efeb51d3fed644d4cb5292aafe6ef63dd38804647536af1",
    },
    "slice-decay-0": {
        "slice.csv": "7273c17684ba7f3894fd9d220a85c6da038995e7965dd9aa20cb644943ad94ec",
        "summary.json": "1afad72d7e2f44a0c014ccaf3c5ff0d3f3a6bacf2ad8b06410628aa91aea15ac",
    },
    "slice-decay-1": {
        "slice.csv": "265217ac72d9ebf8c82a6ae4f5607eebee7e7441fa46e293bb9b7a61b8f5d26d",
        "summary.json": "e96cfa0f215df2c6b05566eb17414f6aeb3b9fb1886e5c4599d91f0d9b1c3e86",
    },
    "dimension-slope-0": {
        "dimension.csv": "54d040e5b7b24fbc35b69e78c09a6fcc07f92ea0b0fdbfe3bd75406fe13aa7ae",
        "summary.json": "a18800599e993d61b7e1f2b578d06c8106dda810c2f91b0aa14b69eb1e3535ff",
    },
    "dimension-slope-1": {
        "dimension.csv": "3a59503fd1999a95e91e138298b78324fff8393af86ea2362a35dc509aebd2c3",
        "summary.json": "9b9e1e344ffaae9757e2bdc1977c1757971722db750c3e2a199a618e282d4679",
    },
    "path-series-k3-0": {
        "indicators.csv": "40d7da3873dcd8519a5b7fc4c5d5903adda5332dd3c863846b23383aacf32c53",
        "path_summary.csv": "7c588e4c5f69712f2d23fc2c9246a7d95c209e8ed6314261485bac58d821280c",
        "porosity.csv": "55a6af3aeb457b80f190e39173d9385bda761bb1b13d01f2a62038409e27a08f",
        "scales.csv": "a38f1848d32085579acbd2d447150de1b7a808395a0ca50c79c55b5920eec4ae",
        "summary.json": "5374ccde4cef13fbc07cf3ed4c1f0ab5c252c2127a2bf103b996b269896e8f8f",
    },
    "path-series-k3-1": {
        "indicators.csv": "f40afce732ec5d7a3fd290c0c7ad3c733f1f18f7798b1c11c2baad47ab2a1d63",
        "path_summary.csv": "1e4379e17d9df75c5cdf1288a46e45eb475459d3b88894401b632d19c60e79b9",
        "porosity.csv": "550db05e7badb8f90cb197b709f1b68bb860511f5554ec38986c34e9823edbea",
        "scales.csv": "d195de05f6f370aa226ad0e9f75cc64c99589ba873fa1985622af8670ea5e3fe",
        "summary.json": "466be0f85bec90bcd5b1f71655b5911600d5845296012ffbb7fe546d93a79879",
    },
    "porosity-extremes-k3-0": {
        "extremes.csv": "7a8d6a01b6cf4333e2250e0d83138afc9ad51b79bda0dde310b90c916e85245c",
        "summary.json": "d0aa4c66c92db6a0cedabc61ac8c3b472146398606ab505d4d8b1f9befd21ba8",
    },
    "porosity-extremes-k3-1": {
        "extremes.csv": "9da7ba9ccfe3fa119cca9888ee09df8c81e2a73e40855955d4e49b3eaee3fd20",
        "summary.json": "3462aaa97e37565df0e39f4d086f46f1cb0cfe7938bc86b664d299f488c57cc7",
    },
    "path-series-eps-0": {
        "indicators.csv": "725ba7018f9dd6617c241b203c56f9658c4c0e24e58a7afac2566fc06113e3ec",
        "path_summary.csv": "65b6cad2d148e931a123c4f066aec5568bc530265c832bb485836cc190d3b566",
        "porosity.csv": "e5f58a20821c07b909e4c3dc271f4c62d453d4df1ebf752f3027641ec0fa37c7",
        "scales.csv": "06da5918a5ab9a3fcbc2a3eec34bd11d6c8b231d053ab0aa7850f35198ebe13d",
        "summary.json": "9118e15c3e768b2921dbd61eea45d18ae7036be0b844e5a51d1cb68415b4dcaf",
    },
    "path-series-eps-1": {
        "indicators.csv": "d522c14e44a0ad65c3209bc814e841daf63484eea8122fd8f7750b032f88d2c4",
        "path_summary.csv": "6606d5dbf40ace8533b1c4de2f208e3d9f88be511a53f6a30e7d6e833b92339c",
        "porosity.csv": "fc24006b5b26118818649d9e4340ef54c99fe978e202d7b241042e9b0c866bf9",
        "scales.csv": "004c45ff2c3f075c66c20a035b0c392d426c7e3e2611453104f9e4659aeec9d0",
        "summary.json": "4c0f00807e5c69329ea4849606da7687c6f57571f4ab2b0934787d1f75896ad2",
    },
    "porosity-extremes-eps-0": {
        "extremes.csv": "10056e6b4a482b43834227653fcc5202e20269ca9138d03dedd4381b550aca5d",
        "summary.json": "8828cd630c5dae4d931e0eec88c48f2027fe744a860e218cdbe445b8e9af741c",
    },
    "porosity-extremes-eps-1": {
        "extremes.csv": "18313316641a70f58682fc67ab773ecf0691c7816966fc1aed766998254b7927",
        "summary.json": "8828cd630c5dae4d931e0eec88c48f2027fe744a860e218cdbe445b8e9af741c",
    },
    "ensemble-alpha-0": {
        "ensemble.csv": "8cb7fe2d35cf51955a18b15529c07d61a2682777bbe5c51c817a2123dca3faf9",
        "replica_sweep.csv": "71cb58e2713ecec994922dc05e51b3b18c43f09e3fcaa3b57c2a05a59d66d8b6",
        "summary.json": "25a02e184991c7a04bfedda81df426b5912327da3a2b08d9af1187f04f39a471",
    },
    "ensemble-alpha-1": {
        "ensemble.csv": "a916cbc517a4ed5eb66537a39de7d789f8734e83ce23c9116e96971e65cdb4ab",
        "replica_sweep.csv": "54f3a4502332a1b20eca4c7f556b3e16f1835b674dd88a53e4f409c78ce6d16f",
        "summary.json": "d84c98fb389a641ea6c85b6418da2aef3a403fccbf9969c6e1655171d2067084",
    },
    "path-series-alpha-0": {
        "indicators.csv": "adb7f5b8fdcbb032d0032ab701fdb1fa01b6954d7c3ad8a0e45f2cce7a7e77a5",
        "path_summary.csv": "65b6cad2d148e931a123c4f066aec5568bc530265c832bb485836cc190d3b566",
        "porosity.csv": "a54750001040df6486ba2305d164698c678dc273df7c494e1ce1da19610e08f4",
        "scales.csv": "06da5918a5ab9a3fcbc2a3eec34bd11d6c8b231d053ab0aa7850f35198ebe13d",
        "summary.json": "4e96f8d5ce0ca868c267297324de3f7df73c976cce0f1f22fb69d27b8135a195",
    },
    "path-series-alpha-1": {
        "indicators.csv": "c4d2945a616cca98f11801f0e18ea470e5401e37c94b98d10a8559a2d7fe8cb6",
        "path_summary.csv": "6606d5dbf40ace8533b1c4de2f208e3d9f88be511a53f6a30e7d6e833b92339c",
        "porosity.csv": "a18b9fc6d90987f937bf52091a5184b06d78640d83fef42d7034539122c4f840",
        "scales.csv": "004c45ff2c3f075c66c20a035b0c392d426c7e3e2611453104f9e4659aeec9d0",
        "summary.json": "baed87d12576d2d6c7bd446ca2a4ddd619ed4ff16cb1d13f3a79f48062e7d287",
    },
    "covariance-alpha-0": {
        "covariance.csv": "4d7d6ae42d88547e61b81737b92a48bc744e2273fcbb64d44c367eccbc6e85ff",
        "summary.json": "6c4e2225850984750013a4965b4705d545e231cc0e79fee8960ec5edfa881107",
    },
    "covariance-alpha-1": {
        "covariance.csv": "4d7d6ae42d88547e61b81737b92a48bc744e2273fcbb64d44c367eccbc6e85ff",
        "summary.json": "6c4e2225850984750013a4965b4705d545e231cc0e79fee8960ec5edfa881107",
    },
    "partial-2": {
        "indicators.csv": "eb12cae1f77323c57ff16b3ddbd2f7c20940b499683dcd837bbbec0b317cd6ae",
        "path_summary.csv": "3aaf1af60fccf563f86566ecc7b82394d32c14e4d0a6190b163aa3819641f6ee",
        "porosity.csv": "4ef3a6b68e654d1985f4c518c5baa35034009a87cb776e3708cb24646be862ef",
        "scales.csv": "e7ede659c8e5e2b130094845f1715cb26967ec46b8b8c136b7fe83feec0c6481",
        "summary.json": "d3a031134f08c3706016e92b3282ba72afc5c4ce2c4d513f7fc269bcbb77a93a",
    },
}


def run_digests(tmp_path, name, seed, workers=1):
    """(exit code, {file: sha256}) of one CLI run of SPECS[name] at ``seed``."""
    spec_file = tmp_path / "spec.json"
    spec = {**SPECS[name], "seed": seed, "workers": workers}
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["--spec", str(spec_file), "--out", str(out)])
    names = sorted(p.name for p in out.glob("*.csv")) + ["summary.json"]
    return code, {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


@pytest.mark.parametrize("name,seed,workers", CASES, ids=IDS)
def test_golden_digests(tmp_path, capsys, name, seed, workers):
    code, got = run_digests(tmp_path, name, seed, workers)
    capsys.readouterr()
    assert code == (4 if name == "partial" else 0)
    assert got == DIGESTS[f"{name}-{seed}"]


@pytest.mark.parametrize("name,seed,workers", CASES, ids=IDS)
def test_golden_digests_under_the_numpy_body(tmp_path, capsys, monkeypatch, name, seed, workers):
    monkeypatch.setattr(rng, "_loops", lambda: None)  # the compiled body off
    test_golden_digests(tmp_path, capsys, name, seed, workers)


def _no_compiler(cache, monkeypatch):
    monkeypatch.setenv("PATH", "")


def _unwritable_cache(cache, monkeypatch):
    cache.write_bytes(b"")  # a file where the cache directory should be


def _failed_build(cache, monkeypatch):
    source = cache.parent / "_splitmix.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(_native, "_SOURCE", source)


def _corrupt_object(cache, monkeypatch):
    cache.mkdir()
    _native._object(cache).write_bytes(b"not a shared object")


def _unreadable_object(cache, monkeypatch):
    _native._object(cache).mkdir(parents=True)  # a directory where the object should be


def _check_mismatch(cache, monkeypatch):
    source = cache.parent / "_splitmix.c"
    source.write_text(_native._SOURCE.read_text().replace(">> 11", ">> 12"))
    monkeypatch.setattr(_native, "_SOURCE", source)


def _fanout_mismatch(cache, monkeypatch):
    # only the fanout-4 case is wrong: it hashes its keys' children at fanout 2
    source = cache.parent / "_splitmix.c"
    text = _native._SOURCE.read_text()
    assert text.count("children(keys, n, 4, out)") == 1
    source.write_text(text.replace("children(keys, n, 4, out)", "children(keys, n, 2, out)"))
    monkeypatch.setattr(_native, "_SOURCE", source)


def _miscounted(cache, monkeypatch, line):
    # only one mode of the count step is wrong: it adds its counts twice
    source = cache.parent / "_splitmix.c"
    text = _native._SOURCE.read_text()
    assert text.count(line) == 1
    source.write_text(text.replace(line, line.replace("+= ", "+= 2 * ")))
    monkeypatch.setattr(_native, "_SOURCE", source)


def _cell_0_miscount(cache, monkeypatch):
    _miscounted(cache, monkeypatch, "cells[0] += total;")


def _parent_cell_miscount(cache, monkeypatch):
    _miscounted(cache, monkeypatch, "cells[cell] += per[i];")


def _full_label_miscount(cache, monkeypatch):
    _miscounted(cache, monkeypatch, "cells[labels[start + i] * fanout + j] += per[i];")


@pytest.mark.parametrize("failure", [
    _no_compiler, _unwritable_cache, _failed_build, _corrupt_object, _unreadable_object,
    _check_mismatch, _fanout_mismatch, _cell_0_miscount, _parent_cell_miscount,
    _full_label_miscount,
], ids=lambda f: f.__name__.strip("_"))
def test_loader_failures_fall_back_to_the_numpy_body(tmp_path, capsys, monkeypatch, failure):
    # filterwarnings = error::UserWarning: a warning would fail the run
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "_CACHE", cache)
    failure(cache, monkeypatch)
    rng._loops.cache_clear()
    try:
        code, got = run_digests(tmp_path, "path-series", 0)
    finally:
        rng._loops.cache_clear()  # the next caller loads from the package's cache
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
    assert (code, manifest["hash_kernel"], err) == (0, "numpy", "")
    assert got == DIGESTS["path-series-0"]


def test_a_failed_build_is_tried_once_per_source(tmp_path, capsys, monkeypatch):
    # a stand-in cc that counts its calls and fails slowly enough that two
    # pool workers resolving the loops themselves would both call it
    calls = tmp_path / "calls"
    stand_in = tmp_path / "bin" / "cc"
    stand_in.parent.mkdir()
    stand_in.write_text(f"#!/bin/sh\necho cc >> '{calls}'\nsleep 0.3\nexit 1\n")
    stand_in.chmod(0o755)
    monkeypatch.setenv("PATH", f"{stand_in.parent}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
    try:
        for run in ("first", "second"):
            rng._loops.cache_clear()  # each run resolves the loops afresh, as a new process does
            (tmp_path / run).mkdir()
            code, got = run_digests(tmp_path / run, "path-series", 0, workers=2)
            assert (code, got) == (0, DIGESTS["path-series-0"])
            assert rng.hash_kernel() == "numpy"
    finally:
        rng._loops.cache_clear()  # the next caller loads from the package's cache
    assert capsys.readouterr().err == ""
    assert calls.read_text().splitlines() == ["cc"]
    assert _native._object(tmp_path / "cache").with_suffix(".failed").exists()
