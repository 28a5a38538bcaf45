"""Frozen output digests: every experiment kind, byte for byte.

Each case runs one tiny spec through the command-line entry point and
compares the sha256 of every CSV table and of summary.json with a frozen
value; a digest that moves means the program's numbers changed.
run_manifest.json holds timestamps and wall times, so it is never
digested.  Unlike check 13, which compares worker counts against each
other, these digests catch a refactor that changes every number the same
way.
"""

import hashlib
import json

import pytest

from percolab import cli

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
    # survival rejection runs out after a few replicas: exit code 4
    "partial": {
        "kind": "path-series", "p": 0.3, "replicas": 8, "scales": 25,
        "resolution": 3, "probe_depth": 6, "max_attempts": 2,
    },
}

CASES = [(name, seed) for name in SPECS if name != "partial" for seed in (0, 1)]
CASES.append(("partial", 2))

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
    "partial-2": {
        "indicators.csv": "eb12cae1f77323c57ff16b3ddbd2f7c20940b499683dcd837bbbec0b317cd6ae",
        "path_summary.csv": "3aaf1af60fccf563f86566ecc7b82394d32c14e4d0a6190b163aa3819641f6ee",
        "porosity.csv": "4ef3a6b68e654d1985f4c518c5baa35034009a87cb776e3708cb24646be862ef",
        "scales.csv": "e7ede659c8e5e2b130094845f1715cb26967ec46b8b8c136b7fe83feec0c6481",
        "summary.json": "d3a031134f08c3706016e92b3282ba72afc5c4ce2c4d513f7fc269bcbb77a93a",
    },
}


def run_digests(tmp_path, name, seed):
    """(exit code, {file: sha256}) of one CLI run of SPECS[name] at ``seed``."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({**SPECS[name], "seed": seed}), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["--spec", str(spec_file), "--out", str(out)])
    names = sorted(p.name for p in out.glob("*.csv")) + ["summary.json"]
    return code, {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


@pytest.mark.parametrize("name,seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_golden_digests(tmp_path, capsys, name, seed):
    code, got = run_digests(tmp_path, name, seed)
    capsys.readouterr()
    assert code == (4 if name == "partial" else 0)
    assert got == DIGESTS[f"{name}-{seed}"]
