"""The benchmark's workloads: specs made from a seed, their work units, the
output checks, and the digest gate.

Each workload is one CLI spec shape; the workload seed becomes the spec's
``seed`` and nothing else, so the program receives only the generated spec.
The shapes are chosen to load different layers:

* ``paths-2d``: path-series at r=6, g=4.  Dense depth-10 re-expansion per
  scale dominates; grid kernels and the largest CSV come second.
* ``ensemble-2d``: ensemble at r=6, g=4 with two workers.  Root expansions
  only, through the process pool; holes and writing barely matter.
* ``porosity-3d``: porosity-extremes at m=3, r=4, g=2.  The 3-D empty-block
  DP dominates, expansion second.
* ``dimension-sparse``: dimension-slope at depths 4..12.  Sparse
  retained-only frontier walks (``count_profile``), no grids.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict  # the spec without its seed
    unit: str  # what one work unit of ``throughput`` is

    def spec(self, seed: int) -> dict:
        return {**self.base, "seed": int(seed)}


def units(spec: dict) -> int:
    """Work units one run of ``spec`` completes."""
    if spec["kind"] in ("path-series", "porosity-extremes"):
        return spec["replicas"] * spec["scales"]
    return spec["replicas"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paths-2d",
            {"kind": "path-series", "m": 2, "k": 2, "p": 0.8, "resolution": 6,
             "probe_depth": 4, "replicas": 4, "scales": 6, "workers": 1},
            "path-scales",
        ),
        Workload(
            "ensemble-2d",
            {"kind": "ensemble", "m": 2, "k": 2, "p": 0.8, "resolution": 6,
             "probe_depth": 4, "replicas": 48, "workers": 2},
            "replicas",
        ),
        Workload(
            "porosity-3d",
            {"kind": "porosity-extremes", "m": 3, "k": 2, "p": 0.6, "resolution": 4,
             "probe_depth": 2, "replicas": 4, "scales": 15, "workers": 1},
            "path-scales",
        ),
        Workload(
            "dimension-sparse",
            {"kind": "dimension-slope", "m": 2, "k": 2, "p": 0.7,
             "depths": list(range(4, 13)), "replicas": 400, "workers": 1},
            "accepted trees",
        ),
    )
}


# -- output checks -------------------------------------------------------------

_ALPHAS = 20  # length of the CLI's default alpha grid
_EPS = 4  # length of the CLI's default eps grid


def expected_rows(spec: dict) -> Dict[str, int]:
    """Data rows (header excluded) each CSV of a complete run must hold."""
    n = spec["replicas"]
    kind = spec["kind"]
    if kind == "path-series":
        s = spec["scales"]
        return {
            "path_summary.csv": n,
            "scales.csv": n * s,
            "indicators.csv": n * s * _ALPHAS * _EPS,
            "porosity.csv": n * s * _EPS,
        }
    if kind == "ensemble":
        return {"ensemble.csv": _ALPHAS, "replica_sweep.csv": n}
    if kind == "porosity-extremes":
        return {"extremes.csv": n * spec["scales"] * _EPS}
    if kind == "dimension-slope":
        return {"dimension.csv": len(spec["depths"])}
    raise ValueError(f"no checks for kind {kind!r}")


def check_outputs(spec: dict, out: Path) -> List[str]:
    """Problems with a finished run's outputs; empty when they look right."""
    problems = []
    for name, rows in expected_rows(spec).items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            got = sum(1 for _ in csv.reader(fh)) - 1
        if got != rows:
            problems.append(f"{name} has {got} rows, expected {rows}")
    try:
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    if summary.get("kind") != spec["kind"]:
        problems.append(f"summary.json kind is {summary.get('kind')!r}")
    return problems


# -- digest gate ---------------------------------------------------------------


def digest_outputs(out: Path) -> Dict[str, str]:
    """sha256 of every digested output: the CSV tables and summary.json.

    run_manifest.json holds timestamps and wall times, so it is never digested.
    """
    names = sorted(p.name for p in out.glob("*.csv")) + ["summary.json"]
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names
        if (out / name).is_file()
    }


def digest_mismatches(got: Dict[str, str], want: Dict[str, str]) -> List[str]:
    return [
        f"{name} digest {got.get(name, 'missing')[:12]} != expected {want.get(name, 'missing')[:12]}"
        for name in sorted(set(got) | set(want))
        if got.get(name) != want.get(name)
    ]


def frozen_digests() -> Dict[str, dict]:
    """Frozen {workload: {"seed": s, "spec": {...}, "files": {name: sha256}}}."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)
