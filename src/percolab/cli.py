"""Experiment runner.

Reads a JSON experiment spec, executes one experiment kind by composing the
library modules, and writes analysis-ready CSV tables plus a JSON summary
and a versioned JSON run manifest.  Outputs are a pure function of
(spec, seed): rerunning with any worker count reproduces the CSV bytes.

Exit codes: 0 success; 2 bad configuration; 3 memory budget exceeded;
4 survival rejection exhausted (partial results are still written and
flagged in the manifest).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import MemoryBudgetError, RejectionLimitError
from .estimators import (
    CovarianceEstimate,
    covariance_from_paths,
    ensemble_from_sweep,
    path_average_bracket,
    porosity_extremes,
)
from .experiments import (
    dimension_slope,
    ensemble_sweep_parallel,
    run_path_batch_partial,
    slice_decay,
)
from .percolation import _DEFAULT_MAX_NODES, PercolationConfig, _max_nodes_default
from .percolation import capped_power, mass_factor
from .qsampler import DEFAULT_ALPHA_GRID, DEFAULT_EPS_GRID, DEFAULT_MAX_ATTEMPTS, DEFAULT_PROBE_DEPTH
from .qsampler import ensemble_config
from .rng import hash_kernel
from . import __version__

_SCHEMA_VERSION = 1


@dataclass
class ExperimentSpec:
    """Everything a run needs; serializable to/from plain JSON."""

    kind: str
    m: int = 2
    k: int = 2
    p: float = 0.8
    seed: int = 0
    scales: int = 100  # path length (scales visited per path)
    resolution: int = 6  # r: grid refinement depth per scale
    probe_depth: int = DEFAULT_PROBE_DEPTH  # g: extra generations deciding alive cells
    alpha_grid: Tuple[float, ...] = DEFAULT_ALPHA_GRID
    eps_grid: Tuple[float, ...] = DEFAULT_EPS_GRID
    replicas: int = 20  # paths / ensemble replicas / trees, per kind
    workers: int = 1
    out_dir: str = "results"
    alpha: float = 0.25  # focal alpha for the covariance kind
    lags: Tuple[int, ...] = (0, 1, 2, 4, 6, 8)
    depths: Tuple[int, ...] = tuple(range(4, 13))
    resolutions: Tuple[int, ...] = (4, 8)
    slab_axis: int = 0
    slab_position: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def config(self) -> PercolationConfig:
        return PercolationConfig(m=self.m, k=self.k, p=self.p, seed=self.seed)


def spec_from_dict(data: dict) -> ExperimentSpec:
    if "spec" in data and isinstance(data["spec"], dict):
        data = data["spec"]  # accept a run manifest as input
    known = {f for f in ExperimentSpec.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    if "kind" not in data:
        raise ValueError("spec must declare a kind")
    # JSON lists become tuples; spec_errors reports any field of the wrong type
    clean = {key: tuple(v) if isinstance(v, list) else v for key, v in data.items()}
    return ExperimentSpec(**clean)


def _has_type_of(value, like) -> bool:
    """True when ``value`` has the JSON type of ``like``; no field is boolean."""
    if isinstance(value, bool):
        return False
    if isinstance(like, int):
        return isinstance(value, numbers.Integral)
    if isinstance(like, float):
        return isinstance(value, numbers.Real)
    return isinstance(value, str)


def _type_errors(spec: ExperimentSpec) -> List[str]:
    """Fields whose value does not have the type of the field's default."""
    names = {int: ("an integer", "integers"), float: ("a number", "numbers"), str: ("a string",)}
    errors = []
    for f in fields(ExperimentSpec):
        like = "" if f.default is MISSING else f.default  # kind: a string
        value = getattr(spec, f.name)
        if isinstance(like, tuple):
            ok = isinstance(value, tuple) and all(_has_type_of(v, like[0]) for v in value)
            want = "a list of " + names[type(like[0])][1]
        else:
            ok = _has_type_of(value, like)
            want = names[type(like)][0]
        if not ok:
            errors.append(f"{f.name} must be {want}, got {value!r}")
    return errors


def _depths(spec: ExperimentSpec) -> Tuple[int, int]:
    """A run's count-grid resolution and deepest level; dimension-slope builds no grid."""
    r = {"slice-decay": max(spec.resolutions), "dimension-slope": 0}.get(spec.kind, spec.resolution)
    return r, max(spec.depths) if spec.kind == "dimension-slope" else r + spec.probe_depth


def spec_errors(spec: ExperimentSpec) -> List[str]:
    """Hard bound violations; any entry makes the spec unusable."""
    errors = _type_errors(spec)
    if errors:
        return errors  # the range checks below assume the right types
    if spec.kind not in KINDS:
        errors.append(f"kind must be one of {KINDS}, got {spec.kind!r}")
    try:
        spec.config()
    except ValueError as exc:  # m, k and p
        errors.append(str(exc))
    if spec.k > sys.float_info.max:  # every kind reads k as a float
        errors.append(f"k must be at most {sys.float_info.max:.4g}, the largest float")
    if spec.scales < 1:
        errors.append("scales must be >= 1")
    if spec.resolution < 1:
        errors.append("resolution must be >= 1")
    if spec.probe_depth < 0:
        errors.append("probe_depth must be >= 0")
    if spec.replicas < 1:
        errors.append("replicas must be >= 1")
    if spec.kind == "ensemble" and spec.replicas < 2:
        errors.append("ensemble needs replicas >= 2 for a confidence interval")
    if spec.workers < 1:
        errors.append("workers must be >= 1")
    if any(not 0.0 < a <= 1.0 for a in spec.alpha_grid) or not spec.alpha_grid:
        errors.append("alpha_grid must be a nonempty list of entries in (0, 1]")
    if not 0.0 < spec.alpha <= 1.0:
        errors.append("alpha must lie in (0, 1]")
    # a float's range, not just finiteness: an integer entry past it cannot be written
    if any(not 0.0 < e <= sys.float_info.max for e in spec.eps_grid) or not spec.eps_grid:
        errors.append("eps_grid must be a nonempty list of finite entries > 0")
    if any(l < 0 for l in spec.lags) or not spec.lags:
        errors.append("lags must be a nonempty list of integers >= 0")
    if any(j < 1 for j in spec.depths) or len(set(spec.depths)) < 2:
        errors.append("depths must be a list of integers >= 1 with two or more distinct values")
    if any(r < 1 for r in spec.resolutions) or not spec.resolutions:
        errors.append("resolutions must be a nonempty list of integers >= 1")
    if not 0 <= spec.slab_axis < spec.m:
        errors.append("slab_axis out of range")
    if spec.resolutions:
        side = capped_power(spec.k, min(spec.resolutions), spec.slab_position)
        if not 0 <= spec.slab_position < side:
            errors.append("slab_position outside the coarsest slice grid")
    if spec.max_attempts < 1:
        errors.append("max_attempts must be >= 1")
    if not errors and spec.kind != "dimension-slope":  # dimension-slope weighs no mass
        try:  # k^(-depth d) grows with depth below the critical p
            finite = math.isfinite(mass_factor(spec.config(), _depths(spec)[1]))
        except OverflowError:
            finite = False
        if not finite:
            errors.append(f"resolution + probe_depth too deep at p={spec.p}: k^(-depth d) overflows")
    return errors


def validate(spec: ExperimentSpec) -> List[str]:
    """Advisory report: conditions worth a warning but not a refusal."""
    warnings = []
    config = spec.config()
    if not config.supercritical:
        warnings.append(
            f"p={spec.p} is at or below the critical value k^-m="
            f"{config.critical_probability:g}: the process dies out almost "
            f"surely and survival rejection will be slow or hopeless"
        )
    r, depth = _depths(spec)
    # the count grid or the expected deepest frontier, whichever is larger,
    # in floats: an exact k^(m r) of a deep spec is a huge integer
    try:
        fanout = float(spec.k) ** spec.m
        nodes = max(fanout ** r, fanout * (spec.p * fanout) ** (depth - 1))
    except OverflowError:  # past float range, so far past any budget
        nodes = math.inf
    budget = _max_nodes_default()
    concurrent = max(1, spec.workers)
    if nodes > budget:
        about = f"about {nodes:.3g}" if nodes < math.inf else "more than 1e308"
        warnings.append(
            f"a depth-{depth} run needs {about} nodes, above the "
            f"budget {budget}; it will likely fail (raise PERCOLAB_MAX_NODES)"
        )
    elif nodes * concurrent > budget * 4:
        warnings.append(
            f"{concurrent} workers x {nodes} nodes is a large resident "
            f"set; consider fewer workers or a smaller resolution"
        )
    return warnings


# -- output helpers ------------------------------------------------------------


def _median(values) -> float:
    """``np.median`` of a nonempty list of floats, read off one sort.

    It averages the middle pair with ``np.mean`` and returns NaN when a
    value is NaN, as ``np.median`` does, but never imports ``numpy.ma``.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if np.isnan(ordered[-1]):  # NaNs sort last
        return math.nan
    mid = ordered.size // 2
    return float(ordered[mid] if ordered.size % 2 else np.mean(ordered[mid - 1 : mid + 1]))


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_default(obj):
    """JSON form of the numpy values json cannot encode itself.

    numpy float64 subclasses float, so json already writes it as repr(float).
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
        fh.write("\n")


_BRACKET_STATS = ("estimate", "se", "ci_low", "ci_high")


# -- experiment kinds ----------------------------------------------------------
#
# Each kind maps a spec to ({csv name: (header, rows)}, summary, survival,
# replica seeds, error); ``run`` writes everything.  The error is the
# RejectionLimitError that cut a path batch short, or None.


def _sample_paths(spec: ExperimentSpec, n: int):
    """The path batch of a path kind: (paths, error)."""
    return run_path_batch_partial(
        spec.config(),
        paths=spec.replicas,
        n=n,
        r=spec.resolution,
        g=spec.probe_depth,
        workers=spec.workers,
        max_attempts=spec.max_attempts,
    )


def _path_provenance(paths) -> Tuple[dict, List[dict]]:
    """Survival statistics and per-replica seeds of a path batch."""
    total_attempts = int(sum(p.attempts for p in paths))
    survival = {
        "paths": len(paths),
        "total_attempts": total_attempts,
        "rejections": total_attempts - len(paths),
        "acceptance_rate": len(paths) / total_attempts if total_attempts else 0.0,
    }
    seeds = [
        {"replica": p.replica, "seed": p.tree_config.seed, "attempts": p.attempts}
        for p in paths
    ]
    return survival, seeds


def _tree_seeds(spec: ExperimentSpec, count: int) -> List[dict]:
    """Seeds of the first ``count`` plain ensemble trees."""
    config = spec.config()
    return [{"replica": i, "seed": ensemble_config(config, i).seed} for i in range(count)]


def _bracket_summary(alpha, lower, upper, kind: str, with_se: bool) -> dict:
    """Summary entry of one bracket pair; path-series entries carry the se."""

    def side(est) -> dict:
        entry = {"estimate": est.estimate, "ci": [est.ci_low, est.ci_high]}
        if with_se:
            entry["se"] = est.se
        return entry

    return {
        "alpha": alpha,
        "lower": side(lower),
        "upper": side(upper),
        "replicas": lower.replicas,
        "kind": kind,
    }


def _hole_sheets(p, alphas, epss) -> List[tuple]:
    """(alpha, lower, upper, measure) of one path per alpha; measure is (n, n_eps)."""
    return [
        (a, p.set_hole_lower(a), p.set_hole_upper(a), p.measure_hole(a, epss))
        for a in alphas
    ]


def _run_path_series(spec: ExperimentSpec):
    paths, err = _sample_paths(spec, spec.scales)
    sheets = [_hole_sheets(p, spec.alpha_grid, spec.eps_grid) for p in paths]
    tables = {
        "path_summary.csv": (
            ["replica", "seed", "attempts", "weight", "scales", "resolution", "probe_depth"],
            [
                (p.replica, p.tree_config.seed, p.attempts, p.weight, p.n, p.r, p.g)
                for p in paths
            ],
        ),
        "scales.csv": (
            [
                "replica",
                "seed",
                "scale",
                "x_hat",
                "total_mass",
                "a_star",
                "restricted_a_star",
                "set_porosity",
            ],
            [
                (
                    p.replica,
                    p.tree_config.seed,
                    j + 1,
                    p.x_hat[j],
                    mass,
                    p.a_star[j],
                    p.a_star[j],  # restricted_a_star: the center cell is always occupied
                    set_por,
                )
                for p in paths
                for j, (mass, set_por) in enumerate(zip(p.total_mass, p.set_porosity))
            ],
        ),
        "indicators.csv": (
            ["replica", "scale", "alpha", "eps", "set_lower", "set_upper", "measure_hole"],
            [
                (p.replica, j + 1, alpha, eps, lower[j], upper[j], measure[j, ie])
                for p, sheet in zip(paths, sheets)
                for j in range(p.n)
                for alpha, lower, upper, measure in sheet
                for ie, eps in enumerate(spec.eps_grid)
            ],
        ),
        "porosity.csv": (
            ["replica", "scale", "eps", "measure_porosity"],
            [
                (p.replica, j + 1, eps, value)
                for p in paths
                for j, row in enumerate(p.measure_porosity(spec.eps_grid))
                for eps, value in zip(spec.eps_grid, row)
            ],
        ),
    }
    summary = {"kind": spec.kind, "alphas": []}
    if len(paths) >= 2:
        for alpha in spec.alpha_grid:
            lower, upper = path_average_bracket(paths, alpha)
            entry = _bracket_summary(alpha, lower, upper, "path-average", with_se=True)
            summary["alphas"].append(entry)
        summary["mean_weight"] = float(np.mean([p.weight for p in paths]))
    return tables, summary, *_path_provenance(paths), err


def _run_ensemble(spec: ExperimentSpec):
    config = spec.config()
    weights, blocks = ensemble_sweep_parallel(
        config, spec.resolution, spec.probe_depth, spec.replicas, spec.workers
    )
    pairs = ensemble_from_sweep(config, spec.alpha_grid, spec.resolution, weights, blocks)
    kind = "importance-weighted"
    seeds = _tree_seeds(spec, spec.replicas)
    tables = {
        "ensemble.csv": (
            ["alpha"]
            + [f"{side}_{stat}" for side in ("lower", "upper") for stat in _BRACKET_STATS]
            + ["replicas", "r", "g", "kind"],
            [
                [alpha]
                + [getattr(est, stat) for est in (lo, up) for stat in _BRACKET_STATS]
                + [lo.replicas, spec.resolution, spec.probe_depth, kind]
                for alpha, (lo, up) in zip(spec.alpha_grid, pairs)
            ],
        ),
        "replica_sweep.csv": (
            ["replica", "seed", "weight", "a_star"],
            [
                (s["replica"], s["seed"], weights[i], blocks[i])
                for i, s in enumerate(seeds)
            ],
        ),
    }
    alive_fraction = float((weights > 0).mean())
    summary = {
        "kind": spec.kind,
        "alphas": [
            _bracket_summary(alpha, lo, up, kind, with_se=False)
            for alpha, (lo, up) in zip(spec.alpha_grid, pairs)
        ],
        "mean_weight": float(weights.mean()),
        "alive_fraction": alive_fraction,
    }
    survival = {"replicas": spec.replicas, "alive_fraction": alive_fraction}
    return tables, summary, survival, seeds, None


def _run_covariance(spec: ExperimentSpec):
    lags = tuple(sorted(set(spec.lags)))
    paths, err = _sample_paths(spec, max(lags) + 1)
    ests = []
    if len(paths) >= 2:
        ests = [covariance_from_paths(paths, spec.alpha, lag) for lag in lags]
    # one column per CovarianceEstimate field, in declaration order
    header = [f.name for f in fields(CovarianceEstimate)]
    tables = {"covariance.csv": (header, [astuple(est) for est in ests])}
    summary = {
        "kind": spec.kind,
        "alpha": spec.alpha,
        "lags": [
            {
                "lag": est.lag,
                "covariance": est.covariance,
                "se": est.se,
                "ci": [est.ci_low, est.ci_high],
                "replicas": est.replicas,
            }
            for est in ests
        ],
    }
    return tables, summary, *_path_provenance(paths), err


def _run_porosity_extremes(spec: ExperimentSpec):
    paths, err = _sample_paths(spec, spec.scales)
    extremes = [porosity_extremes(p, spec.eps_grid) for p in paths]
    tables = {
        "extremes.csv": (
            ["replica", "scale", "set_min", "set_max", "eps", "meas_min", "meas_max"],
            [
                (
                    p.replica,
                    j + 1,
                    ext.set_min[j],
                    ext.set_max[j],
                    eps,
                    ext.meas_min[j, ie],
                    ext.meas_max[j, ie],
                )
                for p, ext in zip(paths, extremes)
                for j in range(p.n)
                for ie, eps in enumerate(spec.eps_grid)
            ],
        )
    }
    summary = {"kind": spec.kind}
    if paths:
        summary.update(
            {
                "median_set_min": _median([e.set_min[-1] for e in extremes]),
                "median_set_max": _median([e.set_max[-1] for e in extremes]),
                "median_meas_max": {
                    repr(eps): _median([e.meas_max[-1, ie] for e in extremes])
                    for ie, eps in enumerate(spec.eps_grid)
                },
                "paths": len(paths),
            }
        )
    return tables, summary, *_path_provenance(paths), err


def _run_slice_decay(spec: ExperimentSpec):
    res = slice_decay(
        spec.config(),
        resolutions=spec.resolutions,
        trees=spec.replicas,
        g=spec.probe_depth,
        axis=spec.slab_axis,
        position=spec.slab_position,
        workers=spec.workers,
    )
    tables = {
        "slice.csv": (
            ["resolution", "trees", "surviving", "mean_fraction", "se"],
            [
                (r, res.trees, res.surviving[i], res.mean_fraction[i], res.se[i])
                for i, r in enumerate(res.resolutions)
            ],
        )
    }
    summary = {"kind": spec.kind, **asdict(res)}
    # a ratio onto a resolution whose mean slab fraction is 0 is nan: null
    ratios = res.observed_ratios.tolist()
    summary["observed_ratios"] = [None if math.isnan(x) else x for x in ratios]
    zeros = [r for r, x in zip(res.resolutions[1:], ratios) if math.isnan(x)]
    if zeros:
        summary["null_ratio_reason"] = (
            f"mean slab fraction 0 at resolution {', '.join(map(str, zeros))}: "
            "no surviving tree has mass in the slab there"
        )
    survival = {"trees": res.trees, "surviving": list(res.surviving)}
    return tables, summary, survival, _tree_seeds(spec, spec.replicas), None


def _run_dimension_slope(spec: ExperimentSpec):
    ds = dimension_slope(
        spec.config(), depths=spec.depths, trees=spec.replicas, workers=spec.workers
    )
    tables = {
        "dimension.csv": (
            ["depth", "mean_count", "log_k_mean", "trees", "candidates"],
            [
                (depth, ds.mean_counts[i], ds.log_means[i], ds.trees, ds.candidates)
                for i, depth in enumerate(ds.depths)
            ],
        )
    }
    summary = {
        "kind": spec.kind,
        "slope": ds.slope,
        "dimension": ds.dimension_value,
        "abs_error": abs(ds.slope - ds.dimension_value),
        "trees": ds.trees,
        "candidates": ds.candidates,
    }
    survival = {
        "trees": ds.trees,
        "candidates": ds.candidates,
        "survival_rate": ds.trees / ds.candidates if ds.candidates else 0.0,
    }
    return tables, summary, survival, _tree_seeds(spec, ds.candidates), None


_RUNNERS = {
    "path-series": _run_path_series,
    "ensemble": _run_ensemble,
    "covariance": _run_covariance,
    "porosity-extremes": _run_porosity_extremes,
    "slice-decay": _run_slice_decay,
    "dimension-slope": _run_dimension_slope,
}
KINDS = tuple(_RUNNERS)


def run(spec: ExperimentSpec) -> dict:
    """Execute one experiment and persist tables, summary, and manifest."""
    errors = spec_errors(spec)
    if errors:
        raise ValueError("; ".join(errors))
    # every alpha and eps is written as a float: 1 as 1.0
    grids = {name: tuple(map(float, getattr(spec, name))) for name in ("alpha_grid", "eps_grid")}
    spec = replace(spec, alpha=float(spec.alpha), **grids)
    budget = _max_nodes_default()
    if spec.replicas > budget:  # every kind lists one task per replica before any runs
        raise MemoryBudgetError(spec.replicas, budget)
    started = time.time()
    tables, summary, survival, seeds, err = _RUNNERS[spec.kind](spec)
    # made only now, so a run that raises (exit 3 or 4) leaves no directory
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    _write_json(out / "summary.json", summary)
    manifest = {
        "schema_version": _SCHEMA_VERSION,
        "tool": "percolab",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_clock_seconds": time.time() - started,
        "spec": asdict(spec),
        "outputs": list(tables) + ["summary.json"],
        "survival": survival,
        "replica_seeds": seeds,
        "partial": err is not None,
        "hash_kernel": hash_kernel(),
    }
    if err is not None:
        manifest["rejection_error"] = str(err)
    _write_json(out / "run_manifest.json", manifest)
    return manifest


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="percolab",
        description=(
            "Reproducible Monte Carlo experiments on random recursive "
            "subdivision sets, their natural mass, and multi-scale holes."
        ),
        epilog=(
            f"The expansion node budget defaults to {_DEFAULT_MAX_NODES} nodes and "
            "can be raised via the PERCOLAB_MAX_NODES environment variable."
        ),
    )
    parser.add_argument("--spec", help="path to a JSON spec (or a prior run manifest)")
    parser.add_argument("--kind", choices=KINDS, help="experiment kind (overrides spec)")
    parser.add_argument("--out", help="output directory (overrides spec)")
    parser.add_argument("--workers", type=int, help="process count (overrides spec)")
    parser.add_argument("--seed", type=int, help="master seed (overrides spec)")
    args = parser.parse_args(argv)

    data: dict = {}
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read spec {args.spec}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(data, dict):
            print("error: spec file must hold a JSON object", file=sys.stderr)
            return 2
    flags = {"kind": args.kind, "seed": args.seed, "workers": args.workers, "out_dir": args.out}
    overrides = {name: value for name, value in flags.items() if value is not None}

    try:
        # the flags stand in for fields the file lacks, then override the rest
        spec = replace(spec_from_dict({**overrides, **data}), **overrides)
        errors = spec_errors(spec)
        if errors:
            raise ValueError("; ".join(errors))
    except (TypeError, ValueError) as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 2

    for line in validate(spec):
        print(f"warning: {line}", file=sys.stderr)

    try:
        manifest = run(spec)
    except MemoryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RejectionLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    print(f"wrote {', '.join(manifest['outputs'])} to {spec.out_dir}")
    if manifest["partial"]:
        print(
            "warning: survival rejection exhausted; results are partial",
            file=sys.stderr,
        )
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
