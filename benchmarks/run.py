"""percolab benchmark: end-to-end CLI timings and a traced per-layer split.

Usage:
    python3 benchmarks/run.py --workload NAME|all [--seed N] [--seconds S]
                              [--trace 0|1] [--out FILE]

Every run of the program is a fresh ``percolab.cli`` process on a JSON spec
made from the workload seed (see workloads.py).  Each benchmark run first
gates the program: one run at the default workload seed whose digested
outputs must match the sha256 frozen in digests.json.  It then repeats the
workload for S seconds.

--trace 0 reports, as medians over the repeats:
    wall_s       process start to exit of one CLI run
    setup_s      process start until percolab is imported and the spec parsed
                 and validated, over the measured runs and a few set-up-only
                 launches
    throughput   work units per second of wall_s minus setup_s
    peak_rss_mb  largest peak resident set in the run's process tree (the CLI
                 process and any pool workers it reaped)
--trace 1 runs with workers=1, alternating plain and traced runs of the same
spec, and reports the per-layer metrics (spans.py) of the traced runs plus
trace.overhead_frac, the traced over the plain median wall, minus one.

A run fails when the CLI exits nonzero, its outputs are malformed, or its
digests differ from the frozen ones (default seed) or from the other runs of
the same spec.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --out also writes the full
result with the environment block.  The exit code is 0 whenever that line is
printed, failed runs included; it is 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

RUN_TIMEOUT_S = 120
MIN_REPEATS = 1
# Extra set-up-only launches per benchmark run, so that setup_s is a median
# of several samples even when one CLI run fills the measuring time.
SETUP_PROBES = 5


@dataclass
class Run:
    """One CLI process: its timings, output digests, problems and spans."""

    wall_s: float
    setup_s: float
    peak_rss_mb: float
    digests: Dict[str, str]
    problems: List[str]
    bytes_written: int = 0
    spans: list = field(default_factory=list)


def launch(spec: dict, work: Path, mode: str = "run") -> Run:
    """Run the CLI once on ``spec`` in a fresh process under ``work``.

    ``mode`` is "run", "trace" (record spans) or "setup" (stop once the spec
    is validated; there are no outputs to check).
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    spec_path, out, report_path = work / "spec.json", work / "out", work / "report.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env.pop("PERCOLAB_MAX_NODES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out),
           str(report_path), mode]
    with open(work / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, start_new_session=True
        )
        timer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    problems: List[str] = []
    report: dict = {}
    if code != 0:
        tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        problems.append(f"exit code {code}: {tail.strip()[-500:]}")
    else:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if mode != "setup":
            problems += workloads.check_outputs(spec, out)
    return Run(
        wall_s=end - start,
        setup_s=report.get("ready", end) - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        digests=workloads.digest_outputs(out) if code == 0 and mode != "setup" else {},
        problems=problems,
        bytes_written=report.get("bytes_written", 0),
        spans=report.get("spans", []),
    )


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Gate, then repeat one workload for ``seconds``; returns its result."""
    wl = workloads.WORKLOADS[name]
    spec = wl.spec(seed)
    gate_spec = wl.spec(workloads.DEFAULT_SEED)
    if trace:
        spec, gate_spec = {**spec, "workers": 1}, {**gate_spec, "workers": 1}

    frozen = workloads.frozen_digests()[name]
    gate = launch(gate_spec, work / "gate", "trace" if trace else "run")
    if frozen["spec"] != wl.spec(workloads.DEFAULT_SEED):
        gate.problems.append("digests.json was frozen for a different spec")
    gate.problems += workloads.digest_mismatches(gate.digests, frozen["files"])
    failures = [f"gate: {p}" for p in gate.problems]

    probes = [launch(spec, work / f"setup{i}", "setup") for i in range(SETUP_PROBES)]
    failures += [f"setup probe: {p}" for r in probes for p in r.problems]
    plain: List[Run] = []
    traced: List[Run] = []
    reference: Optional[Dict[str, str]] = frozen["files"] if seed == workloads.DEFAULT_SEED else None
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline or len(plain) < MIN_REPEATS:
        batch = [launch(spec, work / f"run{i}")]
        if trace:
            batch.append(launch(spec, work / f"run{i}t", "trace"))
        for run in batch:
            if reference is None and not run.problems:
                reference = run.digests
            if not run.problems and reference is not None:
                run.problems += workloads.digest_mismatches(run.digests, reference)
            failures += [f"run {i}: {p}" for p in run.problems]
        plain.append(batch[0])
        traced += batch[1:]
        i += 1

    ok = [r for r in plain if not r.problems]
    units = workloads.units(spec)
    samples = {
        "wall_s": [r.wall_s for r in ok],
        "setup_s": [r.setup_s for r in ok + probes if not r.problems],
        "throughput": [units / (r.wall_s - r.setup_s) for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
    }
    result = {
        "workload": name,
        "seed": seed,
        "spec": spec,
        "gate_spec": gate_spec,
        "unit": wl.unit,
        "attempted": 1 + len(probes) + len(plain) + len(traced),
        "failed": sum(1 for r in [gate] + probes + plain + traced if r.problems),
        "failures": failures,
    }
    if not trace:
        result["samples"] = samples
        result["metrics"] = {k: _median(v) for k, v in samples.items()}
        return result

    good = [r for r in traced if not r.problems]
    per_run = [spanlib.layer_metrics(r.spans, r.bytes_written) for r in good]
    per_run = per_run or [spanlib.layer_metrics([], 0)]  # all failed: report zeros
    metrics = {k: _median([m[k] for m in per_run]) for k in per_run[0]}
    metrics["trace.overhead_frac"] = (
        _median([r.wall_s for r in good]) / _median(samples["wall_s"]) - 1.0
        if good and ok else 0.0
    )
    shares = []
    for r in good:
        top = sum(d for s, d in zip(r.spans, spanlib.durations(r.spans)) if s[0] == "cli.run")
        shares.append({k: v / top for k, v in spanlib.layer_self_times(r.spans).items()})
    result["metrics"] = metrics
    result["layer_self_share"] = {
        layer: _median([s[layer] for s in shares]) for layer in spanlib.LAYERS
    }
    result["samples"] = {"plain_wall_s": samples["wall_s"],
                         "traced_wall_s": [r.wall_s for r in good]}
    return result


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(results: List[dict]) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": git_commit(),
        "workloads": {
            r["workload"]: {"seed": r["seed"], "spec": r["spec"], "gate_spec": r["gate_spec"]}
            for r in results
        },
    }


def metric_units(trace: bool) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def report(result: dict, units: Dict[str, str]) -> None:
    """Print one workload's metrics, by name and unit, for a person to read."""
    samples = result["samples"]
    print(f"{result['workload']}  seed={result['seed']}  runs={result['attempted']}"
          f" (1 gate, {SETUP_PROBES} set-up only)  failed={result['failed']}"
          f"  throughput unit: {result['unit']}")
    for line in result["failures"]:
        print(f"  FAIL {line}")
    for name, value in result["metrics"].items():
        extra = ""
        if name in samples:
            q1, _, q3 = _quartiles(samples[name])
            extra = f"   q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples[name])}"
        print(f"  {name:30s} {value:14.6g} {units[name]:8s}{extra}")
    if "layer_self_share" in result:
        shares = "  ".join(f"{k} {v:.1%}" for k, v in result["layer_self_share"].items())
        print(f"  self-time share of cli.run: {shares}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with environment, here")
    args = parser.parse_args(argv)

    if not (SRC / "percolab" / "cli.py").is_file():
        print(f"error: no percolab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = metric_units(bool(args.trace))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        results = [measure(n, args.seed, args.seconds, bool(args.trace), work / n) for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    env = environment(results)
    print("environment: " + json.dumps(env, sort_keys=True))
    for result in results:
        if set(result["metrics"]) != set(units):
            raise RuntimeError(f"metrics {sorted(result['metrics'])} != declared {sorted(units)}")
        report(result, units)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "trace": args.trace, "seconds": args.seconds,
                       "results": results}, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def tagged(result):
        return {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}

    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": tagged(results[0]) if len(results) == 1
        else {r["workload"]: tagged(r) for r in results},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
