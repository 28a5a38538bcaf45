"""Alternated parent/change runs of benchmarks/run.py, written as one BENCH_*.json.

Usage:
    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json
        [--set WORKLOAD:SEED:PAIRS[:trace] ...] [--seconds S]
        [--note TEXT]

Each side is a git revision of this repository, a commit or a tree;
``git archive`` unpacks it into a fresh directory, so each side runs its own
committed benchmark and sources.  To measure uncommitted work, stage it and
pass ``$(git write-tree)`` as the revision; the report's ``commits`` then
holds null for that side.

Every ``--set`` (default ``all:0:10``) runs PAIRS pairs of
``benchmarks/run.py --workload WORKLOAD --seed SEED --seconds S``, adding
``--trace 1`` when the set ends in ``:trace``.  The pairs alternate ABBA:
parent then change, change then parent, and so on, so that a drift of the
machine falls on both sides alike.  For each set the output holds the order,
every run's metrics and failures, each side's failed runs per workload, and,
per workload and metric, both sides' median and quartiles and the number of
pairs in which each side was better (the direction comes from
BENCHMARK.json).  Pairs in which either side failed are left out of those.

One resource probe per side runs the dimension-sparse spec at seed 0 as one
CLI process and records its wall time,
max RSS, minor page faults and user and system CPU from ``getrusage``.

Each run starts in a session of its own.  On SIGTERM or SIGINT the current
run's process group gets SIGTERM and is waited for, the scratch directory
is removed, nothing is written and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import suppress
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PROBE = "dimension-sparse"  # the workload whose memory the probe reads


def unpack(rev: str, dest: Path) -> Optional[str]:
    """Unpack the tree-ish ``rev`` of this repository into ``dest``; returns
    its commit, or None when ``rev`` names a tree and no commit."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", rev + "^{commit}"],
        capture_output=True, text=True,
    ).stdout.strip() or None
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit or rev],
        capture_output=True, check=True,
    ).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_in_session(cmd: List[str], **kwargs):
    """Run ``cmd`` in a session of its own; returns its exit code and rusage.

    If waiting is interrupted (a stop signal raises KeyboardInterrupt), the
    child's process group gets SIGTERM and is waited for before the
    exception goes on.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True, **kwargs)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the side's benchmarks/run.py; returns its --out result."""
    out = tree / "bench-result.json"
    try:
        cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)]
        code, _ = run_in_session(cmd, cwd=tree)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
    return {
        r["workload"]: {"metrics": r["metrics"], "attempted": r["attempted"],
                        "failed": r["failed"], "failures": r["failures"]}
        for r in result["results"]
    }


def probe(tree: Path, workload: str) -> dict:
    """getrusage of one CLI run of ``workload``'s seed-0 spec from ``tree``."""
    sys.path.insert(0, str(tree / "benchmarks"))
    try:
        import workloads

        spec = workloads.WORKLOADS[workload].spec(workloads.DEFAULT_SEED)
    finally:
        sys.path.pop(0)
        sys.modules.pop("workloads", None)
    with tempfile.TemporaryDirectory() as work:
        spec_path = Path(work) / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        env.pop("PERCOLAB_MAX_NODES", None)
        code = "import sys; from percolab import cli; sys.exit(cli.main(sys.argv[1:]))"
        start = time.monotonic()
        exit_code, usage = run_in_session(
            [sys.executable, "-c", code, "--spec", str(spec_path), "--out", str(Path(work) / "out")],
            env=env,
        )
        wall = time.monotonic() - start
    return {
        "workload": workload,
        "exit": exit_code,
        "wall_s": wall,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_page_faults": usage.ru_minflt,
        "user_cpu_s": usage.ru_utime,
        "system_cpu_s": usage.ru_stime,
    }


def _quartiles(values: List[float]) -> List[float]:
    """First and third quartiles."""
    return statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2


def summarize(pairs: List[dict], better: Dict[str, str]) -> dict:
    """Per workload: each side's failed runs over all pairs and, per metric,
    each side's median and quartiles over the clean pairs, and the clean
    pairs in which either side was better (a tie counts for neither).

    A pair is clean when neither side's run of the workload failed.  A side
    whose every timed run fails reports 0.0 for wall_s, throughput and
    peak_rss_mb, which would read as a win on the lower-is-better metrics.
    A metric missing from any clean pair is left out.
    """
    summary: Dict[str, dict] = {}
    for workload in pairs[0]["parent"]:
        runs = [{side: p[side][workload] for side in SIDES} for p in pairs]
        entry = summary[workload] = {
            "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES}
        }
        clean = [run for run in runs if not any(run[side]["failed"] for side in SIDES)]
        for metric, direction in better.items():
            values = {side: [run[side]["metrics"].get(metric) for run in clean]
                      for side in SIDES}
            if not clean or None in values["parent"] + values["change"]:
                continue
            sign = 1 if direction == "lower" else -1
            gaps = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            entry[metric] = {
                "parent_median": statistics.median(values["parent"]),
                "parent_q1_q3": _quartiles(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "change_q1_q3": _quartiles(values["change"]),
                "change_better_pairs": sum(gap > 0 for gap in gaps),
                "parent_better_pairs": sum(gap < 0 for gap in gaps),
                "pairs": len(clean),
            }
    return summary


def measure(args, better: Dict[str, str]):
    """Every set's pairs and both probes, from the sides unpacked in a scratch directory.

    Returns (commits, sets, probes).
    """
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        commits = {side: unpack(getattr(args, side), trees[side]) for side in SIDES}
        sets = []
        for text in args.sets or ["all:0:10"]:
            workload, seed, count, *flag = text.split(":")
            trace = flag == ["trace"]
            pairs, order = [], []
            for i in range(int(count)):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    order.append(f"{side} {i + 1}")
                    pair[side] = bench(trees[side], workload, int(seed), args.seconds, trace)
                    print(f"{text}: {order[-1]} done", file=sys.stderr)
                pairs.append(pair)
            sets.append({
                "command": f"python3 benchmarks/run.py --workload {workload} --seed {seed} "
                           f"--seconds {args.seconds:g}" + (" --trace 1" if trace else ""),
                "order": order,
                "summary": summarize(pairs, better),
                "pairs": pairs,
            })
        probes = {side: probe(trees[side], PROBE) for side in SIDES}
    return commits, sets, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--set", action="append", dest="sets",
                        help="WORKLOAD:SEED:PAIRS[:trace]; default all:0:10")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    # both stop signals unwind as Ctrl-C does (even where SIGINT was ignored
    # at start): the current run's group is stopped and waited for, and the
    # scratch directory is removed
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.default_int_handler)
    try:
        commits, sets, probes = measure(args, better)
    except KeyboardInterrupt:
        print("stopped: no report written", file=sys.stderr)
        return 1

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    report = {
        "tool": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "note": args.note,
        "environment": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
        },
        "commits": commits,
        "sets": sets,
        "rusage": probes,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
