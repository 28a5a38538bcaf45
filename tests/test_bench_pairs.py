"""tools/bench_pairs: medians, quartiles and pair wins of a BENCH file, and stopping a run."""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

BETTER = {"wall_s": "lower", "throughput": "higher"}


def _run(failed=0, **metrics):
    return {"metrics": metrics, "attempted": 5, "failed": failed, "failures": []}


def _pair(parent, change, workload="w"):
    return {"parent": {workload: parent}, "change": {workload: change}}


def test_wins_in_both_directions():
    pairs = [
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=1.0, throughput=20.0)),
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=3.0, throughput=5.0)),
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=1.5, throughput=11.0)),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    for metric in BETTER:
        assert summary[metric]["change_better_pairs"] == 2
        assert summary[metric]["parent_better_pairs"] == 1
        assert summary[metric]["pairs"] == 3
    assert summary["wall_s"]["parent_median"] == 2.0
    assert summary["wall_s"]["change_median"] == 1.5
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_ties_count_for_neither_side():
    pairs = [_pair(_run(wall_s=1.0, throughput=4.0), _run(wall_s=1.0, throughput=4.0))] * 2
    pairs.append(_pair(_run(wall_s=1.0, throughput=4.0), _run(wall_s=0.5, throughput=4.0)))
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    assert summary["wall_s"]["change_better_pairs"] == 1
    assert summary["wall_s"]["parent_better_pairs"] == 0
    assert summary["throughput"]["change_better_pairs"] == 0
    assert summary["throughput"]["parent_better_pairs"] == 0


def test_a_failed_side_is_no_win_and_stays_out_of_the_medians():
    # a side whose every timed run failed reports 0.0, the best lower-is-better value
    zeros = _run(failed=5, wall_s=0.0, throughput=0.0)
    pairs = [
        _pair(_run(wall_s=2.0, throughput=10.0), zeros),
        _pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=2.5, throughput=9.0)),
        _pair(_run(failed=1, wall_s=9.0, throughput=1.0), _run(wall_s=2.5, throughput=9.0)),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    assert summary["failed"] == {"parent": 1, "change": 5}
    for metric in BETTER:
        assert summary[metric]["change_better_pairs"] == 0
        assert summary[metric]["parent_better_pairs"] == 1
        assert summary[metric]["pairs"] == 1
    assert summary["wall_s"]["parent_median"] == 2.0
    assert summary["wall_s"]["change_median"] == 2.5


def test_every_pair_failed_leaves_only_the_failure_totals():
    pairs = [_pair(_run(wall_s=1.0), _run(failed=2, wall_s=0.0))] * 2
    assert bench_pairs.summarize(pairs, BETTER)["w"] == {"failed": {"parent": 0, "change": 4}}


def test_a_metric_missing_on_one_side_is_left_out():
    pairs = [_pair(_run(wall_s=2.0, throughput=10.0), _run(wall_s=1.0))] * 2
    summary = bench_pairs.summarize(pairs, BETTER)["w"]
    assert "throughput" not in summary
    assert summary["wall_s"]["change_better_pairs"] == 2


def test_unpack_takes_a_commit_or_a_staged_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=stub", "-c", "user.email=stub@localhost"]
    (repo / "f.txt").write_text("committed\n")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, check=True)
    (repo / "f.txt").write_text("staged\n")
    subprocess.run(git + ["add", "-A"], check=True)
    tree = subprocess.run(git + ["write-tree"], capture_output=True, text=True, check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    assert bench_pairs.unpack("HEAD", tmp_path / "commit") == head.stdout.strip()
    assert (tmp_path / "commit" / "f.txt").read_text() == "committed\n"
    assert bench_pairs.unpack(tree.stdout.strip(), tmp_path / "tree") is None
    assert (tmp_path / "tree" / "f.txt").read_text() == "staged\n"
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.unpack("no-such-rev", tmp_path / "missing")


# a benchmarks/run.py that starts a child in its process group, writes both
# pids and sleeps until it is stopped
STUB_RUN = """\
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
path = os.environ["STUB_PIDS"]
with open(path + ".part", "w") as fh:
    fh.write(f"{os.getpid()} {child.pid}")
os.replace(path + ".part", path)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_a_stop_signal_ends_the_current_run_and_removes_the_scratch(tmp_path, signum):
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "benchmarks").mkdir()
    shutil.copy(ROOT / "tools" / "bench_pairs.py", repo / "tools")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    (repo / "benchmarks" / "run.py").write_text(STUB_RUN)
    git = ["git", "-C", str(repo), "-c", "user.name=stub", "-c", "user.email=stub@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, check=True)
    scratch, pids, out = tmp_path / "tmp", tmp_path / "pids", tmp_path / "out.json"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch), STUB_PIDS=str(pids))
    cmd = [sys.executable, str(repo / "tools" / "bench_pairs.py"),
           "--parent", "HEAD", "--change", "HEAD", "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, stderr=subprocess.DEVNULL)
    stub_pids = []
    try:
        deadline = time.monotonic() + 60
        while not pids.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        stub_pids = [int(pid) for pid in pids.read_text().split()]
        assert all(_running(pid) for pid in stub_pids)
        proc.send_signal(signum)
        assert proc.wait(timeout=60) == 1
        # the stub itself was waited for; its child exits on the same signal
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in stub_pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in stub_pids)
        assert list(scratch.iterdir()) == [] and not out.exists()
    finally:  # a failing run leaves nothing behind either
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in stub_pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
