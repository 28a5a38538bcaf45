"""Shared fixtures plus a terminal summary for the acceptance checklist.

Acceptance tests are named test_criterion_<id>_<slug> (the id may carry a
letter suffix when one criterion is split into sub-checks).  After the run,
one PASS/FAIL line per criterion id is printed; a criterion with several
sub-checks passes only if all of them do.
"""

import re
import sys
from collections import defaultdict

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

_CRITERION = re.compile(r"test_criterion_(\d+)([a-z]?)_([a-z0-9_]+)")

_LABELS = {
    1: "dimension slope",
    2: "martingale identities",
    3: "oracle equivalence",
    4: "bracket/monotonicity suite",
    5: "path-average vs ensemble cross-check",
    6: "indicator independence at lag >= r",
    7: "nondegenerate hole frequencies",
    8: "endpoint exactness",
    9: "set/measure sandwich",
    10: "discrepancy rate bound",
    11: "porosity extremes trends",
    12: "slice mass decay",
    13: "worker-count determinism",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = defaultdict(list)
    for outcome in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "nodeid", "")
            match = _CRITERION.search(name)
            if match:
                results[int(match.group(1))].append(outcome == "passed")
    if not results:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for cid in sorted(_LABELS):
        if cid not in results:
            writer.write_line(f"ACCEPTANCE {cid:>2}: NOT RUN — {_LABELS[cid]}")
            continue
        verdict = "PASS" if all(results[cid]) else "FAIL"
        writer.write_line(
            f"ACCEPTANCE {cid:>2}: {verdict} — {_LABELS[cid]}"
            f" ({sum(results[cid])}/{len(results[cid])} checks)"
        )


@pytest.fixture(scope="session")
def base_config():
    from percolab import PercolationConfig

    return PercolationConfig(m=2, k=2, p=0.8, seed=7)


@pytest.fixture(params=["numpy", "native"])
def body(request, monkeypatch, tmp_path):
    """Each body of the compiled loops in turn: "numpy" runs the numpy
    bodies of ``rng``'s hashing and count step and of ``holes``' stack
    geometry, "native" the compiled loops wherever they take the arrays."""
    from helpers import native_loops
    from percolab import rng

    loops = native_loops(tmp_path) if request.param == "native" else None
    monkeypatch.setattr(rng, "_loops", lambda: loops)
    return request.param
