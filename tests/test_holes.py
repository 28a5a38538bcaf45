"""Grid kernels against brute-force oracles, plus geometry fixtures.

The empty-block map and the window sweeps, both read off one summed-area
table, are the kernels everything else trusts, so they get exhaustive and
randomized oracles.  The frozen
histogram below pins the exhaustive 4x4 answer independently of both
implementations (its tail entries are hand-checkable: exactly one grid has
a* = 0 and one has a* = 4, and inclusion-exclusion over the four 3x3
placements gives 447 grids with a* >= 3).
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _ball_cells,
    ball_box_sweep,
    ball_measure_porosity,
    ball_set_porosity,
    brute_empty_block_sides,
    brute_max_empty_block,
    brute_min_window_sum,
    discrepancy,
    hole_bracket,
    native_loops,
    pack_all_grids,
)
from percolab import PercolationConfig, holes
from percolab import rng as rng_module
from percolab.errors import ZeroMassError
from percolab.holes import (
    ball_box,
    ball_porosities,
    cells_threshold,
    empty_block_sides,
    gap_porosity,
    max_empty_block,
    measure_hole_indicators,
    restricted_max_empty_block,
    set_hole_indicators,
    stack_geometry,
    window_min_sweep,
)
from percolab.qsampler import sample_qpath

# a* value -> number of 4x4 grids, over all 65536
FROZEN_4X4_HISTOGRAM = [1, 42175, 22913, 446, 1]


# -- empty blocks --------------------------------------------------------------


def test_exhaustive_4x4_histogram_frozen():
    grids = pack_all_grids(4)
    vals = max_empty_block(grids, spatial=2)
    assert np.bincount(vals, minlength=5).tolist() == FROZEN_4X4_HISTOGRAM


def test_exhaustive_4x4_against_brute_subsample():
    # the full 65536-grid brute comparison runs in the acceptance suite;
    # here a fixed 1000-grid subsample keeps the unit cycle fast
    grids = pack_all_grids(4)
    vals = max_empty_block(grids, spatial=2)
    rng = np.random.default_rng(123)
    for i in rng.choice(65536, 1000, replace=False):
        assert vals[i] == brute_max_empty_block(grids[i])


def test_dp_sides_match_brute_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(300):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(1, 9, size=ndim))
        occ = rng.random(shape) < rng.uniform(0.1, 0.7)
        assert np.array_equal(empty_block_sides(occ), brute_empty_block_sides(occ))


@pytest.mark.parametrize("spatial", [0, 3])
def test_empty_block_sides_refuses_spatial_out_of_range(spatial):
    with pytest.raises(ValueError, match="out of range"):
        empty_block_sides(np.zeros((4, 4), dtype=bool), spatial)
    with pytest.raises(ValueError, match="out of range"):
        max_empty_block(np.zeros((4, 4), dtype=bool), spatial)


def test_max_empty_block_edge_cases():
    assert max_empty_block(np.zeros((5, 5), dtype=bool)) == 5
    assert max_empty_block(np.ones((5, 5), dtype=bool)) == 0
    assert max_empty_block(np.zeros((3, 7), dtype=bool)) == 3  # ragged extents
    assert max_empty_block(np.zeros((1,), dtype=bool)) == 1
    one = np.zeros((4, 4), dtype=bool)
    one[2, 1] = True
    assert max_empty_block(one) == brute_max_empty_block(one)


def test_batch_axis_gives_per_batch_maxima():
    rng = np.random.default_rng(11)
    batch = rng.random((40, 6, 6)) < 0.4
    vals = max_empty_block(batch, spatial=2)
    assert vals.shape == (40,)
    for i in range(40):
        assert vals[i] == brute_max_empty_block(batch[i])


def test_restricted_forces_center():
    occ = np.zeros((8, 8), dtype=bool)
    assert max_empty_block(occ) == 8
    # forcing the center occupied splits the empty space
    restricted = restricted_max_empty_block(occ, (4, 4))
    forced = occ.copy()
    forced[4, 4] = True
    assert restricted == brute_max_empty_block(forced) == 4
    # when the center is already occupied the two notions coincide
    occ[4, 4] = True
    assert restricted_max_empty_block(occ, (4, 4)) == max_empty_block(occ)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30 - 1), st.integers(2, 6), st.integers(2, 6))
def test_dp_matches_brute_hypothesis(code, n0, n1):
    rng = np.random.default_rng(code)
    occ = rng.random((n0, n1)) < rng.uniform(0, 1)
    assert max_empty_block(occ) == brute_max_empty_block(occ)


# -- window sums ---------------------------------------------------------------


def test_window_sums_match_brute():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(2, 7, size=ndim))
        cells = rng.random(shape)
        counts = rng.integers(0, 50, size=shape) * (rng.random(shape) < 0.6)
        sweep = window_min_sweep(cells)
        exact = window_min_sweep(counts)  # int64 grids take the compiled loop
        small = window_min_sweep(counts.astype(np.uint8))  # and narrower ones the numpy body
        for a in range(1, min(shape) + 1):
            assert sweep[a] == pytest.approx(brute_min_window_sum(cells, a), rel=1e-12)
            assert exact[a] == small[a] == brute_min_window_sum(counts, a)


def test_window_sums_stay_exact_past_int32():
    """Sums of 2^31 and more are exact: the table widens before it could wrap."""
    unit = 1 << 26
    big = np.full((8, 8), unit, dtype=np.int64)  # the grid total is 2^32
    assert window_min_sweep(big).tolist() == [a * a * unit for a in range(9)]
    assert window_min_sweep(-big)[8] == -64 * unit
    stack = np.stack([np.ones((8, 8), dtype=np.int64), big])
    _, sweeps, balls, counts = stack_geometry(stack, [(0, 0), (4, 4)])
    assert sweeps[:, 8].tolist() == [64, 64 * unit]
    assert counts.tolist() == [4, 9 * unit]  # boxes 0..1 and 3..5 on each axis
    assert balls[1, :4].tolist() == [0, unit, 4 * unit, 9 * unit]


def test_min_window_sum_values_and_range():
    cells = np.arange(16, dtype=np.float64).reshape(4, 4)
    assert window_min_sweep(cells)[2] == pytest.approx(cells[:2, :2].sum())
    assert window_min_sweep(cells[::-1, ::-1])[2] == pytest.approx(cells[:2, :2].sum())
    assert window_min_sweep(cells)[4] == pytest.approx(cells.sum())
    # one entry per side 0..4: no window is wider than the grid
    assert window_min_sweep(cells).shape == (5,)
    assert window_min_sweep(cells)[0] == 0.0


def test_window_min_sweep_properties():
    rng = np.random.default_rng(9)
    cells = rng.random((6, 6))
    sweep = window_min_sweep(cells)
    assert sweep.shape == (7,)
    assert sweep[0] == 0.0
    assert np.all(np.diff(sweep) >= 0)  # larger windows carry more mass
    assert sweep[6] == pytest.approx(cells.sum())
    for a in range(1, 7):
        assert sweep[a] == pytest.approx(brute_min_window_sum(cells, a))


# -- thresholds and brackets -----------------------------------------------------


def test_cells_threshold_basics():
    assert cells_threshold(0.25, 16) == 4
    assert cells_threshold(0.26, 16) == 5
    assert cells_threshold(1.0, 64) == 64
    assert cells_threshold(1 / 64, 64) == 1
    assert cells_threshold(0.005, 64) == 1  # ceil(0.32)


def test_cells_threshold_float_noise_backoff():
    # 0.1+0.1+0.1 > 0.3 in floats; the back-off keeps the integer answer
    alpha = 0.1 + 0.1 + 0.1
    assert cells_threshold(alpha, 10) == 3
    assert cells_threshold(0.05 * 13, 20) == 13
    # a genuine excess above the grid point must still round up
    assert cells_threshold(0.301, 10) == 4


def test_cells_threshold_monotone_in_alpha():
    side = 64
    alphas = np.linspace(0.001, 1.0, 997)
    thrs = [cells_threshold(float(a), side) for a in alphas]
    assert all(t1 <= t2 for t1, t2 in zip(thrs, thrs[1:]))


def _bracket(occ, alpha):
    """(lower, upper) of one grid from the package's kernels, center at side // 2."""
    occ = np.asarray(occ, dtype=bool)
    side = occ.shape[0]
    thr = cells_threshold(alpha, side)
    lower = set_hole_indicators(restricted_max_empty_block(occ, (side // 2,) * occ.ndim), thr)[0]
    return int(lower), int(set_hole_indicators(max_empty_block(occ), thr)[1])


def test_hole_bracket_order_and_extremes():
    rng = np.random.default_rng(21)
    for _ in range(200):
        occ = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
            lo, up = _bracket(occ, alpha)
            assert 0 <= lo <= up <= 1


def test_hole_bracket_full_and_empty_grids():
    full = np.ones((16, 16))
    assert _bracket(full, 0.25) == (0, 0)
    assert _bracket(full, 1.0) == (0, 0)
    # alpha at one cell: upper asks for a* >= 0, which always holds
    assert _bracket(full, 1 / 16) == (0, 1)
    empty = np.zeros((16, 16))
    lo, up = _bracket(empty, 0.5)
    assert (lo, up) == (1, 1)
    # a gap spanning everything but the forced center: lower caps at side/2
    assert _bracket(empty, 1.0) == (0, 1)


def test_hole_bracket_monotone_in_alpha_and_bracket_respecting():
    rng = np.random.default_rng(2)
    alphas = [0.05 * t for t in range(1, 20)] + [1.0]
    thresholds = np.array([cells_threshold(a, 16) for a in alphas])
    for _ in range(50):
        occ = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        lower = set_hole_indicators(restricted_max_empty_block(occ, (8, 8)), thresholds)[0]
        upper = set_hole_indicators(max_empty_block(occ), thresholds)[1]
        assert np.all(np.diff(lower) <= 0)
        assert np.all(np.diff(upper) <= 0)
        assert np.all(lower <= upper)
        # bracket-respecting monotonicity across different alphas
        for i, a in enumerate(alphas):
            assert (lower[i], upper[i]) == hole_bracket(occ, a)
            for j, b in enumerate(alphas):
                if b >= a:
                    assert lower[j] <= upper[i]


def test_g_refinement_grows_certificates():
    # dropping occupied cells (deeper probe) can only grow empty blocks
    rng = np.random.default_rng(31)
    for _ in range(100):
        coarse = rng.random((16, 16)) < 0.5
        fine = coarse & (rng.random((16, 16)) < 0.7)  # refinement: subset
        assert max_empty_block(fine) >= max_empty_block(coarse)
        lo_c, up_c = _bracket(coarse, 0.3)
        lo_f, up_f = _bracket(fine, 0.3)
        assert lo_f >= lo_c and up_f >= up_c


# -- measure holes -------------------------------------------------------------


def _measure_hole(cells, alpha, eps):
    """Measure-hole indicator of one grid at relative scale alpha."""
    thr = cells_threshold(alpha, cells.shape[0])
    return int(measure_hole_indicators(window_min_sweep(cells), thr, eps))


def test_measure_hole_indicator_basics():
    cells = np.ones((8, 8))
    cells[:4, :4] = 0.0  # an exactly massless quadrant
    assert _measure_hole(cells, 0.5, 0.0) == 1
    assert _measure_hole(cells, 0.625, 1e-6) == 0  # 5x5 must overlap mass
    assert _measure_hole(cells, 1.0, 0.99) == 0
    assert _measure_hole(cells, 1.0, 1.0) == 1
    # a ladder of thresholds against a grid of eps in one call
    thresholds = np.array([0, 4, 5, 8])
    ladder = measure_hole_indicators(window_min_sweep(cells), thresholds[:, None], (0.0, 1.0))
    assert ladder.shape == (4, 2) and ladder.dtype == np.int8
    assert ladder.tolist() == [[1, 1], [1, 1], [0, 1], [0, 1]]


def test_measure_hole_monotone_in_eps_and_alpha():
    rng = np.random.default_rng(17)
    cells = rng.random((16, 16)) * (rng.random((16, 16)) < 0.5)
    for alpha in (0.2, 0.4, 0.8):
        vals = [_measure_hole(cells, alpha, e) for e in (1e-4, 1e-2, 1e-1, 1.0)]
        assert vals == sorted(vals)  # easier to be a hole with larger eps
    for eps in (1e-3, 1e-1):
        vals = [_measure_hole(cells, a, eps) for a in (0.1, 0.3, 0.6, 1.0)]
        assert vals == sorted(vals, reverse=True)


def test_measure_hole_zero_mass_raises():
    with pytest.raises(ZeroMassError):
        _measure_hole(np.zeros((4, 4)), 0.5, 0.1)


def test_set_lower_implies_measure_hole():
    # a certified empty block is in particular a massless window
    rng = np.random.default_rng(23)
    for _ in range(100):
        occ_cells = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        mass_cells = np.where(occ_cells, rng.random((16, 16)), 0.0)
        if mass_cells.sum() == 0:
            continue
        for alpha in (0.1, 0.3, 0.5):
            lo, _ = _bracket(occ_cells, alpha)
            if lo:
                assert _measure_hole(mass_cells, alpha, 0.0) == 1


def test_discrepancy_indicator_bounds_measure_minus_upper():
    cfg = PercolationConfig(2, 2, 0.8, seed=29)
    alpha, eps, delta = 0.4, 1e-3, 0.1
    for replica in range(4):
        path = sample_qpath(cfg, n=25, r=4, g=3, replica=replica)
        v = path.measure_hole(alpha, eps)
        up = path.set_hole_upper(alpha - delta)
        disc = discrepancy(path, alpha, eps, delta)
        assert set(disc.tolist()) <= {0, 1}
        assert np.all(v <= up + disc)  # the pointwise sandwich the rate bound relies on


def test_discrepancy_indicator_validates_delta():
    cfg = PercolationConfig(2, 2, 0.8, seed=29)
    path = sample_qpath(cfg, n=2, r=2, g=2, replica=0)
    with pytest.raises(ValueError):
        discrepancy(path, 0.3, 1e-3, 0.3)
    with pytest.raises(ValueError):
        discrepancy(path, 0.3, 1e-3, 0.0)


# -- ball porosities -----------------------------------------------------------


def test_ball_box_geometry():
    lo, hi = ball_box((8, 8), (16, 16), 4.0)
    assert lo == (5, 5) and hi == (11, 11)  # 7 = 2 * 4 - 1 cells across
    lo, hi = ball_box((32, 32), (64, 64), 16.0)
    assert hi[0] - lo[0] + 1 == 31
    # clipping at the boundary
    lo, hi = ball_box((0, 0), (16, 16), 4.0)
    assert lo == (0, 0) and hi == (3, 3)
    # sub-cell radius leaves no whole cell
    lo, hi = ball_box((5,), (16,), 0.4)
    assert hi[0] < lo[0]
    # ball faces on cell boundaries: the boundary cells lie inside
    assert ball_box((1,), (2,), 0.5) == ((1,), (1,))
    assert ball_box((3, 3), (6, 6), 1.5) == ((2, 2), (4, 4))


def _set_porosity(occ, center):
    """ball_porosities' set porosity with the center cell forced occupied."""
    counts = np.asarray(occ, dtype=np.int64)
    counts[center] = 1
    return gap_porosity(ball_porosities(counts, center)[0], 0, counts.shape[0] / 4.0)


def test_ball_set_porosity_fixtures():
    sides = 16
    center = (8, 8)  # radius sides / 4 = 4 cells
    # fully empty ball except the forced center: gap of 4 cells at radius 4
    occ = np.zeros((sides, sides), dtype=bool)
    assert _set_porosity(occ, center) == pytest.approx(0.5 * 3 / 4)
    assert ball_set_porosity(occ, center, 4.0) == pytest.approx(0.5 * 3 / 4)
    # fully occupied ball: no gap at all
    assert _set_porosity(np.ones((sides, sides), dtype=bool), center) == 0.0
    # an empty quadrant of the ball box: gap of 3 cells
    occ = np.ones((sides, sides), dtype=bool)
    occ[5:8, 5:8] = False
    assert _set_porosity(occ, center) == pytest.approx(0.5 * 3 / 4)


def test_ball_set_porosity_respects_structural_cap():
    rng = np.random.default_rng(41)
    for _ in range(200):
        occ = rng.random((16, 16)) < rng.uniform(0.0, 0.6)
        v = _set_porosity(occ, (8, 8))
        assert 0.0 <= v <= 0.5 + 1 / 8  # a <= R + 1 once the center is forced
        assert v == pytest.approx(ball_set_porosity(occ, (8, 8), 4.0))


def test_ball_measure_porosity_point_mass():
    counts = np.zeros((16, 16), dtype=np.int64)
    counts[8, 8] = 1  # all mass on the center cell
    # windows missing the center are massless; the largest such is 3 wide;
    # with eps = 1 every window qualifies, up to the full 7-wide box
    sweep, count = ball_porosities(counts, (8, 8))
    assert gap_porosity(sweep, 0.0 * count, 4.0) == pytest.approx(0.5 * 3 / 4)
    assert gap_porosity(sweep, 1.0 * count, 4.0) == pytest.approx(0.5 * 7 / 4)


def test_ball_measure_porosity_zero_mass_raises():
    # a massless ball has no marked point, so ball_porosities refuses it and
    # every recorded box count is positive
    with pytest.raises(ValueError):
        ball_porosities(np.zeros((16, 16), dtype=np.int64), (8, 8))


def test_gap_porosity_threshold_semantics():
    sweep = np.array([0.0, 0.0, 0.1, 0.5, 2.0])
    assert gap_porosity(sweep, 0.05, 4.0) == pytest.approx(0.5 * 1 / 4)
    assert gap_porosity(sweep, 0.1, 4.0) == pytest.approx(0.5 * 2 / 4)
    assert gap_porosity(sweep, 3.0, 4.0) == pytest.approx(0.5)
    # limits with a trailing length-1 axis read one porosity each
    limits = np.array([[0.05], [0.1], [3.0]])
    assert gap_porosity(sweep, limits, 4.0).tolist() == [0.125, 0.25, 0.5]


@pytest.mark.parametrize("m,side", [(1, 7), (2, 4), (2, 6), (2, 9), (3, 4), (3, 5)])
def test_stack_geometry_matches_one_grid_kernels_and_box_oracle(m, side):
    """One sweep of a stack equals the one-grid kernels and the sliced box.

    Every center sits at a corner, on an edge or face, or in the middle
    (each coordinate 0, side // 2 or side - 1), so the boxes are clipped on
    no side, one side or both, and most of them are not cubes.
    """
    rng = np.random.default_rng(side + 10 * m)
    centers = np.array(list(product((0, side // 2, side - 1), repeat=m)))
    stack = rng.integers(0, 9, size=(len(centers),) + (side,) * m)
    stack *= rng.random(stack.shape) < rng.uniform(0.2, 0.8, size=(len(centers),) + (1,) * m)
    stack[(np.arange(len(centers)),) + tuple(centers.T)] += 1  # each center holds the set
    a_star, sweeps, balls, counts = stack_geometry(stack, centers)
    assert balls.shape == (len(centers), side // 2 + 1)
    for grid, center, a, sweep, ball, count in zip(stack, centers, a_star, sweeps, balls, counts):
        assert a == max_empty_block(grid) == brute_max_empty_block(grid > 0)
        assert sweep.tolist() == window_min_sweep(grid).tolist()
        oracle, total = ball_box_sweep(grid, center)
        assert count == total
        assert ball[: oracle.size].tolist() == oracle.tolist()
        assert np.all(ball[oracle.size :] == np.iinfo(np.int64).max)
        one_sweep, one_count = ball_porosities(grid, center)
        assert one_sweep.tolist() == oracle.tolist() and one_count == total


def test_ball_porosities_joint_consistency():
    rng = np.random.default_rng(43)
    counts = rng.integers(1, 60, size=(16, 16)) * (rng.random((16, 16)) < 0.5)
    counts[8, 8] = 30  # the marked point's own cell is retained
    sweep, count = ball_porosities(counts, (8, 8))
    set_por = gap_porosity(sweep, 0, 4.0)
    meas = gap_porosity(sweep, count * np.array([[0.0], [1e-2], [1.0]]), 4.0)
    assert meas.shape == (3,)
    assert np.all(np.diff(meas) >= 0)  # monotone in eps
    assert set_por <= meas[0] + 1e-12  # empty blocks are massless windows
    assert set_por == pytest.approx(ball_set_porosity(counts > 0, (8, 8), 4.0))
    box = counts[5:12, 5:12]  # ball_box((8, 8), (16, 16), 4.0)
    assert count == box.sum() and np.array_equal(sweep, window_min_sweep(box))
    assert meas[1] == pytest.approx(gap_porosity(window_min_sweep(box), 1e-2 * box.sum(), 4.0))
    assert meas[1] == ball_measure_porosity(counts, (8, 8), 4.0, 1e-2)
    counts[8, 8] = 0  # a center without retained lines is not a set point
    with pytest.raises(ValueError):
        ball_porosities(counts, (8, 8))


def test_ball_porosities_keeps_a_float_box_count():
    # a mass grid's box count is its cells' float sum, not truncated to an int
    grid = np.random.default_rng(0).random((16, 16))
    sweep, count = ball_porosities(grid, (3, 3))
    box = _ball_cells(grid, (3, 3), 4.0)
    assert isinstance(count, float) and count == box.sum()
    assert sweep == pytest.approx(window_min_sweep(box), abs=1e-12)


# -- both bodies -------------------------------------------------------------------
#
# Each test below runs under both bodies (the ``body`` fixture): the compiled
# loops wherever they take the arrays, and the numpy bodies everywhere.


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("m,side", [(1, 1), (1, 9), (2, 2), (2, 7), (3, 3), (3, 6)])
def test_stack_geometry_matches_the_oracles(body, m, side, dtype):
    # every center at a corner, on an edge or face, or in the middle, so the
    # boxes are clipped at each face; at side 1 a box holds no cell
    rng = np.random.default_rng(side + 10 * m)
    centers = np.array(list(product(sorted({0, side // 2, side - 1}), repeat=m)))
    stack = rng.integers(0, 5, size=(len(centers),) + (side,) * m)
    stack *= rng.random(stack.shape) < 0.5
    stack[(np.arange(len(centers)),) + tuple(centers.T)] = 1  # each center holds the set
    stack = stack.astype(dtype)
    a_star, sweeps, balls, counts = stack_geometry(stack, centers)
    assert balls.shape == (len(centers), side // 2 + 1)
    for grid, center, a, sweep, ball, count in zip(stack, centers, a_star, sweeps, balls, counts):
        assert a == brute_max_empty_block(grid)
        assert sweep.tolist() == [0] + [brute_min_window_sum(grid, s) for s in range(1, side + 1)]
        oracle, total = ball_box_sweep(grid, center)
        assert count == total
        assert ball[: oracle.size].tolist() == oracle.tolist()
        assert np.all(ball[oracle.size :] == np.iinfo(np.int64).max)


_MAPS = [((9,), 1), ((3, 9), 1), ((5, 8), 2), ((3, 4, 7), 2), ((2, 3, 1, 6), 2),
         ((4, 6, 3), 3), ((2, 3, 5, 4), 3)]


@pytest.mark.parametrize("shape,spatial", _MAPS,
                         ids=["x".join(map(str, shape)) + f"-{m}d" for shape, m in _MAPS])
def test_empty_block_map_of_ragged_and_batched_grids_matches_the_oracle(body, shape, spatial):
    occ = np.random.default_rng(sum(shape)).random(shape) < 0.3
    grids = occ.reshape((-1,) + shape[len(shape) - spatial :])
    want = np.stack([brute_empty_block_sides(grid) for grid in grids]).reshape(shape)
    sides = empty_block_sides(occ, spatial)
    assert sides.dtype == np.int64 and np.array_equal(sides, want)
    spatial_axes = tuple(range(len(shape) - spatial, len(shape)))
    assert np.array_equal(max_empty_block(occ, spatial), want.max(axis=spatial_axes))


@pytest.mark.parametrize("dtype,value,table", [
    (np.uint16, 2047, np.int16), (np.uint16, 2048, np.int32),
    (np.uint32, 2**27 - 1, np.int32), (np.uint32, 2**27, np.int64),
    (np.int64, -2048, np.int32),
])
def test_sweeps_stay_exact_at_the_table_bounds(body, dtype, value, table):
    # 16 cells times the largest absolute cell, just below and just above
    # the bounds of an int16 and an int32 table, in unsigned cells (the
    # numpy body's) and int64 cells (the compiled loop's, at an int16 or
    # int32 table); the negative cells take the most of a column, the
    # others the least
    column = [0, 1, 2, 3, 3] if value < 0 else [0, 0, 0, 2, 3]
    for cells in (dtype, np.int64):
        stack = np.zeros((2, 4, 4), cells)
        stack[0] = value
        stack[1, 1:4, 2] = value
        assert holes._table_type(stack, range(1, 3)) is table
        _, sweeps, balls, counts = stack_geometry(stack, [(0, 0), (2, 2)])
        assert sweeps[0].tolist() == [a * a * value for a in range(5)]
        assert sweeps[1].tolist() == [c * value for c in column]
        assert counts.tolist() == [value, value]  # one-cell boxes at 0, 0 and 2, 2
        assert balls.tolist() == [[0, value, holes._PAD], [0, value, holes._PAD]]


def test_grids_without_cells(body):
    # an extent of 0 has no cell, no block and no window; the compiled loops
    # never see it
    assert max_empty_block(np.zeros((3, 0, 4), bool), 2).tolist() == [0, 0, 0]
    assert max_empty_block(np.zeros((0, 4, 4), bool), 2).shape == (0,)
    assert max_empty_block(np.zeros((0, 4), bool)) == 0
    sides = empty_block_sides(np.zeros((2, 0, 3), bool), 2)
    assert sides.shape == (2, 0, 3) and sides.dtype == np.int64
    assert window_min_sweep(np.zeros((0, 3), np.uint8)).tolist() == [0]
    sweeps, balls, counts = holes._stack_sweeps(np.zeros((2, 3, 0), np.uint16))
    assert sweeps.tolist() == [[0], [0]] and balls.shape == (0, 1) and counts.shape == (0,)
    for dtype in (np.uint8, np.int64):  # a stack of no grids
        a_star, sweeps, balls, counts = stack_geometry(np.zeros((0, 4, 4), dtype),
                                                       np.zeros((0, 2), int))
        assert [a_star.shape, sweeps.shape, balls.shape, counts.shape] == [(0,), (0, 5), (0, 3), (0,)]


def test_arrays_the_loops_cannot_take_go_to_the_numpy_body(body, monkeypatch):
    # the sweep loop takes contiguous writable int64 stacks and a box for
    # every grid or none; bool, unsigned, float, strided, read-only and
    # 4-axis stacks, and boxes for some grids only, go to the numpy body and
    # give what the loop gives for the same values, or the oracle
    swept = []
    loops = rng_module._loops()
    if loops is not None:
        sweep = loops["stack_sweeps"]
        monkeypatch.setattr(rng_module, "_loops", lambda: {
            **loops, "stack_sweeps": lambda *args: swept.append(1) or sweep(*args)})
    rng = np.random.default_rng(3)
    cells = rng.integers(0, 4, size=(2, 8, 8)) * (rng.random((2, 8, 8)) < 0.4)
    boxes = [(3, 3), (0, 7)]
    want = [s.tolist() for s in holes._stack_sweeps(cells, boxes)]
    occupied = [s.tolist() for s in holes._stack_sweeps((cells > 0).astype(np.int64), boxes)]
    assert len(swept) == (2 if body == "native" else 0)
    frozen = cells.copy()
    frozen.flags.writeable = False
    strided = np.repeat(cells, 2, axis=2)[:, :, ::2]
    unsigned = [cells.astype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)]
    assert [s.tolist() for s in holes._stack_sweeps(cells > 0, boxes)] == occupied
    for other in [*unsigned, frozen, strided]:
        assert [s.tolist() for s in holes._stack_sweeps(other, boxes)] == want
    assert window_min_sweep(cells[0].astype(float)).tolist() == want[0][0]
    sweeps, balls, counts = holes._stack_sweeps(cells, [(3, 3)])  # a box for one grid of two
    assert [sweeps.tolist(), balls.tolist(), counts.tolist()] == [want[0], want[1][:1], want[2][:1]]
    four = cells.reshape(2, 2, 2, 4, 4)
    for grid, sweep in zip(four, holes._stack_sweeps(four)[0]):
        assert sweep.tolist() == [0] + [brute_min_window_sum(grid, a) for a in (1, 2)]
    assert len(swept) == (2 if body == "native" else 0)
    occ = cells > 0
    want = empty_block_sides(occ, 2)
    assert np.array_equal(empty_block_sides(np.repeat(occ, 2, axis=2)[:, :, ::2], 2), want)
    frozen = occ.copy()
    frozen.flags.writeable = False
    assert np.array_equal(empty_block_sides(frozen, 2), want)
    four = rng.random((3, 2, 3, 2)) < 0.3
    assert np.array_equal(empty_block_sides(four), brute_empty_block_sides(four))


def test_path_stacks_take_the_compiled_geometry(monkeypatch, tmp_path):
    # a path's int64 stacks are swept and mapped by the compiled loops,
    # not only by the numpy bodies
    loops = native_loops(tmp_path)
    calls = []

    def spy(name):
        return lambda *args: calls.append(name) or loops[name](*args)

    monkeypatch.setattr(rng_module, "_loops", lambda: {**loops, **{
        name: spy(name) for name in ("stack_sweeps", "empty_block_sides")
    }})
    config = PercolationConfig(m=3, k=2, p=0.6, seed=1)
    sample_qpath(config, n=3, r=3, g=2)
    assert sorted(set(calls)) == ["empty_block_sides", "stack_sweeps"]
