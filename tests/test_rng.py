"""Frozen golden values and scalar/vector agreement for the seed-hash RNG.

The mixer values below are part of the reproducibility contract: results
written by one version of the package must be reproducible by another, so a
silent change to the hashing breaks every stored manifest.  These literals
were computed once from the reference definitions and must never drift.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import native_loops, require_compiler, unmix64
from percolab import _native, rng
from percolab.rng import (
    _DRAW_SALT,
    _mix64_inplace,
    child_key,
    child_keys,
    mix64,
    seed_key,
    substream,
    unit_draw,
    unit_draws,
)

GOLDEN = {
    "mix64_0": 0,
    "mix64_1": 6238072747940578789,
    "mix64_max": 13029008266876403067,
    "seed_key_0": 16294208416658607535,
    "seed_key_42": 13679457532755275413,
    "child_0_of_42": 6332618229526065668,
    "child_3_of_42": 1242533817266198696,
    "substream_7_0": 13309476754707697221,
    "substream_7_123": 9629103888653098766,
}


def test_mixer_golden_values():
    assert mix64(0) == GOLDEN["mix64_0"]
    assert mix64(1) == GOLDEN["mix64_1"]
    assert mix64(2**64 - 1) == GOLDEN["mix64_max"]
    assert seed_key(0) == GOLDEN["seed_key_0"]
    assert seed_key(42) == GOLDEN["seed_key_42"]
    key = seed_key(42)
    assert child_key(key, 0) == GOLDEN["child_0_of_42"]
    assert child_key(key, 3) == GOLDEN["child_3_of_42"]
    assert substream(7, 0) == GOLDEN["substream_7_0"]
    assert substream(7, 1, 2, 3) == GOLDEN["substream_7_123"]


def test_unit_draw_golden_values():
    assert unit_draw(seed_key(0)) == pytest.approx(0.6704748394145446, abs=0)
    assert unit_draw(12345) == pytest.approx(0.946415868348853, abs=0)


def test_scalar_and_vector_mixers_agree():
    xs = np.array([0, 1, 2, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
    vec = _mix64_inplace(xs.copy())
    for x, v in zip(xs.tolist(), vec.tolist()):
        assert mix64(int(x)) == int(v)


def test_scalar_and_vector_children_agree(hash_body):
    key = seed_key(42)
    table = child_keys(np.array([key], dtype=np.uint64), 4)
    assert table.shape == (1, 4)
    for i in range(4):
        assert int(table[0, i]) == child_key(key, i)
    draws = unit_draws(table[0])
    for i in range(4):
        assert float(draws[i]) == unit_draw(child_key(key, i))


def test_draws_are_unit_interval(hash_body):
    keys = np.array([substream(9, i) for i in range(1000)], dtype=np.uint64)
    draws = unit_draws(keys)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
    # crude uniformity sanity: mean of 1000 u(0,1) draws within 5 sigma
    assert abs(draws.mean() - 0.5) < 5 * (1 / np.sqrt(12 * 1000))


def test_substream_separates_indices():
    seen = {substream(0, i) for i in range(100)}
    seen |= {substream(0, i, j) for i in range(10) for j in range(10)}
    assert len(seen) == 200  # no collisions across shapes at desk scale


def test_child_keys_match_nested_substreams():
    # child_key is the elementary step substream is built from
    assert substream(5, 2, 7) == child_key(child_key(seed_key(5), 2), 7)


def test_vector_kernels_leave_input_untouched(hash_body):
    keys = np.array([substream(9, i) for i in range(50)] + [0, 2**64 - 1], dtype=np.uint64)
    before = keys.tobytes()
    children = child_keys(keys, 3)
    draws = unit_draws(keys)
    mixed = _mix64_inplace(keys.copy())
    assert keys.tobytes() == before
    for i, key in enumerate(keys.tolist()):
        assert children[i].tolist() == [child_key(key, j) for j in range(3)]
        assert float(draws[i]) == unit_draw(key)
        assert int(mixed[i]) == mix64(key)


def test_unit_draws_at_the_edges_of_the_range(hash_body):
    # keys crafted so that their salted hash is each edge of the 64-bit range:
    # the low 11 bits are dropped, the top bit must not read as a sign, and
    # the largest draw is (2^53 - 1) / 2^53
    edges = {0: 0.0, 2**11 - 1: 0.0, 2**63: 0.5, 2**64 - 1: (2**53 - 1) / 2**53}
    keys = [unmix64(bits) ^ _DRAW_SALT for bits in edges]
    for key, bits in zip(keys, edges):
        assert mix64(key ^ _DRAW_SALT) == bits
    assert set(keys) <= set(_native._CHECK_KEYS)  # a compiled body is checked on them first
    expected = list(edges.values())
    assert [unit_draw(key) for key in keys] == expected
    assert unit_draws(np.array(keys, dtype=np.uint64)).tolist() == expected
    # between ordinary keys, and in a buffer the caller owns
    mixed = [substream(3, 0)] + keys + [substream(3, 1)]
    out, bits = np.empty(6), np.empty(6, dtype=np.uint64)
    got = unit_draws(np.array(mixed, dtype=np.uint64), out, bits)
    assert got is out and got.tolist() == [unit_draw(key) for key in mixed]
    assert got[1:5].tolist() == expected


def test_unmix64_inverts_the_finalizer():
    for x in (0, 1, 12345, 2**63, 2**64 - 1, substream(9, 4)):
        assert unmix64(mix64(x)) == x and mix64(unmix64(x)) == x


def test_strided_and_foreign_buffers_take_the_numpy_body(hash_body):
    # the compiled loops read and write only contiguous arrays of their dtype
    keys = np.array([substream(4, i) for i in range(12)], dtype=np.uint64)
    strided = keys[::3]
    children = np.empty((3, strided.size), dtype=np.uint64).T  # a transposed out
    got = child_keys(strided, 3, children)
    assert got is children
    assert got.tolist() == [[child_key(key, j) for j in range(3)] for key in strided.tolist()]
    draws = unit_draws(strided)
    assert draws.tolist() == [unit_draw(key) for key in strided.tolist()]
    # the compiled body reads addresses off writable buffers only
    frozen = keys.copy()
    frozen.flags.writeable = False
    assert np.array_equal(child_keys(frozen, 3), child_keys(keys.copy(), 3))
    assert unit_draws(frozen).tolist() == [unit_draw(key) for key in keys.tolist()]
    with pytest.raises(TypeError):  # the numpy body refuses an integer out
        unit_draws(keys, np.empty(keys.size, dtype=np.int64))
    # draws written one element past their keys: a loop in order would read
    # a draw it wrote as the next key
    buffer = np.append(keys, np.uint64(0))
    assert unit_draws(buffer[:-1], buffer[1:].view(np.float64)).tolist() == [
        unit_draw(key) for key in keys.tolist()
    ]


def _guarded(shape, offset, dtype):
    """A contiguous array of ``shape`` that starts ``offset`` + 1 elements
    into a buffer of 7s, and a test that the elements on each side of it
    are still 7."""
    size = int(np.prod(shape))
    buffer = np.full(size + offset + 2, 7, dtype=dtype)
    return buffer[offset + 1 : -1].reshape(shape), lambda: buffer[offset] == buffer[-1] == 7


@pytest.fixture(scope="module")
def plain_loops(tmp_path_factory):
    """The loops a compiler that fails the vector clones' guard builds."""
    require_compiler()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_COMPILE", (*_native._COMPILE, "-D__clang__"))
        loops = _native._load(tmp_path_factory.mktemp("plain"))
    assert loops is not None, "the plain loops did not build, load or pass their check"
    return loops


def _use_build(build, request, monkeypatch, tmp_path):
    """Make the "dispatched" build (vector clones where the compiler has
    them) or the "plain" build this process's compiled loops."""
    loops = request.getfixturevalue("plain_loops") if build == "plain" else native_loops(tmp_path)
    monkeypatch.setattr(rng, "_loops", lambda: loops)


@pytest.mark.parametrize("fanout", [2, 3, 4, 8, 9])
@pytest.mark.parametrize("build", ["dispatched", "plain"])
def test_compiled_loops_match_the_numpy_body(request, tmp_path, monkeypatch, build, fanout):
    # the specialised fanouts 4 and 8 and the generic loop, at every
    # count 0..33 of keys and at views one element apart, so that vector
    # loops run with no, part and whole vectors at either alignment; the
    # element on each side of every output stays untouched
    _use_build(build, request, monkeypatch, tmp_path)
    pool = np.array([substream(6, i) for i in range(35)], dtype=np.uint64)
    for n in range(34):
        for offset in (0, 1):
            keys = pool[offset : offset + n]
            want = rng._numpy_child_keys(keys, fanout, np.empty((n, fanout), np.uint64), None)
            out, untouched = _guarded((n, fanout), offset, np.uint64)
            assert child_keys(keys, fanout, out) is out
            assert np.array_equal(out, want) and untouched(), (n, offset)
            for batch in (keys, want.ravel()):
                bits = rng._numpy_unit_draws(batch, np.empty(batch.size)).view(np.uint64)
                drawn, untouched = _guarded(batch.shape, offset, np.float64)
                assert unit_draws(batch, drawn) is drawn
                assert np.array_equal(drawn.view(np.uint64), bits) and untouched(), (n, offset)


def _parent_of_draw(bits: int) -> int:
    """A key whose child 0 draws ``bits`` / 2^53."""
    child = unmix64(bits << 11) ^ _DRAW_SALT
    return (unmix64(child) - rng.GOLDEN) & rng.MASK64


@pytest.mark.parametrize("fanout", [2, 3, 4, 8, 9])
@pytest.mark.parametrize("build", ["dispatched", "plain"])
def test_compiled_count_matches_the_numpy_body(request, tmp_path, monkeypatch, build, fanout):
    # every counting mode, at every count 0..33 of parents from either of
    # two offsets, against the numpy body.  At each p, the first parents'
    # children draw just below, at and just past p (the bound ceil(p 2^53),
    # its floor and its predecessor), so an off-by-one bound, compare or
    # shift shows.  The cell on each side of the cells stays untouched.
    _use_build(build, request, monkeypatch, tmp_path)
    ordinary = [substream(8, i) for i in range(35)]
    for p in (2.0**-53, 0.3, 0.7, 1.0):
        bound = math.ceil(p * 2**53)
        edges = sorted({b for b in (bound - 1, bound, math.floor(p * 2**53)) if b < 2**53})
        keys = np.array([_parent_of_draw(b) for b in edges] + ordinary, dtype=np.uint64)
        labels = 3 * np.arange(keys.size, dtype=np.int64) + 1  # sorted, with gaps
        size = int(labels[-1]) + 1
        for n in range(34):
            for offset in (0, 1):
                part = keys[offset : offset + n]
                for unit, cells in ((None, 1), (1, size), (2, size), (5, size), (0, size * fanout)):
                    mode = None if unit is None else labels[offset : offset + n]
                    want = np.full(cells, 7, np.int64)
                    total = rng._numpy_count_children(part, mode, fanout, p, unit or 0, want)
                    got, untouched = _guarded((cells,), offset, np.int64)
                    counted = rng.count_children(part, mode, fanout, p, unit or 0, got)
                    assert counted == total and np.array_equal(got, want), (p, n, offset, unit)
                    assert untouched(), (p, n, offset, unit)


def test_numpy_count_body_counts_across_slices(monkeypatch):
    # slices of 3 parents against one hashing pass over them all, in every
    # mode, at part of a slice, one slice and several, ending inside one
    monkeypatch.setattr(rng, "_loops", lambda: None)
    monkeypatch.setattr(rng, "_CHUNK", 3)
    keys = np.array([substream(5, i) for i in range(11)], dtype=np.uint64)
    labels = 2 * np.arange(keys.size, dtype=np.int64)  # sorted, with gaps
    for fanout in (3, 4):
        alive = unit_draws(child_keys(keys, fanout)) < 0.6
        for n in (2, 3, 7, 11):
            size = (2 * n - 1) * fanout  # every mode's cells
            full = np.zeros((size // fanout, fanout), np.int64)
            full[labels[:n]] = alive[:n]
            per = alive[:n].sum(axis=1)
            modes = (
                (None, [per.sum()]),
                (1, np.bincount(labels[:n], per, size)),
                (3, np.bincount(labels[:n] // 3, per, size)),
                (0, full.ravel()),
            )
            for unit, want in modes:
                cells = np.zeros(len(want), np.int64)
                mode = None if unit is None else labels[:n]
                assert rng.count_children(keys[:n], mode, fanout, 0.6, unit or 0, cells) == per.sum()
                assert cells.tolist() == np.asarray(want, np.int64).tolist(), (fanout, n, unit)


def test_count_step_refuses_what_it_cannot_count_in_place(hash_body):
    # every layout the compiled step cannot read or write in place is
    # counted by the numpy body, to the total and the cells that contiguous
    # arrays of the same values give
    keys = np.array([substream(2, i) for i in range(12)], dtype=np.uint64)
    labels, cells = np.arange(12, dtype=np.int64), np.zeros(12, np.int64)
    frozen = keys[:6].copy()
    frozen.flags.writeable = False
    refused = [
        (keys[::2], labels[:6], cells),  # strided keys
        (frozen, labels[:6], cells),  # read-only keys
        (keys[:6], labels[::2], cells),  # strided labels
        (keys[:6], labels[:6].astype(np.int32), cells),  # labels of another type
        (keys[:6], labels[:6], cells[::2]),  # strided cells
        (keys[:6], labels[:6], cells.view(np.uint64)),  # cells of another type
        (keys[:6], np.zeros(6, np.int64), None),  # labels sharing the cells' memory
    ]
    for parents, mode, into in refused:
        into = mode if into is None else into
        assert not rng._in_place(parents, mode, into, into.shape, np.int64)
        want = np.zeros(into.size, np.int64)
        total = rng.count_children(np.array(parents), np.array(mode, np.int64), 4, 0.5, 1, want)
        into[:] = 0
        assert rng.count_children(parents, mode, 4, 0.5, 1, into) == total > 0
        assert into.tolist() == want.tolist()
    # labels whose cells fall outside the cells are refused before anything
    # is counted, in every mode, by either body: past the end, below 0,
    # where an index would wrap around to the last cells, and no cell 0 for
    # the children of unlabelled keys
    past, negative = labels[:6] + 1, labels[:6] - 1
    for mode, unit, size in (
        (past, 1, 6), (past, 3, 2), (past, 0, 24), (negative, 0, 24), (negative, 1, 6), (None, 0, 0),
    ):
        cells = np.zeros(size, np.int64)
        with pytest.raises(IndexError):
            rng.count_children(keys[:6], mode, 4, 0.5, unit, cells)
        assert not cells.any()


def test_loader_builds_once_into_a_cache_named_by_its_source(tmp_path, monkeypatch):
    require_compiler()
    cache = tmp_path / "cache"
    assert _native._load(cache) is not None
    # published whole by os.replace: the object and nothing else
    assert [p.name for p in cache.iterdir()] == [_native._object(cache).name]

    builds = []

    def failing_build(cmd, **kwargs):
        builds.append(cmd)
        raise subprocess.CalledProcessError(1, cmd)

    monkeypatch.setattr(subprocess, "run", failing_build)
    assert _native._load(cache) is not None and builds == []  # a cache hit compiles nothing
    # another source is another object, never a stale one
    source = tmp_path / "_splitmix.c"
    source.write_text(_native._SOURCE.read_text() + "/* edited */\n")
    before = _native._object(cache)
    monkeypatch.setattr(_native, "_SOURCE", source)
    assert _native._object(cache) != before
    assert _native._load(cache) is None and len(builds) == 1  # a miss builds, and this build fails
    # the failure is marked beside the object it would have been, and not retried
    assert _native._object(cache).with_suffix(".failed").exists()
    assert _native._load(cache) is None and len(builds) == 1


def test_the_package_data_ships_the_loaders_source():
    # an installed copy without the source would run the numpy body silently;
    # read as text, since tomllib is missing on Python 3.10
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[tool.setuptools.package-data]\n", 1)[1].split("\n[", 1)[0]
    assert f'"{_native._SOURCE.name}"' in section


def test_a_cache_hit_imports_no_subprocess():
    require_compiler()
    assert rng._loops() is not None  # the package's cache is warm from here on
    code = "import sys; from percolab import rng; print(rng.hash_kernel(), 'subprocess' in sys.modules)"
    src = str(Path(rng.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["native", "False"]
