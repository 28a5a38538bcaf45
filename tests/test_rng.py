"""Frozen golden values and scalar/vector agreement for the seed-hash RNG.

The mixer values below are part of the reproducibility contract: results
written by one version of the package must be reproducible by another, so a
silent change to the hashing breaks every stored manifest.  These literals
were computed once from the reference definitions and must never drift.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import unmix64
from percolab import rng
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


def _compiler():
    if shutil.which(rng._COMPILE[0]) is None:
        pytest.skip("no C compiler: the compiled body cannot be built")


@pytest.fixture(params=["numpy", "native"])
def hash_body(request, monkeypatch, tmp_path):
    """Each body of ``child_keys`` and ``unit_draws`` in turn.

    The compiled body must build, load and pass its check wherever a C
    compiler is on the PATH, so that a broken ``_splitmix.c`` fails here
    instead of falling back to numpy; without a compiler it is skipped.
    """
    loops = None
    if request.param == "native":
        loops = rng._loops() or rng._load(tmp_path)  # the package's cache may be read-only
        if loops is None:
            _compiler()
        assert loops is not None, "the compiled body did not build, load or pass its check"
    monkeypatch.setattr(rng, "_loops", lambda: loops)
    return request.param


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
    assert set(keys) <= set(rng._CHECK_KEYS)  # a compiled body is checked on them first
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
    with pytest.raises(TypeError):  # the numpy body refuses an integer out
        unit_draws(keys, np.empty(keys.size, dtype=np.int64))


def test_loader_builds_once_into_a_cache_named_by_its_source(tmp_path, monkeypatch):
    _compiler()
    cache = tmp_path / "cache"
    assert rng._load(cache) is not None
    # published whole by os.replace: the object and nothing else
    assert [p.name for p in cache.iterdir()] == [rng._object(cache).name]

    builds = []

    def failing_build(cmd, **kwargs):
        builds.append(cmd)
        raise subprocess.CalledProcessError(1, cmd)

    monkeypatch.setattr(subprocess, "run", failing_build)
    assert rng._load(cache) is not None and builds == []  # a cache hit compiles nothing
    # another source is another object, never a stale one
    source = tmp_path / "_splitmix.c"
    source.write_text(rng._SOURCE.read_text() + "/* edited */\n")
    before = rng._object(cache)
    monkeypatch.setattr(rng, "_SOURCE", source)
    assert rng._object(cache) != before
    assert rng._load(cache) is None and len(builds) == 1  # a miss builds, and this build fails


def test_a_cache_hit_imports_no_subprocess():
    _compiler()
    assert rng._loops() is not None  # the package's cache is warm from here on
    code = "import sys; from percolab import rng; print(rng.hash_kernel(), 'subprocess' in sys.modules)"
    src = str(Path(rng.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["native", "False"]
