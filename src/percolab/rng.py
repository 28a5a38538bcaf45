"""Counter-based splittable random numbers.

Every random decision in the package is a pure function of an integer key.
Keys are derived from a user seed by repeatedly hashing (seed, index) pairs
with a 64-bit finalizer, so a node's draw depends only on its digit path --
never on evaluation order, worker count, or how much of the tree was
expanded before it.  That property is what makes parallel runs byte-stable.

The finalizer is the splitmix64 output function.  Its constants are part of
the package's reproducibility contract: changing them silently changes every
sampled tree, so they must stay fixed across versions.

``child_keys`` and ``unit_draws`` have two bodies that write the same bits.
The numpy body is the reference.  The compiled body runs two of the three
loops of ``_splitmix.c``, built once with the platform C compiler and
cached in the package's ``__pycache__`` under a name hashed from the
source, the compile command and the platform.  GCC 12 or later on x86-64
glibc builds each loop twice, plain and as an AVX-512 (x86-64-v4) clone,
and the CPU picks one when the object loads, so the object is built
without ``-march=native``; any other compiler builds the plain loops.  The
third loop, ``count_children``, hashes a level's children only to count
the alive ones into cells; its numpy body hashes them in slices, as a
frontier's stored levels are, and counts each slice through
``count_alive``.  The slices share one scratch (``slices``).  The object
is loaded with ``ctypes`` and checked against the numpy body before first
use, at every fanout the compiled loops specialise and one they do not,
and the count step in each of its modes.  Without a compiler, or on any
failure to build, load or pass that check, the numpy body runs.  A
compiler that runs and fails leaves a marker of the same name beside the
object, so each source is built at most once however many processes find
no object.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import sys
import zlib
from contextlib import contextmanager, suppress
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

MASK64 = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Salt applied before the finalizer when turning a key into a uniform draw,
# so that a node's draw and its child keys come from distinct points of the
# hash space.  Any fixed odd constant works.
_DRAW_SALT = 0x5851F42D4C957F2D

_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_DRAW_SALT_U64 = np.uint64(_DRAW_SALT)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)

_INV_2_53 = 2.0 ** -53

# Parents hashed per slice of a frontier level: a slice's children, draws and
# index array stay in cache, where one pass over a whole large level would
# not.  On a 2-CPU x86-64 machine 1 << 13 hashed as fast as 1 << 14 with
# 1.7 MB less peak memory, and 1 << 12 was slower by its per-call costs.
_CHUNK = 1 << 13

# One slice's children: their keys, hashed bits, draws and alive mask.
_DTYPES = (np.uint64, np.uint64, np.float64, bool)
# This process's slice arrays, grown on demand by ``slices``.
_SCRATCH = [np.empty(0, dtype) for dtype in _DTYPES]

# The unsigned word one alive row fills, one byte per child, at the fanouts
# that have one; other fanouts weigh their rows by a product instead.
_ROW_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, masked)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX1) & MASK64
    x ^= x >> 27
    x = (x * _MIX2) & MASK64
    x ^= x >> 31
    return x


def _mix64_inplace(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array; returns it.

    ``scratch``, a uint64 array of ``x``'s shape, takes the shifted words,
    so that no temporary is allocated.
    """
    tmp = np.empty_like(x) if scratch is None else scratch
    for shift, mult in ((_SHIFT_30, _MIX1_U64), (_SHIFT_27, _MIX2_U64)):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= mult
    x ^= np.right_shift(x, _SHIFT_31, out=tmp)
    return x


def seed_key(seed: int) -> int:
    """Root key for a user seed.

    The offset keeps seed 0 away from the finalizer's fixed point
    (mix64(0) == 0), which would otherwise make all of seed 0's streams
    collide with the zero key.
    """
    return mix64((int(seed) + GOLDEN) & MASK64)


def child_key(key: int, index: int) -> int:
    """Key of the ``index``-th child stream of ``key``."""
    return mix64((key + GOLDEN * (int(index) + 1)) & MASK64)


def child_keys(
    keys: np.ndarray,
    fanout: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Child keys for a whole frontier at once: (n,) uint64 -> (n, fanout).

    ``out`` receives the keys and ``scratch`` is the numpy body's work
    array, both uint64 of shape (n, fanout); without them both are allocated.
    """
    children = np.empty((keys.size, fanout), dtype=np.uint64) if out is None else out
    loops = _loops()
    if loops is None or not _direct(keys, children, (keys.size, fanout), np.uint64):
        return _numpy_child_keys(keys, fanout, children, scratch)
    loops[0](_address(keys), keys.size, fanout, _address(children))
    return children


def _numpy_child_keys(
    keys: np.ndarray, fanout: int, children: np.ndarray, scratch: Optional[np.ndarray]
) -> np.ndarray:
    """The numpy body of ``child_keys``, into ``children``."""
    # one pass per column: a broadcast add would loop fanout entries at a time
    for index in range(fanout):
        np.add(keys, np.uint64(GOLDEN * (index + 1) & MASK64), out=children[:, index])
    return _mix64_inplace(children, scratch)


def unit_draw(key: int) -> float:
    """Uniform draw in [0, 1) attached to ``key``."""
    return (mix64(key ^ _DRAW_SALT) >> 11) * _INV_2_53


def unit_draws(
    keys: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized uniform draws in [0, 1) for a uint64 key array.

    ``out`` (float64) receives the draws and ``scratch`` (uint64) holds the
    numpy body's hashed bits, both of ``keys``' shape; without them both are
    allocated.
    """
    if out is None:
        out = np.empty(keys.shape, dtype=np.float64)
    loops = _loops()
    if loops is None or not _direct(keys, out, keys.shape, np.float64):
        return _numpy_unit_draws(keys, out, scratch)
    loops[1](_address(keys), keys.size, _address(out))
    return out


def _numpy_unit_draws(
    keys: np.ndarray, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """The numpy body of ``unit_draws``, into ``out``.

    ``out`` doubles as the finalizer's work array before it is written.
    """
    bits = np.bitwise_xor(keys, _DRAW_SALT_U64, out=scratch)
    _mix64_inplace(bits, out.view(np.uint64))
    bits >>= _SHIFT_11
    # bits < 2^53 convert exactly, and the power-of-two scale is exact too;
    # they read the same as int64, which converts faster than uint64
    return np.multiply(bits.view(np.int64), _INV_2_53, out=out)


def slices(start: int, stop: int, fanout: int) -> Iterator[Tuple[int, int, List[np.ndarray]]]:
    """The parents ``start`` .. ``stop`` in slices of at most ``_CHUNK``:
    each slice's bounds, and arrays for its children's keys, hashed bits,
    draws and alive mask.

    The arrays are views of one scratch that every slice of every caller
    reuses, so a slice is read before the next one is asked for.
    """
    for a in range(start, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        n = (b - a) * fanout
        if n > _SCRATCH[0].size:
            _SCRATCH[:] = [np.empty(n, dtype) for dtype in _DTYPES]
        yield a, b, [array[:n] for array in _SCRATCH]


def count_alive(
    alive: np.ndarray, parent: Optional[np.ndarray], unit: int, cells: np.ndarray
) -> int:
    """Add each alive child of an (parents, fanout) mask to ``cells``; returns
    the number of alive children.

    ``parent`` holds the parents' labels (None: every child goes to cell 0).
    With a ``unit`` a child goes to its parent's cell ``parent // unit``;
    with ``unit`` 0, to its full label ``parent * fanout + j``.  The labels
    are not checked against ``cells``.
    """
    count = int(np.count_nonzero(alive))
    fanout = alive.shape[1]
    if parent is None:
        cells[0] += count
    elif not unit:  # cells at full labels: the parent's, then the digit
        cells.reshape(-1, fanout)[parent] += alive
    else:  # a child lies in its parent's cell: weigh each parent by its alive children
        word = _ROW_WORDS.get(fanout)
        if word is None:
            ones = np.ones(fanout, np.uint8 if fanout < 256 else np.int64)
            per_parent = alive.view(np.uint8) @ ones
        else:  # times 0x01..01, the row's top byte sums its 0/1 bytes with no carry
            ones = word(int.from_bytes(b"\x01" * fanout, "little"))
            per_parent = (alive.view(word)[:, 0] * ones) >> word(8 * (fanout - 1))
        added = np.bincount(parent // unit, weights=per_parent)  # exact: each sum is below 2^53
        np.add(cells[: added.size], added, out=cells[: added.size], casting="unsafe")
    return count


def count_children(
    keys: np.ndarray,
    labels: Optional[np.ndarray],
    fanout: int,
    p: float,
    unit: int,
    cells: np.ndarray,
) -> int:
    """Count the alive children of ``keys`` into ``cells``; returns how many
    there are.

    A child is alive when its draw is below ``p``.  Without ``labels`` every
    child counts at ``cells[0]``; with a ``unit``, at its parent's cell
    ``labels[i] // unit``; with ``unit`` 0, at its full label
    ``labels[i] * fanout + j``.  ``labels`` (one per key) must be sorted:
    IndexError is raised, before anything is counted, where the first or
    the last key's cells fall outside ``cells``.  Nothing is stored.  The
    compiled step counts where it can read and write the arrays in place,
    the numpy body anywhere else.
    """
    if labels is not None and labels.size:
        low, high = int(labels[0]), int(labels[-1])
        top = high * fanout + fanout - 1 if unit == 0 else high // unit
        if low < 0 or top >= cells.size:
            raise IndexError(f"labels {low} to {high} reach outside {cells.size} cells")
    loops = _loops()
    if loops is None or not _countable(keys, labels, cells):
        return _numpy_count_children(keys, labels, fanout, p, unit, cells)
    at_labels = None if labels is None else _address(labels)
    bound = math.ceil(p * 2.0**53)  # draw < p iff its 53 bits are below this bound
    return loops[2](_address(keys), at_labels, keys.size, fanout, bound, unit, _address(cells))


def _numpy_count_children(
    keys: np.ndarray,
    labels: Optional[np.ndarray],
    fanout: int,
    p: float,
    unit: int,
    cells: np.ndarray,
) -> int:
    """The numpy body of ``count_children``: it hashes ``_CHUNK`` parents at
    a time and counts each slice through ``count_alive``."""
    total = 0
    for a, b, (children, bits, draws, alive) in slices(0, keys.size, fanout):
        _numpy_child_keys(keys[a:b], fanout, children.reshape(-1, fanout), bits.reshape(-1, fanout))
        np.less(_numpy_unit_draws(children, draws, bits), p, out=alive)
        parent = None if labels is None else labels[a:b]
        total += count_alive(alive.reshape(-1, fanout), parent, unit, cells)
    return total


def substream(seed: int, *indices: int) -> int:
    """Derive an independent seed by folding indices into the key chain.

    ``substream(s, a, b, c)`` is the deterministic analogue of seeding a
    fresh generator for the (a, b, c) slot of a nested experiment.
    """
    key = seed_key(seed)
    for index in indices:
        key = child_key(key, index)
    return key


# -- the compiled body ---------------------------------------------------------

_SOURCE = Path(__file__).with_name("_splitmix.c")
_CACHE = Path(__file__).with_name("__pycache__")
# no -march=native: a cached object must run on every CPU of its architecture
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")

# Keys whose salted hashes are 0, 2^11 - 1, 2^63 and 2^64 - 1, the edges of
# the draw range; keys whose child 0 is each of those, and one whose child 0
# draws exactly 0.7; then ordinary keys.  A compiled object must hash them,
# and their children at each check fanout, to the numpy body's bits before
# it is used, and count both as parents at each check p.  The fanouts are
# every one the compiled loops specialise and one they do not.  At
# p = 2^-53 only a draw of 0 is below p, and at 0.7 the draw of 0.7 is not.
# 13 keys and their 195 children are odd counts, so every vector loop ends
# in a partial vector.
_CHECK_KEYS = (
    0x5851F42D4C957F2D, 0x7309F50F5A733562, 0x96749F8401F2AE77, 0x97CBF082B6FED2ED,
    0xB0267A43B0BADA87, 0x0787DE67E195908D, 0x02DA46FFE13780F0, 0xDB061F5DD88A7A13,
    0x831FF1E888A5CA92, 1, 12345, 1 << 63, MASK64,
)
_CHECK_FANOUTS = (4, 8, 3)
_CHECK_PS = (2.0**-53, 0.7, 1.0)


def _address(array: np.ndarray) -> int:
    """The address of a writable, contiguous, non-empty array's data: a
    ctypes view of its buffer reads it in about a quarter of the time
    ``ndarray.ctypes.data`` takes."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _direct(keys: np.ndarray, out: np.ndarray, shape: Tuple[int, ...], dtype) -> bool:
    """Whether a compiled loop may read ``keys`` and write ``out`` in place:
    some contiguous uint64 keys, and a writable contiguous ``out`` of
    ``shape`` and ``dtype`` that shares no memory with them (a loop may read
    a key it has already overwritten; numpy buffers an overlapping operand).
    ``_address`` reads only writable buffers, so read-only keys are refused.
    """
    return (
        keys.dtype == np.uint64
        and keys.size > 0
        and keys.flags.c_contiguous
        and keys.flags.writeable
        and out.shape == shape
        and out.dtype == dtype
        and out.flags.c_contiguous
        and out.flags.writeable
        and not np.may_share_memory(keys, out)
    )


def _countable(keys: np.ndarray, labels: Optional[np.ndarray], cells: np.ndarray) -> bool:
    """Whether the compiled count step may read ``keys`` and ``labels`` and
    add to ``cells`` in place: ``_direct`` keys and cells, and no labels or
    writable contiguous int64 labels, one per key, apart from the cells."""
    return _direct(keys, cells, cells.shape, np.int64) and (
        labels is None
        or (
            labels.dtype == np.int64
            and labels.shape == keys.shape
            and labels.flags.c_contiguous
            and labels.flags.writeable
            and not np.may_share_memory(labels, cells)
        )
    )


def _object(directory: Path) -> Path:
    """The cached object's path for this source, compile command and platform.

    zlib is loaded with numpy already; hashlib would load OpenSSL.
    """
    tag = zlib.crc32(" ".join(_COMPILE).encode(), zlib.crc32(_SOURCE.read_bytes()))
    tag = zlib.crc32(f"{sys.platform}-{platform.machine()}".encode(), tag)
    return directory / f"_splitmix-{tag:08x}.so"


def _failed(path: Path) -> Path:
    """The marker a failed build of the object at ``path`` leaves beside it."""
    return path.with_suffix(".failed")


@contextmanager
def _published(path: Path) -> Iterator[str]:
    """A temporary file beside ``path``, moved onto it by one ``os.replace``
    when the block succeeds, and removed in any case."""
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=path.name, dir=path.parent)
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(path: Path) -> None:
    """Compile ``_SOURCE`` to ``path``, published whole by one ``os.replace``.

    Raises OSError on any failure, a missing compiler among them.  A
    compile that fails or hangs also publishes the ``_failed`` marker.
    """
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    with _published(path) as tmp:
        try:
            subprocess.run(
                [*_COMPILE, "-o", tmp, str(_SOURCE)],
                check=True, stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
            )
        except subprocess.SubprocessError as exc:  # a failed or hung compile
            with suppress(OSError), _published(_failed(path)) as marker:
                Path(marker).write_text(f"{exc}\n", encoding="utf-8")
            raise OSError(f"cannot build {path.name}: {exc}") from exc


def _load(directory: Path):
    """The compiled loops ``(child_keys, unit_draws, count_children)`` cached
    in ``directory``, or None.

    The object is built on a cache miss, unless an earlier build of the
    same source left its ``_failed`` marker.  Any failure (no compiler, an
    unwritable directory, a failed build or load, a missing loop, a check
    that disagrees with the numpy body) returns None, so the numpy body
    runs.
    """
    try:
        path = _object(directory)
        if not path.exists():
            if _failed(path).exists():
                return None
            _build(path)
        lib = ctypes.CDLL(str(path))
        child, draws = lib.splitmix_child_keys, lib.splitmix_unit_draws
        count = lib.splitmix_count_children
        child.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_void_p)
        draws.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
        count.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                          ctypes.c_uint64, ctypes.c_uint64, ctypes.c_void_p)
        child.restype = draws.restype = None
        count.restype = ctypes.c_uint64
    except (OSError, AttributeError):  # AttributeError: a loop missing from the object
        return None
    return (child, draws, count) if _agrees(child, draws, count) else None


def _agrees(child, draws, count) -> bool:
    """Whether compiled loops write the numpy body's bits for ``_CHECK_KEYS``:
    their children at each of ``_CHECK_FANOUTS``, and the draws of the keys
    and of all those children; and whether the count step, with the keys
    and with all those children as parents, counts what the numpy body
    counts of them all at each fanout, each of ``_CHECK_PS`` and in each
    mode."""
    keys = np.array(_CHECK_KEYS, dtype=np.uint64)
    agree, children = True, []
    for fanout in _CHECK_FANOUTS:
        got = np.empty((keys.size, fanout), np.uint64)
        child(_address(keys), keys.size, fanout, _address(got))
        want = _numpy_child_keys(keys, fanout, np.empty_like(got), None)
        agree &= np.array_equal(got, want)
        children.append(want.ravel())
    batch = np.concatenate([keys, *children])
    parts = (slice(0, keys.size), slice(keys.size, batch.size))  # the keys, their children
    for part in parts:
        drawn = np.empty(batch[part].size)
        draws(_address(batch[part]), drawn.size, _address(drawn))
        want = _numpy_unit_draws(batch[part], np.empty(drawn.size))
        agree &= np.array_equal(drawn.view(np.uint64), want.view(np.uint64))
    labels = np.arange(1, batch.size + 1, dtype=np.int64)  # sorted, from 1
    for fanout in _CHECK_FANOUTS:
        size = (batch.size + 2) * fanout  # each mode's cells, and more for a stray index
        for p in _CHECK_PS:
            for mode, unit in ((None, 0), (labels, 1), (labels, 3), (labels, 0)):
                want, got = np.zeros(size, np.int64), np.zeros(size, np.int64)
                total = _numpy_count_children(batch, mode, fanout, p, unit, want)
                for part in parts:  # one step per part, both into ``got``
                    at = None if mode is None else _address(labels[part])
                    total -= count(_address(batch[part]), at, batch[part].size, fanout,
                                   math.ceil(p * 2.0**53), unit, _address(got))
                agree &= total == 0 and np.array_equal(got, want)
    return bool(agree)


@lru_cache(maxsize=None)
def _loops():
    """This process's compiled loops from the package's ``__pycache__``, or None."""
    return _load(_CACHE)


def hash_kernel() -> str:
    """Which body hashes in this process: "native" (compiled) or "numpy"."""
    return "numpy" if _loops() is None else "native"
