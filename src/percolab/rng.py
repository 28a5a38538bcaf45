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
The numpy body is the reference.  The compiled body runs the two loops of
``_splitmix.c``, built once with the platform C compiler and cached in the
package's ``__pycache__`` under a name hashed from the source, the compile
command and the platform.  It is loaded with ``ctypes`` and checked against
the numpy body before first use.  Without a compiler, or on any failure to
build, load or pass that check, the numpy body runs.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

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
    loops[0](keys.ctypes.data, keys.size, fanout, children.ctypes.data)
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
    loops[1](keys.ctypes.data, keys.size, out.ctypes.data)
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
# the draw range, then ordinary keys: a compiled object must hash them, and
# their children at an odd fanout, to the numpy body's bits before it is used.
_CHECK_KEYS = (
    0x5851F42D4C957F2D, 0x7309F50F5A733562, 0x96749F8401F2AE77, 0x97CBF082B6FED2ED,
    0, 1, 12345, 1 << 63, MASK64,
)
_CHECK_FANOUT = 3


def _direct(keys: np.ndarray, out: np.ndarray, shape: Tuple[int, ...], dtype) -> bool:
    """Whether a compiled loop may read ``keys`` and write ``out`` in place:
    contiguous uint64 keys, and a writable contiguous ``out`` of ``shape``
    and ``dtype``.
    """
    return (
        keys.dtype == np.uint64
        and keys.flags.c_contiguous
        and out.shape == shape
        and out.dtype == dtype
        and out.flags.c_contiguous
        and out.flags.writeable
    )


def _object(directory: Path) -> Path:
    """The cached object's path for this source, compile command and platform.

    zlib is loaded with numpy already; hashlib would load OpenSSL.
    """
    tag = zlib.crc32(" ".join(_COMPILE).encode(), zlib.crc32(_SOURCE.read_bytes()))
    tag = zlib.crc32(f"{sys.platform}-{platform.machine()}".encode(), tag)
    return directory / f"_splitmix-{tag:08x}.so"


def _build(path: Path) -> None:
    """Compile ``_SOURCE`` to ``path``, published whole by one ``os.replace``.

    Raises OSError on any failure, a missing compiler among them.
    """
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name, dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*_COMPILE, "-o", tmp, str(_SOURCE)],
            check=True, stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:  # a failed or hung compile
        raise OSError(f"cannot build {path.name}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(directory: Path):
    """The compiled loops ``(child_keys, unit_draws)`` cached in ``directory``, or None.

    The object is built on a cache miss.  Any failure (no compiler, an
    unwritable directory, a failed build or load, a missing loop, a check
    that disagrees with the numpy body) returns None, so the numpy body
    runs.
    """
    try:
        path = _object(directory)
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
        child, draws = lib.splitmix_child_keys, lib.splitmix_unit_draws
        child.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_void_p)
        draws.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
        child.restype = draws.restype = None
        keys = np.array(_CHECK_KEYS, dtype=np.uint64)
        got = np.empty((keys.size, _CHECK_FANOUT), np.uint64)
        want = _numpy_child_keys(keys, _CHECK_FANOUT, np.empty_like(got), None)
        child(keys.ctypes.data, keys.size, _CHECK_FANOUT, got.ctypes.data)
        both = np.concatenate([keys, want.ravel()])
        drawn = np.empty(both.size)
        draws(both.ctypes.data, both.size, drawn.ctypes.data)
        agree = np.array_equal(got, want) and np.array_equal(
            drawn.view(np.uint64), _numpy_unit_draws(both, np.empty(both.size)).view(np.uint64)
        )
    except (OSError, AttributeError):  # AttributeError: a loop missing from the object
        return None
    return (child, draws) if agree else None


@lru_cache(maxsize=None)
def _loops():
    """This process's compiled loops from the package's ``__pycache__``, or None."""
    return _load(_CACHE)


def hash_kernel() -> str:
    """Which body hashes in this process: "native" (compiled) or "numpy"."""
    return "numpy" if _loops() is None else "native"
