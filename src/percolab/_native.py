"""Build, cache, bind and check the compiled bodies of ``rng``'s hashing loops.

``_splitmix.c`` holds three loops that write the bits of the numpy bodies
of ``rng.child_keys``, ``rng.unit_draws`` and ``rng.count_children``.  It
is built once with the platform C compiler and cached in the package's
``__pycache__`` under a name hashed from the source, the compile command
and the platform.  GCC 12 or later on x86-64 glibc builds each loop twice,
plain and as an AVX-512 (x86-64-v4) clone, and the CPU picks one when the
object loads, so the object is built without ``-march=native``; any other
compiler builds the plain loops.

The loops are bound with ``ctypes`` from one table, ``_LOOPS``, and each is
checked against its numpy body before first use (``_agrees``), at every
fanout the loops specialise and one they do not, and the count step in each
of its modes.  Without a compiler, or on any failure to build, load or pass
that check, the numpy bodies run.  A compiler that runs and fails leaves a
marker beside where the object would be, so each source is built at most
once however many processes find no object.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import platform
import sys
import zlib
from collections import namedtuple
from contextlib import suppress
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from . import rng

_SOURCE = Path(__file__).with_name("_splitmix.c")
_CACHE = Path(__file__).with_name("__pycache__")
# no -march=native: a cached object must run on every CPU of its architecture
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")


class _Array:
    """The C type of an array argument: the address of a writable, contiguous,
    non-empty array's data (a ctypes view of its buffer reads it in about a
    quarter of the time ``ndarray.ctypes.data`` takes), or NULL for None."""

    @staticmethod
    def from_param(array):
        return None if array is None else ctypes.byref(ctypes.c_char.from_buffer(array))


# A compiled loop: its symbol, C argument and result types, its reference (the
# numpy body in ``rng``), and ``call(loop, *the reference's arguments)``.
_Loop = namedtuple("_Loop", "symbol argtypes restype reference call")
_SIZE, _U64 = ctypes.c_size_t, ctypes.c_uint64
# The compiled loops, by the name of the ``rng`` function that calls each.
_LOOPS = {
    "child_keys": _Loop(
        "splitmix_child_keys", (_Array, _SIZE, _SIZE, _Array), None, rng._numpy_child_keys,
        lambda loop, keys, fanout, out: loop(keys, keys.size, fanout, out),
    ),
    "unit_draws": _Loop(
        "splitmix_unit_draws", (_Array, _SIZE, _Array), None, rng._numpy_unit_draws,
        lambda loop, keys, out: loop(keys, keys.size, out),
    ),
    "count_children": _Loop(
        "splitmix_count_children", (_Array, _Array, _SIZE, _SIZE, _U64, _U64, _Array), _U64,
        rng._numpy_count_children,
        # a draw is below p iff its 53 bits are below ceil(p 2^53)
        lambda loop, keys, labels, fanout, p, unit, cells: loop(
            keys, labels, keys.size, fanout, math.ceil(p * 2.0**53), unit, cells
        ),
    ),
}

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
    0x831FF1E888A5CA92, 1, 12345, 1 << 63, rng.MASK64,
)
_CHECK_FANOUTS = (4, 8, 3)
_CHECK_PS = (2.0**-53, 0.7, 1.0)


def _object(directory: Path) -> Path:
    """The cached object's path for this source, compile command and platform.

    zlib is loaded with numpy already; hashlib would load OpenSSL.
    """
    tag = zlib.crc32(" ".join(_COMPILE).encode(), zlib.crc32(_SOURCE.read_bytes()))
    tag = zlib.crc32(f"{sys.platform}-{platform.machine()}".encode(), tag)
    return directory / f"_splitmix-{tag:08x}.so"


def _build(path: Path) -> None:
    """Compile ``_SOURCE`` to ``path``, published whole by one ``os.replace``;
    OSError on any failure, a missing compiler among them.  A compile that
    fails or hangs also leaves a ``.failed`` marker beside ``path``."""
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
        with suppress(OSError):
            path.with_suffix(".failed").write_text(f"{exc}\n", encoding="utf-8")
        raise OSError(f"cannot build {path.name}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(directory: Optional[Path] = None) -> Optional[Dict[str, Callable]]:
    """The loops of ``_LOOPS`` compiled and cached in ``directory`` (default
    ``_CACHE``), each called with its reference's arguments; or None, on
    any failure (a missing compiler, an unwritable directory, a failed build
    or load, a missing loop, a check that disagrees with a reference).  A
    cache miss builds the object, unless its ``.failed`` marker is there."""
    try:
        path = _object(directory or _CACHE)
        if not path.exists():
            if path.with_suffix(".failed").exists():
                return None
            _build(path)
        lib = ctypes.CDLL(str(path))
        loops = {}
        for name, row in _LOOPS.items():
            loop = getattr(lib, row.symbol)  # AttributeError: a loop missing from the object
            loop.argtypes, loop.restype = row.argtypes, row.restype
            loops[name] = partial(row.call, loop)
    except (OSError, AttributeError):
        return None
    return loops if _agrees(loops) else None


def _agrees(loops: Dict[str, Callable]) -> bool:
    """Whether each loop, called as ``rng`` calls it, writes into its last
    argument and returns what one call of its reference does, on the cases
    that ``_CHECK_KEYS`` describes; the count step runs once on the keys and
    once on their children, both into one array."""
    keys = np.array(_CHECK_KEYS, dtype=np.uint64)
    children = [rng._numpy_child_keys(keys, f, np.empty((keys.size, f), np.uint64)).ravel()
                for f in _CHECK_FANOUTS]
    batch = np.concatenate([keys, *children])
    parts = (slice(0, keys.size), slice(keys.size, batch.size))  # the keys, their children
    labels = np.arange(1, batch.size + 1, dtype=np.int64)  # sorted, from 1
    modes = ((None, 0), (labels, 1), (labels, 3), (labels, 0))
    # each loop's checks: its reference's arguments, and its calls without the
    # output; the count's cells hold each mode's, and more for a stray index
    checks = {
        "child_keys": [((keys, f, np.empty((keys.size, f), np.uint64)), [(keys, f)])
                       for f in _CHECK_FANOUTS],
        "unit_draws": [((batch[s], np.empty(batch[s].size)), [(batch[s],)]) for s in parts],
        "count_children": [
            ((batch, mode, fanout, p, unit, np.zeros((batch.size + 2) * fanout, np.int64)),
             [(batch[s], mode if mode is None else mode[s], fanout, p, unit) for s in parts])
            for fanout, p, (mode, unit) in itertools.product(_CHECK_FANOUTS, _CHECK_PS, modes)
        ],
    }
    for name, row in _LOOPS.items():
        for args, calls in checks[name]:
            out = args[-1].copy()  # the loop's output, as the reference's starts
            got, want = [loops[name](*call, out) for call in calls], row.reference(*args)
            if out.tobytes() != args[-1].tobytes() or (row.restype and sum(got) != want):
                return False
    return True
