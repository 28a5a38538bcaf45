"""Tree-address arithmetic: a digit tuple <-> the grid cell it addresses."""

import numpy as np

from percolab.percolation import cell_of_digits


def test_digit_offsets_enumerate_the_grid():
    # m=2, k=2: digits 0..3 map to the four unit offsets, axis 0 first
    offs = [cell_of_digits((d,), 2, 2) for d in range(4)]
    assert offs == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_digit_offsets_m3():
    offs = {cell_of_digits((d,), 3, 2) for d in range(8)}
    assert offs == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def test_cell_of_digits_is_positional():
    # two subdivision steps: coordinate = first digit * k + second digit
    assert cell_of_digits((0, 3), 2, 2) == (1, 1)
    assert cell_of_digits((3, 0), 2, 2) == (2, 2)
    assert cell_of_digits((1, 2), 2, 2) == (1, 2)  # (0,1) then (1,0)


def test_cell_of_digits_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        depth = int(rng.integers(0, 6))
        digits = tuple(int(d) for d in rng.integers(0, k**m, size=depth))
        cell = cell_of_digits(digits, m, k)
        # decode back digit by digit
        decoded = []
        coords = list(cell)
        for level in range(depth, 0, -1):
            offset = tuple((c >> 0) // (k ** (level - 1)) % k for c in coords)
            digit = 0
            for axis in range(m):
                digit = digit * k + offset[axis]
            decoded.append(digit)
        assert tuple(decoded) == digits
