"""Addresses of cells in the k-adic subdivision scheme.

A word is a finite string of digits in {0, ..., k^m - 1}; each digit picks
one of the k^m congruent subcubes of the current cube, so a word of length L
names one cell of the level-L grid on [0, 1]^m.  Digits encode per-axis
offsets in mixed radix with axis 0 most significant:

    offset along axis a  =  (digit // k**(m - 1 - a)) % k
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


def cell_of_digits(digits: Tuple[int, ...], m: int, k: int) -> Tuple[int, ...]:
    """Integer coordinates of the cell a digit string addresses.

    The result lives on the side-``k**len(digits)`` grid; coordinate ``a``
    is the base-k number whose digits are the axis-``a`` offsets, most
    significant first.
    """
    coords = [0] * m
    for d in digits:
        for a in range(m):
            coords[a] = coords[a] * k + (d // k ** (m - 1 - a)) % k
    return tuple(coords)


@dataclass(frozen=True)
class Word:
    """A cell address: ambient dimension, subdivision base, digit string."""

    m: int
    k: int
    digits: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        fanout = self.k ** self.m if self.digits else 0  # a root word checks no digit
        for d in self.digits:
            if not 0 <= d < fanout:
                raise ValueError(f"digit {d} out of range [0, {fanout})")

    @classmethod
    def root(cls, m: int, k: int) -> "Word":
        return cls(m, k, ())

    @property
    def level(self) -> int:
        return len(self.digits)

    def child(self, digit: int) -> "Word":
        return Word(self.m, self.k, self.digits + (int(digit),))
