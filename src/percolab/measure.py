"""The natural mass carried by a percolation tree.

Conditioned on survival, the limit set has Hausdorff dimension
d = m + log(p)/log(k), and the branching process attaches to every retained
depth-j cube the mass k^(-j d) X, where X is the cube's martingale limit.
We estimate X for a cube by counting retained descendants g levels below it
and rescaling:

    x_hat(cube, g) = (retained count at depth g below cube) * k^(-g d).

The estimator has mean 1 for retained cubes, and it satisfies the same
additive recursion as the limit: the parent's estimate at depth t equals
k^(-d) times the sum of the children's estimates at depth t - 1, exactly
(the underlying identity is an integer one, so only float rounding of the
common rescale factor remains).
"""

from __future__ import annotations

import math

from .percolation import LazyTree, PercolationConfig
from .words import Word


def dimension(config: PercolationConfig) -> float:
    """Almost-sure dimension of the limit set given survival."""
    return config.m + math.log(config.p) / math.log(config.k)


def mass_factor(config: PercolationConfig, level: int) -> float:
    """k^(-level d), the mass each retained node at depth ``level`` carries.

    A count of retained nodes at one depth times this factor is a mass
    estimate; ``x_estimate``, path totals and replica word weights all use it.
    """
    return float(config.k) ** (-level * dimension(config))


def x_estimate(tree: LazyTree, word: Word, probe_depth: int) -> float:
    """Depth-``probe_depth`` martingale estimate at ``word``.

    Raises ValueError on a pruned word: a discarded cube carries no mass and
    has no martingale to estimate.
    """
    profile = tree.count_profile(word, probe_depth)
    if profile[0] == 0:
        raise ValueError(f"{word} is pruned; x_estimate needs a retained word")
    return profile[probe_depth] * mass_factor(tree.config, probe_depth)
