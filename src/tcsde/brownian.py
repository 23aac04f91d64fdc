"""Seeded Brownian drivers on uniform grids, with exact subsampling.

Gaussian increments come from a counter-based Philox stream keyed by
(master_seed, sample_index), one raw 64-bit word per increment, mapped to an
open-interval uniform and transformed by the inverse normal CDF. The mapping
gives three guarantees the harness relies on:

  * sample i is bit-identical no matter how samples are scheduled;
  * regenerating the same stream with a longer horizon reproduces the old
    values as an exact prefix, so a path can be extended in place;
  * subsampling every factor-th knot of a fine path yields the coarse path
    driven by the same Brownian motion (coupling), sharing knots bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = ["BrownianPath", "generate_path", "gaussian_increments"]

_U53 = 2.0**-53


def gaussian_increments(
    master_seed: int,
    sample_index: int,
    count: int,
    n: int,
    purpose: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First `count` N(0, 1/n) increments of the (master_seed, sample_index) stream.

    They are written into `out` (float64, length count) when it is given, with
    no full-length temporary but the raw words.
    """
    if master_seed < 0 or sample_index < 0:
        raise ValueError("master_seed and sample_index must be non-negative")
    # a list holding a word >= 2^63 would go through float64 and lose bits
    key = np.array([master_seed, sample_index], dtype=np.uint64)
    raw = Philox(counter=[0, 0, 0, purpose], key=key).random_raw(count)
    # top 53 bits, cast exactly and centered: uniforms on the open interval
    # (0, 1), so the inverse-CDF transform never produces an infinity
    raw >>= np.uint64(11)
    u = np.empty(count, dtype=np.float64) if out is None else out
    u[...] = raw
    u += 0.5
    u *= _U53
    ndtri(u, out=u)
    u *= np.sqrt(1.0 / n)
    return u


@dataclass(frozen=True)
class BrownianPath:
    """Values of x0 + B at knots k/n, immutable and shareable across workers.

    ``subsample_factor`` > 1 marks a path derived from a finer one; only
    directly generated paths (factor 1) can be extended or regenerated.
    """

    n: int
    values: np.ndarray
    master_seed: int
    sample_index: int
    purpose: int = 0
    subsample_factor: int = 1

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def knot_count(self) -> int:
        return len(self.values)

    @property
    def horizon(self) -> float:
        """Brownian time of the last stored knot."""
        return (self.knot_count - 1) / self.n

    @property
    def x0(self) -> float:
        return float(self.values[0])

    def subsample(self, factor: int) -> "BrownianPath":
        """Every factor-th knot: the same Brownian motion at resolution n/factor."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        if self.n % factor != 0:
            raise ValueError(f"factor {factor} does not divide resolution {self.n}")
        return replace(
            self,
            n=self.n // factor,
            values=self.values[::factor],
            subsample_factor=self.subsample_factor * factor,
        )

    def extended(self, horizon: float) -> "BrownianPath":
        """Same stream continued to a longer horizon; old knots are a bit-exact prefix."""
        if self.subsample_factor != 1:
            raise ValueError("only directly generated paths can be extended")
        new = generate_path(
            self.n, horizon, self.x0, self.master_seed, self.sample_index, self.purpose
        )
        if new.knot_count < self.knot_count:
            raise ValueError("extension horizon shorter than the stored path")
        return new


def generate_path(
    n: int,
    horizon: float,
    x0: float,
    master_seed: int,
    sample_index: int,
    purpose: int = 0,
) -> BrownianPath:
    """Generate values[k] = x0 + sum of k i.i.d. N(0, 1/n) increments.

    Knot count is floor(n * horizon) + 1. The increment stream depends only
    on (master_seed, sample_index, purpose), never on horizon.
    """
    if n < 1:
        raise ValueError(f"resolution must be >= 1, got {n}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    count = int(n * horizon + 1e-9)
    values = np.empty(count + 1, dtype=np.float64)
    values[0] = x0
    if count:
        incr = gaussian_increments(master_seed, sample_index, count, n, purpose,
                                   out=values[1:])
        np.cumsum(incr, out=values[1:])
        if x0:  # no partial sum is -0.0, so adding a zero changes no bit
            values[1:] += x0
    return BrownianPath(
        n=n,
        values=values,
        master_seed=master_seed,
        sample_index=sample_index,
        purpose=purpose,
    )
