"""The core scheme: a random clock run on Brownian time, and its inverse.

The SDE solution is the Brownian driver read at a reparameterized time: the
clock maps Brownian time s to the SDE time accumulated at rate
1/sigma^2(clock(s), driver(s)). It is integrated by explicit Euler on the
driver's knot grid, stopping at the first knot where the clock passes the
requested SDE horizon. The clock is piecewise linear and strictly increasing,
so its inverse is available in closed form per knot interval; the approximate
solution evaluates the driver's linear interpolant at the inverted time.

Because both the clock and the driver interpolant are piecewise linear, the
approximate solution itself is piecewise linear in SDE time with breakpoints
exactly at the clock's knot values, which the error harness exploits to take
exact sup-norms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import _kernels
from .brownian import BrownianPath
from .brownian import generate_path  # noqa: F401 - bound for perfbench/tracing.py
from .diffusion import DiffusionCoefficient
from .errors import ContractViolationError, PathExhaustedError

__all__ = [
    "PiecewiseLinearPath",
    "TimeChangePath",
    "SamplePath",
    "build_time_change",
    "required_horizon",
    "write_solution_csv",
]


@dataclass(frozen=True)
class TimeChangePath:
    """Euler solution of the clock ODE on the grid k/n, up to the first knot >= T."""

    n: int
    clock: np.ndarray

    def __post_init__(self):
        clock = np.ascontiguousarray(self.clock, dtype=np.float64)
        clock.flags.writeable = False
        object.__setattr__(self, "clock", clock)

    @property
    def knot_count(self) -> int:
        return len(self.clock)

    @property
    def knots_s(self) -> np.ndarray:
        """Brownian-time knots 0, 1/n, ..., K/n."""
        return np.arange(self.knot_count) / self.n


def build_time_change(
    driver: BrownianPath, sigma: DiffusionCoefficient, sde_horizon: float
) -> TimeChangePath:
    """Integrate the clock along the driver until it first reaches sde_horizon.

    Raises PathExhaustedError when the driver has too few knots, and
    ContractViolationError when sigma leaves its bounds at a knot it visits.
    """
    if sde_horizon <= 0:
        raise ValueError(f"sde_horizon must be positive, got {sde_horizon}")
    buf, k, status = _kernels.clock_knots_kind(
        sigma.kernel_kind, sigma.kernel_params, driver.values, 1.0 / driver.n, sde_horizon,
        sigma.c1, sigma.c2, sigma.bound_tolerance,
    )
    if status == _kernels.BOUNDS_BREACH:
        t_bad = float(buf[k])
        x_bad = float(driver.values[k])
        raise ContractViolationError(
            f"{sigma.label}: value {sigma.evaluate(t_bad, x_bad)} at "
            f"(t={t_bad}, x={x_bad}) leaves its bounds "
            f"[{sigma.c1}, {sigma.c2}] (clock knot {k})"
        )
    if status == _kernels.EXHAUSTED:
        raise PathExhaustedError(
            f"driver ends at Brownian time {driver.horizon} with the clock at "
            f"{buf[k]} < {sde_horizon}"
        )
    return TimeChangePath(n=driver.n, clock=buf[: k + 1].copy())


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """A path in SDE time, linear between its knots (t, y), read on [0, T].

    The knot times ``t`` increase and the last one is >= T = ``sde_horizon``.
    """

    t: np.ndarray
    y: np.ndarray
    sde_horizon: float

    def __post_init__(self):
        for name in ("t", "y"):
            knots = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            knots.flags.writeable = False
            object.__setattr__(self, name, knots)

    @property
    def knot_count(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class SamplePath(PiecewiseLinearPath):
    """Approximate SDE solution: the driver's knots placed at the clock's values."""

    t: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    driver: BrownianPath
    time_change: TimeChangePath

    def __post_init__(self):
        if self.time_change.n != self.driver.n:
            raise ValueError(
                f"resolution mismatch: clock n={self.time_change.n}, "
                f"driver n={self.driver.n}"
            )
        if self.time_change.clock[-1] < self.sde_horizon:
            raise ValueError("clock does not cover the SDE horizon")
        object.__setattr__(self, "t", self.time_change.clock)
        object.__setattr__(self, "y", self.driver.values[: self.time_change.knot_count])


def required_horizon(sigma: DiffusionCoefficient, sde_horizon: float, n: int) -> float:
    """Brownian horizon within which every clock of a ladder from n reaches T.

    Every corpus formula stays in [C1, C2] as it rounds, since each builder
    derives C2 from that rounding, so each step is at least inv_n / fl(C2*C2).
    The 10% covers the rounding summed over any driver that build_coefficient's
    memory bound admits, and 2/n the overshoot knot of the coarsest level n.
    """
    return 1.1 * (sigma.c2**2 * sde_horizon) + 2.0 / n


def write_solution_csv(sample: PiecewiseLinearPath, stream: IO[str]) -> None:
    """Dump (t, x_hat) for plotting: the path's knots up to T as they are, and
    T, read with pl_eval_many's arithmetic, if no knot falls on it."""
    t, y, t_end = sample.t, sample.y, float(sample.sde_horizon)
    k = int(np.searchsorted(t, t_end, side="right"))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["t", "x_hat"])
    writer.writerows([repr(float(tk)), repr(float(yk))] for tk, yk in zip(t[:k], y[:k]))
    if t[k - 1] < t_end:
        writer.writerow([repr(t_end), repr(_kernels._read_at(t, y, k, t_end))])
