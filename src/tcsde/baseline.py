"""Euler-Maruyama reference scheme on shared Brownian drivers.

The recursion X[k+1] = X[k] + sigma(k/n, X[k]) * dW[k] consumes the same
BrownianPath type at matching resolution, so coarse/fine comparisons share
driving noise by subsampling. Note the driver here lives on SDE time; the
time-change scheme's driver lives on Brownian time. The two schemes coincide
as processes only for sigma == 1, so cross-scheme experiments compare each
scheme's self-convergence rate, never pathwise differences.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .brownian import BrownianPath
from .diffusion import DiffusionCoefficient
from .timechange import PiecewiseLinearPath

__all__ = ["em_simulate"]


def em_simulate(
    sigma: DiffusionCoefficient,
    driver: BrownianPath,
    sde_horizon: float,
    x0: float,
) -> PiecewiseLinearPath:
    """Run the recursion over ceil(n*T) steps of the driver's increments.

    At least one, so the path reaches T however small n*T is. The iterates
    sit at SDE times k/n; the comparison path is their linear interpolation.
    """
    if sde_horizon <= 0:
        raise ValueError(f"sde_horizon must be positive, got {sde_horizon}")
    n = driver.n
    steps = max(1, math.ceil(n * sde_horizon - 1e-9))
    if driver.knot_count < steps + 1:
        raise ValueError(
            f"driver too short: {driver.knot_count} knots, need {steps + 1} "
            f"for horizon {sde_horizon} at resolution {n}"
        )
    increments = np.diff(driver.values[: steps + 1])
    values = _kernels.em_values_kind(sigma.kernel_kind, sigma.kernel_params, increments, n, x0)
    return PiecewiseLinearPath(np.arange(len(values)) / n, values, sde_horizon)
