"""Strong simulation of driftless scalar SDEs dX = sigma(t, X) dW by time change.

A unit-rate Brownian driver is run on its own clock: the SDE time elapsed
after Brownian time s accumulates at rate 1/sigma^2(clock, driver), so
inverting the clock and reading the driver's linear interpolant at the
inverted time yields an approximate solution path. Because the construction
approximates the weak solution, it applies to bounded, spatially
Hoelder-continuous coefficients of any exponent in (0, 1], including the
rough regime where strong solutions (and hence classical strong-rate
schemes) are unavailable.

The experiment harness measures strong L^p sup-errors against coupled
fine-resolution references, regresses empirical convergence orders, and can
run an Euler-Maruyama baseline on the same driver streams for comparison.
"""

__version__ = "0.1.0"

# No numba lane: the kernels are numpy only. perfbench/worker.py::lane() reads
# this name to stamp the lane, and perfbench/pins.json is keyed by "numpy".
USING_NUMBA = False
