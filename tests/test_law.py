"""Law anchors: the scheme's X_T against a closed-form law and against
Euler-Maruyama's, not only against finer levels of itself.

Oscillating Brownian motion (J. Keilson and J. A. Wellner, "Oscillating
Brownian motion", J. Appl. Probab. 15, 1978) solves dX = sigma(X) dW with
sigma = s1 for x < 0 and s2 for x > 0. It is a martingale, so its scale
function is the identity, and Y = X / s1 for X < 0, X / s2 for X > 0, is a
standard Brownian motion on each half-line. Its scale function is s1 y for
y < 0 and s2 y for y > 0, so from 0 it reaches +e before -e with probability
alpha = s1 / (s1 + s2): Y is skew Brownian motion with parameter alpha, whose
density at time T is 2 alpha phi_T(y) for y > 0 and 2 (1 - alpha) phi_T(y) for
y < 0, phi_T the N(0, T) density. Mapping back through X = s2 Y and X = s1 Y,
from x0 = 0:

    P(X_T > 0) = s1 / (s1 + s2),
    F(x) = (2 s2 / (s1 + s2)) Phi(x / (s1 sqrt(T)))                    x < 0,
    F(x) = s2 / (s1 + s2) + (2 s1 / (s1 + s2)) (Phi(x / (s2 sqrt(T))) - 1/2)
                                                                       x > 0.

step-mollified (s1, s2, 0, 1e-9) is that sigma but on a ramp 1e-9 wide. The
scheme reads X_T = X(T) off each sample's clock with pl_eval_many's
arithmetic, and a one-sample Kolmogorov-Smirnov test compares the samples with
F. The seed, the sample count, n and the threshold p > 1e-3 were fixed before
the first run. The test has power: a ramp 0.5 wide, which is a different
process, fails it (p = 2.4e-6), and so does a clock stepped at 1 / sigma
instead of 1 / sigma^2.

Where Euler-Maruyama converges (beta >= 1/2), both schemes approximate the
one weak solution, so their X_T share one law. For smooth-sin (2, 1) and
holder-root (1, 1, 0.6, 0) and (2, 1, 0.6, 0), a two-sample
Kolmogorov-Smirnov test compares the time change's X_T with
Euler-Maruyama's, each scheme on its own Philox purpose, for the same samples
at the same n, with the same threshold, fixed before the first run. A clock
stepped at 1 / sigma fails the smooth-sin case (p = 1.8e-14) and the
holder-root case whose sigma lies in [2, 3] (p = 1.4e-14). With sigma in
[1, 2], near 1, where 1 / sigma and 1 / sigma^2 barely differ, holder-root
(1, 1, 0.6, 0) does not tell it apart at this size (p = 0.0012).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest, norm

from strategies import SEED
from tcsde import _kernels
from tcsde.baseline import em_simulate
from tcsde.brownian import generate_path
from tcsde.diffusion import builtin_coefficient
from tcsde.experiment import PURPOSE_EULER_MARUYAMA, PURPOSE_TIME_CHANGE
from tcsde.timechange import build_time_change, required_horizon

S1, S2, T, N, SAMPLES = 1.0, 3.0, 1.0, 128, 2000


def _oscillating_cdf(x):
    x = np.asarray(x, dtype=np.float64)
    below = 2 * S2 / (S1 + S2) * norm.cdf(x / (S1 * np.sqrt(T)))
    above = S2 / (S1 + S2) + 2 * S1 / (S1 + S2) * (norm.cdf(x / (S2 * np.sqrt(T))) - 0.5)
    return np.where(x < 0, below, above)


def _step(width):
    return builtin_coefficient("step-mollified", [S1, S2, 0.0, width])


def _x_at_t(coeff):
    # X_T of samples 0..SAMPLES-1 by the time change, each on the driver the
    # experiment draws for a ladder from N
    horizon = required_horizon(coeff, T, N)
    xs = np.empty(SAMPLES)
    for i in range(SAMPLES):
        driver = generate_path(N, horizon, 0.0, SEED, i, PURPOSE_TIME_CHANGE)
        clock = build_time_change(driver, coeff, T).clock
        xs[i] = _kernels.pl_eval_many(clock, driver.values[: clock.shape[0]], [T])[0]
    return xs


def _em_x_at_t(coeff):
    # X_T of samples 0..SAMPLES-1 by Euler-Maruyama at N, as the experiment
    # draws its drivers
    xs = np.empty(SAMPLES)
    for i in range(SAMPLES):
        driver = generate_path(N, T, 0.0, SEED, i, PURPOSE_EULER_MARUYAMA)
        xs[i] = em_simulate(coeff, driver, T, 0.0).y[-1]
    return xs


def test_step_sigma_gives_oscillating_brownian_motion_at_t():
    xs = _x_at_t(_step(1e-9))
    assert kstest(xs, _oscillating_cdf).pvalue > 1e-3
    # the anchor has power: a wide ramp is another process, and it fails
    assert kstest(_x_at_t(_step(0.5)), _oscillating_cdf).pvalue <= 1e-3


@pytest.mark.parametrize(
    "name,params",
    [
        ("smooth-sin", [2.0, 1.0]),
        ("holder-root", [1.0, 1.0, 0.6, 0.0]),
        ("holder-root", [2.0, 1.0, 0.6, 0.0]),
    ],
    ids=["smooth-sin", "holder-root-0.6", "holder-root-0.6-from-2"],
)
def test_time_change_and_euler_maruyama_share_the_law_at_t(name, params):
    coeff = builtin_coefficient(name, params)
    assert ks_2samp(_x_at_t(coeff), _em_x_at_t(coeff)).pvalue > 1e-3
