"""Coupled Monte Carlo strong-error estimation and empirical rate regression.

One sample draws a single fine Brownian driver, builds the reference path at
the finest resolution and every ladder path by subsampling the same driver,
and takes the exact sup over [0, T] of each |coarse - reference| difference.
Both paths are piecewise linear in SDE time, so the sup of their difference
is attained at a breakpoint of one of them or at T: reading each path at the
other's breakpoints is exact, no dense grid needed.

The L^p estimator is the plain Monte Carlo mean of p-th powers; the reported
order is the least-squares slope of log(mean error) against log(1/n).
Aggregation runs in sample-index order, so reports are bit-identical for any
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__, _kernels
from .baseline import em_simulate
from .brownian import generate_path
from .diffusion import DiffusionCoefficient, builtin_coefficient
from .errors import ConfigError, ExperimentError, TcsdeError
from .timechange import (
    PiecewiseLinearPath,
    SamplePath,
    build_time_change,
    required_horizon,
)

__all__ = [
    "SCHEME_TIME_CHANGE",
    "SCHEME_EULER_MARUYAMA",
    "SCHEME_COMPARE",
    "ExperimentConfig",
    "SampleResult",
    "sample_paths",
    "blame_sample",
    "strong_error_one_sample",
    "run_experiment",
    "fit_loglog",
]

SCHEME_TIME_CHANGE = "time-change"
SCHEME_EULER_MARUYAMA = "euler-maruyama"
SCHEME_COMPARE = "compare"
_SCHEMES = (SCHEME_TIME_CHANGE, SCHEME_EULER_MARUYAMA, SCHEME_COMPARE)

#: Philox stream tags, keeping the two schemes' drivers on disjoint streams
PURPOSE_TIME_CHANGE = 0
PURPOSE_EULER_MARUYAMA = 1

#: overlay exponent: the guaranteed orders hold for every exponent below 1/2,
#: so the overlay reports the best guaranteed order at alpha = 0.49
OVERLAY_ALPHA = 0.49

#: resolutions whose mean error sits below this floor are excluded from the
#: regression; they measure rounding noise, not convergence
ERROR_FLOOR = 1e-12


def _integer(v):
    """Parser of an integer key: refuses a number with a fractional part,
    which int() would truncate."""
    if not isinstance(v, str) and v != int(v):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _list_of(item):
    """Parser of a list key: a comma-separated string or a sequence."""
    return lambda v: tuple(map(item, v.split(",") if isinstance(v, str) else v))


def _ladder(v):
    """Parser of ``resolutions``: the sorted distinct integers of a list."""
    return tuple(sorted(set(_list_of(_integer)(v))))


#: (config key, ExperimentConfig field, parser, requirement, its text) for
#: every config key; only ``scheme`` may be left out, and then takes the
#: field's default. Every ExperimentConfig runs each field through its parser
#: and its requirement, however it was built; ``coefficient`` is checked by
#: build_coefficient
_KEYS = (
    ("coefficient", "coefficient", str, lambda v: True, ""),
    ("params", "params", _list_of(float), lambda v: all(map(math.isfinite, v)),
     "must be finite"),
    ("T", "sde_horizon", float, lambda v: math.isfinite(v) and v > 0,
     "must be positive and finite"),
    ("x0", "x0", float, math.isfinite, "must be finite"),
    ("resolutions", "resolutions", _ladder, lambda v: len(v) > 0 and v[0] >= 1,
     "must be at least one integer, each >= 1"),
    ("ref_resolution", "ref_resolution", _integer, lambda v: v >= 1, "must be >= 1"),
    ("p", "p", float, lambda v: math.isfinite(v) and v >= 1, "must be finite and >= 1"),
    ("samples", "samples", _integer, lambda v: v >= 1, "must be >= 1"),
    ("master_seed", "master_seed", _integer, lambda v: 0 <= v < 2**64,
     "must lie in [0, 2^64) (one Philox key word)"),
    ("scheme", "scheme", str, lambda v: v in _SCHEMES,
     f"must be one of {', '.join(_SCHEMES)}"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rate experiment; see README for the file format."""

    coefficient: str
    params: tuple[float, ...]
    sde_horizon: float
    x0: float
    resolutions: tuple[int, ...]
    ref_resolution: int
    p: float
    samples: int
    master_seed: int
    scheme: str = SCHEME_TIME_CHANGE

    def __post_init__(self):
        for key, name, parse, ok, need in _KEYS:
            value = getattr(self, name)
            try:
                value = parse(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: malformed value {value!r} ({exc})") from exc
            if not ok(value):
                raise ConfigError(f"{key}: {need}, got {value!r}")
            object.__setattr__(self, name, value)
        for n in self.resolutions:
            if self.ref_resolution % n != 0:
                raise ConfigError(
                    f"resolutions: n={n} does not divide ref_resolution="
                    f"{self.ref_resolution}"
                )

    def build_coefficient(self) -> DiffusionCoefficient:
        """The configured coefficient. Raises ConfigError for params its kind
        refuses, for a T whose driver numpy cannot index, and for a
        ref_resolution at which one sample outgrows physical memory."""
        try:
            coeff = builtin_coefficient(self.coefficient, self.params)
        except ValueError as exc:
            raise ConfigError(f"coefficient: {exc}") from exc
        schemes = [s for s in (SCHEME_TIME_CHANGE, SCHEME_EULER_MARUYAMA)
                   if self.scheme in (s, SCHEME_COMPARE)]
        horizon = max(_driver_horizon(self, coeff, s) for s in schemes)
        # the driver holds ref_resolution * horizon + 1 knots
        if not horizon < np.iinfo(np.intp).max / self.ref_resolution:
            raise ConfigError(
                f"T: {self.sde_horizon} needs a driver of Brownian horizon {horizon:g} "
                f"at ref_resolution {self.ref_resolution}, more knots than numpy can index"
            )
        need, memory = max(_sample_bytes(self, coeff, s) for s in schemes), _physical_memory()
        if need > memory:
            raise ConfigError(
                f"ref_resolution: {self.ref_resolution} needs a driver of Brownian horizon "
                f"{horizon:g}, and a sample on it holds {need / 2**30:.4g} GiB, more than "
                f"the {memory / 2**30:.4g} GiB of physical memory"
            )
        return coeff

    def validate_for_run(self) -> DiffusionCoefficient:
        """The configured coefficient, once every requirement of a full
        experiment run holds; raises ConfigError before any sample or output
        otherwise. Only the errors reveal a too-large p, an x0 or T that
        sinks every level below ERROR_FLOOR, or a level of all-zero errors."""
        if self.samples < 2:
            raise ConfigError(f"samples: a rate run needs >= 2 samples, got {self.samples}")
        if len(self.resolutions) < 2:
            raise ConfigError(f"resolutions: a rate run needs >= 2 distinct resolutions, "
                              f"got {list(self.resolutions)}")
        if self.ref_resolution < 4 * max(self.resolutions):
            raise ConfigError(
                f"ref_resolution: {self.ref_resolution} must be at least 4x the "
                f"largest of resolutions, {max(self.resolutions)}"
            )
        coeff = self.build_coefficient()
        if self.scheme != SCHEME_TIME_CHANGE and coeff.holder_beta < 0.5:
            raise ConfigError(
                "scheme: the Euler-Maruyama baseline requires a spatial "
                f"Hoelder exponent >= 0.5 (got beta={coeff.holder_beta}); no strong "
                "convergence target is available for rougher coefficients, so a "
                "self-convergence slope would not measure a limit object"
            )
        return coeff

    def to_mapping(self) -> dict:
        mapping = {key: getattr(self, name) for key, name, *_ in _KEYS}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in mapping.items()}

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "ExperimentConfig":
        keys = {key for key, *_ in _KEYS}
        unknown = set(mapping) - keys
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        missing = keys - set(mapping) - {"scheme"}
        if missing:
            raise ConfigError(f"missing config key(s): {', '.join(sorted(missing))}")
        return cls(**{name: mapping[key] for key, name, *_ in _KEYS if key in mapping})


@dataclass(frozen=True)
class SampleResult:
    """Per-sample coupled sup-errors, one entry per ladder resolution.

    Entry i belongs to config.resolutions[i]; results travel in index order.
    For the time-change scheme, bound_excess is the largest amount, over the
    levels, by which the inverse-clock discrepancy against the reference
    exceeds C2^2 times the clock discrepancy; the acceptance suite checks on
    every sample that it is at most 1e-10.
    """

    sup_errors: np.ndarray
    bound_excess: Optional[float] = None


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _driver_horizon(config: ExperimentConfig, coeff: DiffusionCoefficient, scheme: str) -> float:
    """Brownian horizon of the one driver sample_paths draws for scheme."""
    if scheme == SCHEME_EULER_MARUYAMA:
        return config.sde_horizon + 2.0 / min(config.resolutions)
    return required_horizon(coeff, config.sde_horizon, min(config.resolutions))


def _sample_bytes(config: ExperimentConfig, coeff: DiffusionCoefficient, scheme: str) -> float:
    """Most bytes one sample of scheme holds: a rate a knot of every level's
    driver, which is the drawn reference driver or a copy of its every
    (ref_resolution / n)-th knot.

    An array takes 8 B a knot, a Python float 24, and a list 8 a pointer and
    up to 1 more as it grows. Euler-Maruyama holds the most while it steps a
    level: the driver, the increments, the knot times, the iterates' list and
    its copy with x0 in front; their array comes once the first list is
    freed, and each level's path (16) once its lists are. The time change
    holds the driver (16 while it is drawn), its clocks and the reference's
    Brownian times, 8 each. It holds the most while the loop builds a clock: the
    driver, the clock's list and its array. The sweep's buffer takes 8, and a
    sup holds about 16 B a knot of the denser path up to t_hi.
    """
    horizon = _driver_horizon(config, coeff, scheme)
    knots = sum(n * horizon + 1 for n in (config.ref_resolution,) + config.resolutions)
    if scheme == SCHEME_EULER_MARUYAMA:
        return (8 + 8 + 8 + (24 + 9) + 8) * knots
    return (8 + (24 + 9) + 8) * knots


def sample_paths(
    config: ExperimentConfig, coeff: DiffusionCoefficient, sample_index: int
) -> dict[int, PiecewiseLinearPath]:
    """The reference and every ladder path of one sample, keyed by resolution.

    All of them run on subsamples of one seeded driver at ref_resolution, so
    they share a single Brownian realization. Each scheme draws on its own
    Philox purpose; Euler-Maruyama reads only the driver's increments, so its
    driver starts at 0. It is drawn once, to _driver_horizon, and each clock
    is built once on it; a clock that outran it would fail the sample.
    """
    if not 0 <= sample_index < config.samples:
        raise ConfigError(
            f"sample index {sample_index} outside the configured range "
            f"[0, {config.samples})"
        )
    t_end = config.sde_horizon
    ref = config.ref_resolution
    resolutions = (ref,) + config.resolutions
    em = config.scheme == SCHEME_EULER_MARUYAMA
    purpose = PURPOSE_EULER_MARUYAMA if em else PURPOSE_TIME_CHANGE
    fine = generate_path(ref, _driver_horizon(config, coeff, config.scheme),
                         0.0 if em else config.x0, config.master_seed, sample_index, purpose)
    if em:
        return {
            n: em_simulate(coeff, fine.subsample(ref // n), t_end, config.x0)
            for n in resolutions
        }
    paths = {}
    for n in resolutions:
        driver = fine.subsample(ref // n)
        tc = build_time_change(driver, coeff, t_end)
        paths[n] = SamplePath(driver=driver, time_change=tc, sde_horizon=t_end)
    return paths


def _tc_sample(config: ExperimentConfig, coeff, sample_index: int) -> SampleResult:
    paths = sample_paths(config, coeff, sample_index)
    ref = paths[config.ref_resolution]
    ref_s = np.arange(ref.knot_count) / config.ref_resolution
    s_cap = config.sde_horizon * coeff.c2**2
    errors = np.empty(len(config.resolutions))
    excess = -np.inf
    for i, n in enumerate(config.resolutions):
        path = paths[n]
        s = np.arange(path.knot_count) / n
        errors[i] = _kernels.pl_sup_abs_diff(path.t, path.y, ref.t, ref.y, config.sde_horizon)
        # inverse clocks are piecewise linear in SDE time with knots
        # (clock value, brownian time k/n); clocks are piecewise linear in
        # brownian time, compared up to C2^2 * T on the common domain
        inv_sup = _kernels.pl_sup_abs_diff(path.t, s, ref.t, ref_s, config.sde_horizon)
        s_hi = min(s[-1], ref_s[-1], s_cap)
        clk_sup = _kernels.pl_sup_abs_diff(s, path.t, ref_s, ref.t, s_hi)
        excess = max(excess, inv_sup - coeff.c2**2 * clk_sup)
    return SampleResult(errors, excess)


def _em_sample(config: ExperimentConfig, coeff, sample_index: int) -> SampleResult:
    paths = sample_paths(config, coeff, sample_index)
    ref = paths[config.ref_resolution]
    return SampleResult(np.array([_kernels.pl_sup_abs_diff(
        paths[n].t, paths[n].y, ref.t, ref.y, config.sde_horizon) for n in config.resolutions]))


def _sample(config: ExperimentConfig, coeff, sample_index: int) -> SampleResult:
    # the sampler is looked up at call time, so a patched one is the one run
    sampler = _em_sample if config.scheme == SCHEME_EULER_MARUYAMA else _tc_sample
    return sampler(config, coeff, sample_index)


def strong_error_one_sample(config: ExperimentConfig, sample_index: int) -> SampleResult:
    """Coupled sup-errors of one seeded sample, on a coefficient it builds itself."""
    return _sample(config, config.build_coefficient(), sample_index)


def _origin_module(exc: Exception) -> str:
    """Deepest package module on the exception's traceback."""
    tb = exc.__traceback__
    module = "experiment"
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("tcsde.") and not name.startswith("tcsde._"):
            module = name.split(".", 1)[1]
        tb = tb.tb_next
    return module


def blame_sample(sample_index: int, func, *args):
    """func(*args), where any failure but a config error is raised as an
    ExperimentError naming the sample and the module it failed in."""
    try:
        return func(*args)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - reported with the sample index
        message = str(exc) or type(exc).__name__  # a bare MemoryError has no text
        raise ExperimentError(sample_index, _origin_module(exc), message) from exc


def _run_sample(config: ExperimentConfig, coeff, sample_index: int) -> SampleResult:
    # module-level so process pools can pickle it; the error it raises
    # pickles by its fields, so a pool re-raises it unchanged
    return blame_sample(sample_index, _sample, config, coeff, sample_index)


def fit_loglog(resolutions: Sequence[int], errors: Sequence[float]) -> tuple[float, float]:
    """OLS slope and its standard error for log(error) against log(1/n); the
    stderr is 0.0 at two resolutions, which leave no residual to read it from."""
    x = np.log(1.0 / np.asarray(resolutions, dtype=np.float64))
    y = np.log(np.asarray(errors, dtype=np.float64))
    if len(x) < 2:
        raise ValueError("rate regression needs at least two resolutions")
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    dof = len(x) - 2
    if dof <= 0:
        return slope, 0.0
    resid = y - (y.mean() + slope * xc)
    stderr = float(np.sqrt(np.sum(resid * resid) / dof / sxx))
    return slope, stderr


def _collect(config: ExperimentConfig, coeff, jobs: int) -> list[SampleResult]:
    """Every sample's result in index order; raises at the first failing index.

    At most one worker per sample: a pool forks all its workers at once.
    """
    indices = range(config.samples)
    jobs = min(jobs, config.samples)
    if jobs <= 1:
        return [_run_sample(config, coeff, i) for i in indices]
    chunk = max(1, config.samples // (jobs * 8))
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(partial(_run_sample, config, coeff), indices, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise TcsdeError(f"a worker process died: {exc}") from exc


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x**e elementwise, with the same bytes on every CPU.

    numpy's ** is exact on every CPU only where it reduces to reciprocal,
    ones, sqrt, copy or square; other exponents may take a SIMD pow that
    differs from libm's by CPU. np.float_power is libm's pow, but at e = 2 it
    differs from x*x, so the fast paths keep numpy's **.
    """
    return x**e if e in (-1.0, 0.0, 0.5, 1.0, 2.0) else np.float_power(x, e)


def run_experiment(config: ExperimentConfig, jobs: Optional[int] = None) -> dict:
    """Estimate L^p sup-errors over the ladder and regress the empirical order.

    Returns the payload of report.json (see README's report schema). Under
    the compare scheme the whole config is checked first, then each scheme
    runs on its own and the two reports are nested under time_change and
    euler_maruyama. Deterministic for a given master_seed, independent of
    ``jobs``: samples are keyed by index and reduced in index order.
    """
    coeff = config.validate_for_run()
    if config.scheme == SCHEME_COMPARE:
        schemes = {"time_change": SCHEME_TIME_CHANGE, "euler_maruyama": SCHEME_EULER_MARUYAMA}
        return {k: run_experiment(replace(config, scheme=s), jobs) for k, s in schemes.items()}
    jobs = 1 if jobs is None else max(1, int(jobs))
    results = _collect(config, coeff, jobs)

    errs = np.stack([r.sup_errors for r in results])
    p = config.p
    # A large p can overflow or underflow errs**p, and so can tiny or huge
    # errors: where that loses a level's L^p mean or stderr, it is read again
    # from errs / max and scaled back. It is refused, not warned about, if that
    # fails too, or a positive error's scaled power is below eps, so that it
    # drops out of the mean in rounding.
    passes = []
    with np.errstate(all="ignore"):
        for scale in (1.0, errs.max(axis=0)):
            powered = _power(errs / scale, p)
            lp_mean = _power(np.mean(powered, axis=0), 1.0 / p)
            se_pow = np.std(powered, axis=0, ddof=1) / np.sqrt(config.samples)
            # delta method: d/dm m^(1/p) = (1/p) m^(1/p - 1)
            stderr = np.where(lp_mean > 0, _power(lp_mean, 1.0 - p) / p * se_pow, 0.0) * scale
            lp_mean = lp_mean * scale
            lost = (np.any(errs > 0, axis=0) & (lp_mean == 0)) | ~np.isfinite(lp_mean + stderr)
            lost |= (se_pow == 0) & (powered.max(axis=0) > powered.min(axis=0))
            passes.append((lp_mean, stderr, lost))
    (lp_mean, stderr, lost), (lp_s, se_s, lost_s) = passes
    lp_mean, stderr = np.where(lost, lp_s, lp_mean), np.where(lost, se_s, stderr)
    lost &= lost_s | np.any((errs > 0) & (powered < 2.0**-52), axis=0)
    if lost.any():
        n = config.resolutions[int(np.argmax(lost))]
        raise ConfigError(
            f"p: {p} is too large: at n={n} the L^p mean error or its stderr "
            "leaves the float64 range"
        )

    usable = lp_mean >= ERROR_FLOOR
    excluded = [int(n) for n, u in zip(config.resolutions, usable) if not u]
    ns_fit = np.asarray(config.resolutions)[usable]
    if len(ns_fit) < 2:
        raise TcsdeError(f"fewer than two resolutions above the error floor {ERROR_FLOOR}")
    if not lp_mean.all():
        n = config.resolutions[int(np.argmin(lp_mean))]
        raise TcsdeError(
            f"at n={n} every sample's error is exactly 0, so no order can be "
            "measured there (are the increments lost in the rounding of x0?)"
        )
    fitted, fit_se = fit_loglog(ns_fit, lp_mean[usable])

    diagnostics = {
        "excluded_resolutions": excluded,
        "c2_squared": coeff.c2**2,
        "lanes": "numpy",
    }
    if results[0].bound_excess is not None:
        diagnostics["inverse_clock_bound_max_excess"] = max(r.bound_excess for r in results)

    return {
        "scheme": config.scheme,
        "per_resolution": [
            {"n": int(n), "mean_error": float(e), "stderr": float(se)}
            for n, e, se in zip(config.resolutions, lp_mean, stderr)
        ],
        "fitted_order": fitted,
        "fit_stderr": fit_se,
        "theoretical_orders": {
            "holder": OVERLAY_ALPHA**2 * coeff.holder_beta,
            "smooth": OVERLAY_ALPHA,
        },
        "diagnostics": diagnostics,
        "metadata": {"config": config.to_mapping(), "tool_version": f"tcsde {__version__}"},
    }
