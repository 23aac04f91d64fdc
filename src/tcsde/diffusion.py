"""Diffusion coefficients: the bounded-volatility contract and a test corpus.

A coefficient is a pure function sigma(t, x) together with declared bounds
0 < C1 <= sigma <= C2 and regularity metadata (spatial Hoelder exponent,
time Lipschitz constant). The solver only ever calls ``evaluate``; the
metadata labels experiments and selects theoretical overlay orders. The
bounds are a contract on the user, verified by sampling (``check_contract``)
and enforced opportunistically while the clock is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels

SMOOTH = "lipschitz-smooth"
HOLDER = "holder"

#: relative slack when testing declared bounds, so coefficients sitting
#: exactly on a bound (sigma == C1) are not flagged.
BOUND_TOL = 1e-12


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Immutable sigma(t, x) with declared bounds and regularity metadata.

    ``evaluate`` must be pure; instances are shared freely across workers.
    """

    evaluate: Callable[[float, float], float]
    c1: float
    c2: float
    holder_beta: float
    time_lipschitz: float
    smoothness: str
    label: str
    holder_const: Optional[float] = None
    evaluate_many: Optional[Callable] = None
    kernel_kind: Optional[int] = None
    kernel_params: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        if not self.c1 > 0:
            raise ValueError(f"lower bound must be positive, got {self.c1}")
        if self.c2 < self.c1:
            raise ValueError(f"bounds out of order: C1={self.c1} > C2={self.c2}")
        if not 0 < self.holder_beta <= 1:
            raise ValueError(f"holder_beta must lie in (0, 1], got {self.holder_beta}")
        if self.time_lipschitz < 0:
            raise ValueError("time_lipschitz must be >= 0")
        if self.smoothness not in (SMOOTH, HOLDER):
            raise ValueError(f"unknown smoothness class {self.smoothness!r}")
        object.__setattr__(
            self, "kernel_params", np.asarray(self.kernel_params, dtype=np.float64)
        )

    @property
    def bound_tolerance(self) -> float:
        return BOUND_TOL * max(1.0, self.c2)


def _fmt(params: Sequence[float]) -> str:
    return ",".join(f"{float(v):g}" for v in params)


def _kernel_sigma(kind: int, params: Sequence[float]) -> dict:
    """The evaluate / evaluate_many / kernel_kind / kernel_params fields of a
    builtin coefficient: one formula in _kernels, dispatched by kind."""
    p = np.zeros(4)
    p[: len(params)] = params
    return dict(
        evaluate=lambda t, x: _kernels._sigma_scalar(kind, p, t, x),
        evaluate_many=lambda t, x: _kernels.sigma_kind_vec(kind, p, t, x),
        kernel_kind=kind,
        kernel_params=p,
    )


def _build_constant(params):
    (c,) = params
    if c <= 0:
        raise ValueError(f"constant level must be positive, got {c}")
    return DiffusionCoefficient(
        c1=c,
        c2=c,
        holder_beta=1.0,
        time_lipschitz=0.0,
        smoothness=SMOOTH,
        label=f"constant({_fmt(params)})",
        holder_const=0.0,
        **_kernel_sigma(_kernels.KIND_CONSTANT, params),
    )


def _build_smooth_sin(params):
    a, b = params
    if not a > b > 0:
        raise ValueError(f"smooth-sin requires a > b > 0, got a={a}, b={b}")
    return DiffusionCoefficient(
        c1=a - b,
        c2=a + b,
        holder_beta=1.0,
        time_lipschitz=0.0,
        smoothness=SMOOTH,
        label=f"smooth-sin({_fmt(params)})",
        holder_const=b,
        **_kernel_sigma(_kernels.KIND_SMOOTH_SIN, params),
    )


def _build_time_smooth(params):
    a, b = params
    if not a > b > 0:
        raise ValueError(f"time-smooth requires a > b > 0, got a={a}, b={b}")
    return DiffusionCoefficient(
        c1=a - b,
        c2=a + b,
        holder_beta=1.0,
        time_lipschitz=b,
        smoothness=SMOOTH,
        label=f"time-smooth({_fmt(params)})",
        holder_const=b,
        **_kernel_sigma(_kernels.KIND_TIME_SMOOTH, params),
    )


def _build_holder_root(params):
    a, b, beta, _ = params
    if a <= 0 or b <= 0:
        raise ValueError(f"holder-root requires a, b > 0, got a={a}, b={b}")
    if not 0 < beta < 1:
        raise ValueError(f"holder-root requires beta in (0, 1), got {beta}")
    return DiffusionCoefficient(
        c1=a,
        c2=a + b,
        holder_beta=beta,
        time_lipschitz=0.0,
        smoothness=HOLDER,
        label=f"holder-root({_fmt(params)})",
        holder_const=1.0,
        **_kernel_sigma(_kernels.KIND_HOLDER_ROOT, params),
    )


def _build_step_mollified(params):
    lo, hi, _, width = params
    if lo <= 0 or hi <= 0:
        raise ValueError(f"step-mollified requires positive levels, got {lo}, {hi}")
    if width <= 0:
        raise ValueError(f"step-mollified requires positive ramp width, got {width}")
    return DiffusionCoefficient(
        c1=min(lo, hi),
        c2=max(lo, hi),
        holder_beta=1.0,
        time_lipschitz=0.0,
        smoothness=HOLDER,
        label=f"step-mollified({_fmt(params)})",
        holder_const=abs(hi - lo) / width,
        **_kernel_sigma(_kernels.KIND_STEP_MOLLIFIED, params),
    )


_CORPUS = {
    "constant": (_build_constant, 1),
    "smooth-sin": (_build_smooth_sin, 2),
    "time-smooth": (_build_time_smooth, 2),
    "holder-root": (_build_holder_root, 4),
    "step-mollified": (_build_step_mollified, 4),
}


def corpus_names() -> list[str]:
    return sorted(_CORPUS)


def builtin_coefficient(name: str, params: Sequence[float]) -> DiffusionCoefficient:
    """Build a corpus coefficient by name; raises ValueError for bad input."""
    if name not in _CORPUS:
        raise ValueError(
            f"unknown coefficient {name!r}; available: {', '.join(corpus_names())}"
        )
    builder, arity = _CORPUS[name]
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    return builder([float(v) for v in params])


@dataclass(frozen=True)
class ContractReport:
    """Result of sampling-based verification of a coefficient's contract."""

    label: str
    n_samples: int
    bound_violations: int
    worst_bound_excess: float
    worst_bound_at: tuple[float, float]
    worst_holder_ratio: float
    worst_holder_at: tuple[float, float, float]
    holder_violations: int

    @property
    def ok(self) -> bool:
        return self.bound_violations == 0 and self.holder_violations == 0


def check_contract(
    coeff: DiffusionCoefficient,
    samples: int = 10_000,
    seed: int = 0,
    domain: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 10.0), (-50.0, 50.0)),
) -> ContractReport:
    """Probe sigma on a quasi-random point set and report contract breaches.

    Each sample is a triple (t, x, y): both (t, x) and (t, y) are tested
    against the declared bounds, and the pair feeds the empirical spatial
    Hoelder ratio |sigma(t,x) - sigma(t,y)| / |x - y|^beta. Violations are
    reported, never raised. Deterministic for a given seed.
    """
    # imported here: scipy.stats takes most of the package's import time
    from scipy.stats import qmc

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    (t_lo, t_hi), (x_lo, x_hi) = domain
    u = qmc.Halton(d=3, scramble=True, seed=seed).random(samples)
    t = t_lo + u[:, 0] * (t_hi - t_lo)
    x = x_lo + u[:, 1] * (x_hi - x_lo)
    y = x_lo + u[:, 2] * (x_hi - x_lo)

    if coeff.evaluate_many is not None:
        sx = np.asarray(coeff.evaluate_many(t, x), dtype=np.float64)
        sy = np.asarray(coeff.evaluate_many(t, y), dtype=np.float64)
    else:
        sx = np.array([coeff.evaluate(ti, xi) for ti, xi in zip(t, x)])
        sy = np.array([coeff.evaluate(ti, yi) for ti, yi in zip(t, y)])

    tol = coeff.bound_tolerance
    excess_x = np.maximum(coeff.c1 - sx, sx - coeff.c2)
    excess_y = np.maximum(coeff.c1 - sy, sy - coeff.c2)
    excess = np.maximum(excess_x, excess_y)
    violating = excess > tol
    i_worst = int(np.argmax(excess))
    worst_at = (
        float(t[i_worst]),
        float(x[i_worst] if excess_x[i_worst] >= excess_y[i_worst] else y[i_worst]),
    )

    gap = np.abs(x - y)
    usable = gap > 0
    ratio = np.zeros_like(gap)
    ratio[usable] = np.abs(sx[usable] - sy[usable]) / gap[usable] ** coeff.holder_beta
    j_worst = int(np.argmax(ratio))
    holder_violations = 0
    if coeff.holder_const is not None:
        holder_tol = 1e-9 * max(1.0, coeff.holder_const)
        holder_violations = int(np.count_nonzero(ratio > coeff.holder_const + holder_tol))

    return ContractReport(
        label=coeff.label,
        n_samples=samples,
        bound_violations=int(np.count_nonzero(violating)),
        worst_bound_excess=float(max(excess[i_worst], 0.0)),
        worst_bound_at=worst_at,
        worst_holder_ratio=float(ratio[j_worst]),
        worst_holder_at=(float(t[j_worst]), float(x[j_worst]), float(y[j_worst])),
        holder_violations=holder_violations,
    )
