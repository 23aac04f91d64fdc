"""Diffusion coefficients: the bounded-volatility contract and a test corpus.

A coefficient is a builtin kernel kind (one formula in ``_kernels``) with its
params, together with declared bounds 0 < C1 <= sigma <= C2 and regularity
metadata (spatial Hoelder exponent and constant, time Lipschitz constant).
The kernels dispatch on the kind; ``evaluate`` reads the same scalar formula.
The metadata labels experiments and selects theoretical overlay orders. The
bounds are a contract, enforced while the clock is built; the test suite
verifies the corpus against them by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels

SMOOTH = "lipschitz-smooth"
HOLDER = "holder"

#: relative slack when testing declared bounds, so coefficients sitting
#: exactly on a bound (sigma == C1) are not flagged.
BOUND_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiffusionCoefficient:
    """Immutable sigma(t, x) of a builtin kind, with declared bounds and
    regularity metadata; instances are shared freely across workers.

    ``kernel_params`` is padded with zeros to the 4 slots every kind reads.
    Instances compare by identity: a field-wise ``==`` would ask the params
    array for a truth value, which raises.
    """

    kernel_kind: int
    kernel_params: np.ndarray
    c1: float
    c2: float
    holder_beta: float
    time_lipschitz: float
    smoothness: str
    label: str
    holder_const: float

    def __post_init__(self):
        if self.kernel_kind not in _kernels.KINDS:
            raise ValueError(f"unknown coefficient kind {self.kernel_kind!r}")
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
        params = np.zeros(4)
        params[: len(self.kernel_params)] = self.kernel_params
        object.__setattr__(self, "kernel_params", params)

    def evaluate(self, t: float, x: float) -> float:
        """sigma(t, x), by the scalar formula the interpreted loops use."""
        return _kernels._sigma_scalar(self.kernel_kind, self.kernel_params, t, x)

    @property
    def bound_tolerance(self) -> float:
        return BOUND_TOL * max(1.0, self.c2)


def _fmt(params: Sequence[float]) -> str:
    return ",".join(f"{float(v):g}" for v in params)


def _build_constant(params):
    (c,) = params
    if c <= 0:
        raise ValueError(f"constant level must be positive, got {c}")
    return dict(
        c1=c,
        c2=c,
        holder_beta=1.0,
        time_lipschitz=0.0,
        smoothness=SMOOTH,
        holder_const=0.0,
    )


def _build_smooth_sin(params):
    a, b = params
    if not a > b > 0:
        raise ValueError(f"smooth-sin requires a > b > 0, got a={a}, b={b}")
    return dict(
        c1=a - b,
        c2=a + b,
        holder_beta=1.0,
        time_lipschitz=0.0,
        smoothness=SMOOTH,
        holder_const=b,
    )


def _build_time_smooth(params):
    a, b = params
    if not a > b > 0:
        raise ValueError(f"time-smooth requires a > b > 0, got a={a}, b={b}")
    return dict(
        c1=a - b,
        c2=a + b,
        holder_beta=1.0,
        time_lipschitz=b,
        smoothness=SMOOTH,
        holder_const=b,
    )


def _build_holder_root(params):
    a, b, beta, _ = params
    if a <= 0 or b <= 0:
        raise ValueError(f"holder-root requires a, b > 0, got a={a}, b={b}")
    if not 0 < beta < 1:
        raise ValueError(f"holder-root requires beta in (0, 1), got {beta}")
    return dict(
        c1=a,
        c2=a + b,
        holder_beta=beta,
        time_lipschitz=0.0,
        smoothness=HOLDER,
        holder_const=1.0,
    )


def _build_step_mollified(params):
    lo, hi, _, width = params
    if lo <= 0 or hi <= 0:
        raise ValueError(f"step-mollified requires positive levels, got {lo}, {hi}")
    if width <= 0:
        raise ValueError(f"step-mollified requires positive ramp width, got {width}")
    return dict(
        c1=min(lo, hi),
        c2=max(lo, hi),
        holder_beta=1.0,
        time_lipschitz=0.0,
        smoothness=HOLDER,
        holder_const=abs(hi - lo) / width,
    )


#: name -> (kernel kind, builder, arity). A builder checks its kind's params
#: and returns the declared bounds and regularity metadata.
_CORPUS = {
    "constant": (_kernels.KIND_CONSTANT, _build_constant, 1),
    "smooth-sin": (_kernels.KIND_SMOOTH_SIN, _build_smooth_sin, 2),
    "time-smooth": (_kernels.KIND_TIME_SMOOTH, _build_time_smooth, 2),
    "holder-root": (_kernels.KIND_HOLDER_ROOT, _build_holder_root, 4),
    "step-mollified": (_kernels.KIND_STEP_MOLLIFIED, _build_step_mollified, 4),
}


def corpus_names() -> list[str]:
    return sorted(_CORPUS)


def builtin_coefficient(name: str, params: Sequence[float]) -> DiffusionCoefficient:
    """Build a corpus coefficient by name; raises ValueError for bad input."""
    if name not in _CORPUS:
        raise ValueError(
            f"unknown coefficient {name!r}; available: {', '.join(corpus_names())}"
        )
    kind, builder, arity = _CORPUS[name]
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    params = [float(v) for v in params]
    return DiffusionCoefficient(
        kernel_kind=kind, kernel_params=params, label=f"{name}({_fmt(params)})", **builder(params)
    )
