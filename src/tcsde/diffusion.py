"""Diffusion coefficients: the bounded-volatility contract and a test corpus.

A coefficient is a corpus name with its params, and nothing else is given.
The name picks one row of _CORPUS: the kind, which is the text of sigma(t, x)
that the kernels compile, and a builder, whose signature lists the params and
which checks them and derives from them the two facts the strong-rate
theorem needs: the bounds 0 < C1 <= sigma <= C2 and the spatial
Hoelder exponent beta, with the smoothness class that selects the
theoretical overlay. The bounds are enforced while the clock is built; the
test suite samples every kind against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels

SMOOTH = "lipschitz-smooth"
HOLDER = "holder"

#: relative slack of the clock's bounds check. The check is strict
#: (sigma < C1 - tol), so sigma == C1 passes at tol = 0, and every corpus
#: kind's sigma stays inside [C1, C2] exactly: no buildable kind needs it.
BOUND_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiffusionCoefficient:
    """Immutable sigma(t, x) of the corpus kind ``name`` with ``params``;
    instances are shared freely across workers.

    Every other field is derived from those two. Raises ValueError for an
    unknown name, the wrong number of params, a non-finite param, params the
    kind's builder refuses, or bounds the float64 clock cannot hold (C2^2 or
    1/C1^2 not finite). ``params`` becomes a read-only float array. Instances
    compare by identity: a field-wise ``==`` would ask the params array for a
    truth value, which raises.
    """

    name: str
    params: np.ndarray
    kernel_kind: str = field(init=False)
    c1: float = field(init=False)
    c2: float = field(init=False)
    holder_beta: float = field(init=False)
    smoothness: str = field(init=False)
    label: str = field(init=False)

    def __post_init__(self):
        if self.name not in _CORPUS:
            raise ValueError(
                f"unknown coefficient {self.name!r}; available: {', '.join(corpus_names())}"
            )
        kind, build = _CORPUS[self.name]
        arity = build.__code__.co_argcount
        params = np.array(self.params, dtype=np.float64)
        if params.shape != (arity,):
            raise ValueError(f"{self.name} takes {arity} parameter(s), got {params.size}")
        if not np.all(np.isfinite(params)):
            raise ValueError(f"{self.name} params must be finite, got {params.tolist()}")
        params.flags.writeable = False
        try:
            c1, c2, beta, smoothness = build(*params.tolist())
        except ValueError as exc:
            raise ValueError(f"{self.name} {exc}") from None
        # the clock steps by 1/sigma^2 and provisions C2^2 * T of Brownian time
        if not (math.isfinite(c2 * c2) and c1 * c1 > 0 and math.isfinite(1.0 / (c1 * c1))):
            raise ValueError(
                f"{self.name} bounds [{c1:g}, {c2:g}] are outside what the float64 clock "
                "can hold (C2^2 or 1/C1^2 is not finite)"
            )
        derived = dict(
            params=params, kernel_kind=kind, c1=c1, c2=c2, holder_beta=beta,
            smoothness=smoothness, label=f"{self.name}({_fmt(params)})",
        )
        for key, value in derived.items():
            object.__setattr__(self, key, value)

    @property
    def kernel_params(self) -> np.ndarray:
        """``params``, under the name the kernels' callers and perfbench read."""
        return self.params

    def evaluate(self, t: float, x: float) -> float:
        """sigma(t, x), by the formula and the operations the interpreted loops use."""
        return _kernels.sigma_of(self.kernel_kind, self.params, _kernels.SCALAR_OPS)(t, x)

    @property
    def bound_tolerance(self) -> float:
        return BOUND_TOL * max(1.0, self.c2)


def _fmt(params: Sequence[float]) -> str:
    return ",".join(f"{float(v):g}" for v in params)


# A builder takes its kind's params as floats, one argument each, refuses
# those outside the kind's domain (its message follows the kind's name), and
# returns (C1, C2, beta, smoothness class).


def _build_constant(c):
    if c <= 0:
        raise ValueError(f"level must be positive, got {c}")
    return c, c, 1.0, SMOOTH


def _build_sine(a, b):
    """a + b*sin(.), for smooth-sin and time-smooth."""
    if not a > b > 0:
        raise ValueError(f"requires a > b > 0, got a={a}, b={b}")
    return a - b, a + b, 1.0, SMOOTH


def _build_holder_root(a, b, beta, _centre):
    if a <= 0 or b <= 0:
        raise ValueError(f"requires a, b > 0, got a={a}, b={b}")
    if not 0 < beta < 1:
        raise ValueError(f"requires beta in (0, 1), got {beta}")
    return a, a + b, beta, HOLDER


def _build_step_mollified(lo, hi, _centre, width):
    if lo <= 0 or hi <= 0:
        raise ValueError(f"requires positive levels, got {lo}, {hi}")
    if width <= 0:
        raise ValueError(f"requires positive ramp width, got {width}")
    # the level past the ramp as the formula rounds it: lo + (hi - lo) can
    # differ from hi, down to 0 where hi is below lo's rounding error
    far = lo + (hi - lo)
    return min(lo, far), max(lo, far), 1.0, HOLDER


#: name -> (kind, builder): the kind is the text of sigma(t, x) that the kernels
#: compile, with the builder's params, in order, as a, b, c, d
_CORPUS = {
    "constant": ("a + 0.0 * x", _build_constant),
    "smooth-sin": ("a + b * sin(x)", _build_sine),
    "time-smooth": ("a + b * sin(x + t)", _build_sine),
    "holder-root": ("a + min(pow(abs(x - d), c), b)", _build_holder_root),
    "step-mollified": (
        "a + (b - a) * min(max((x - (c - 0.5 * d)) / d, 0.0), 1.0)", _build_step_mollified
    ),
}


def corpus_names() -> list[str]:
    return sorted(_CORPUS)


def builtin_coefficient(name: str, params: Sequence[float]) -> DiffusionCoefficient:
    """``DiffusionCoefficient(name, params)``: a function, so that
    perfbench/tracing.py can count builds by wrapping it."""
    return DiffusionCoefficient(name, params)
