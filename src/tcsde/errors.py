"""Exception types shared across the package."""


class TcsdeError(Exception):
    """Base class for package errors."""


class ConfigError(TcsdeError):
    """Invalid experiment configuration; the message names the offending field."""


class ContractViolationError(TcsdeError):
    """A diffusion coefficient left its bounds during a run."""


class PathExhaustedError(TcsdeError):
    """A Brownian driver ran out of knots before the clock reached its target.

    A driver drawn to required_horizon never runs out; one that did fails its sample.
    """


class ExperimentError(TcsdeError):
    """A Monte Carlo sample failed; records the sample index and module."""

    def __init__(self, sample_index: int, module: str, message: str):
        super().__init__(f"sample {sample_index} failed in {module}: {message}")
        self.sample_index = sample_index
        self.module = module
        self.message = message

    def __reduce__(self):
        # rebuilt from its fields, so a process pool can send it back
        return type(self), (self.sample_index, self.module, self.message)
