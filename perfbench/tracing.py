"""Spans recorded around calls into tcsde's public functions, from outside.

The program has no tracing of its own, so the benchmark wraps each layer's
entry points and records one span per call: name, start, end, parent span
and the item (coupled sample) it belongs to. Spans stay in memory and are
written out when the run ends.

Functions imported by name (``from .brownian import generate_path``) are
looked up in the importing module, so each wrapper is installed in every
namespace a caller reads it from, not only where it is defined.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: the span that covers one item, a coupled sample
ITEM_SPAN = "experiment.sample"


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    item: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration_ns - covered
    return out


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._item: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []
        # per item and driver stream (keyed by its Philox key): the subsample
        # factor of the finest path run on it and the knots that run used
        self._used: dict[tuple, tuple[int, int]] = {}
        self.knots_used = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
             item_arg: Optional[int] = None) -> Callable:
        """Wrap fn so each call records a span; attrs(args, result) adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            outer_item = self._item
            if item_arg is not None:
                self._item = args[item_arg]
            s = Span(len(self.spans), name, 0, 0,
                     parent.id if parent else None, self._item)
            self.spans.append(s)
            self._stack.append(s)
            s.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                s.end_ns = time.perf_counter_ns()
                s.attrs["error"] = type(exc).__name__
                raise
            else:
                s.end_ns = time.perf_counter_ns()
                if attrs is not None:
                    s.attrs.update(attrs(args, result))
                return result
            finally:
                self._stack.pop()
                if name == ITEM_SPAN:
                    self.knots_used += sum(k for _, k in self._used.values())
                    self._used.clear()
                self._item = outer_item

        return wrapper

    def note_used(self, driver, knots: int) -> None:
        """Record that a clock or EM run read `knots` knots of `driver`.

        A stream's knots used are those of the finest path run on it (the
        reference, in a coupled sample), counted at the generated resolution.
        """
        key = (driver.master_seed, driver.sample_index, driver.purpose)
        factor = driver.subsample_factor
        entry = (-factor, (knots - 1) * factor + 1)
        self._used[key] = max(self._used.get(key, entry), entry)

    def patch(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, **extra) -> None:
        """Append the spans to a JSON-lines file, each with `extra` fields."""
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({**extra, **s.__dict__}) + "\n")

    # -- installation --------------------------------------------------

    def install_items(self) -> None:
        """Wrap only the per-sample functions: the item timer of an untraced run."""
        import tcsde.experiment as experiment

        # the jobs-1 path of run_experiment calls the samplers directly
        for attr in ("_tc_sample", "_em_sample"):
            fn = experiment.__dict__[attr]
            self.patch([experiment], attr, self.span(ITEM_SPAN, fn, item_arg=2))

    def install(self) -> None:
        """Wrap every layer entry point in each namespace that calls it."""
        import tcsde._kernels as kernels
        import tcsde.baseline as baseline
        import tcsde.brownian as brownian
        import tcsde.cli as cli
        import tcsde.diffusion as diffusion
        import tcsde.experiment as experiment
        import tcsde.timechange as timechange
        from tcsde.errors import PathExhaustedError

        def method(cls, attr, name, attrs=None):
            self.patch([cls], attr, self.span(name, cls.__dict__[attr], attrs))

        def function(owners, attr, name, attrs=None, item_arg=None):
            fn = owners[0].__dict__[attr]
            self.patch(owners, attr, self.span(name, fn, attrs, item_arg))

        function([brownian, experiment, cli, timechange], "generate_path",
                 "brownian.generate", lambda a, r: {"knots": r.knot_count})
        method(brownian.BrownianPath, "extended", "brownian.extend")

        build_tc = timechange.build_time_change

        def clock(driver, sigma, sde_horizon):
            try:
                tc = build_tc(driver, sigma, sde_horizon)
            except PathExhaustedError:
                self._stack[-1].attrs.update(exhausted=1, knots=driver.knot_count)
                raise
            self._stack[-1].attrs["knots"] = tc.knot_count
            self.note_used(driver, tc.knot_count)
            return tc

        self.patch([timechange, experiment, cli], "build_time_change",
                   self.span("timechange.clock", functools.wraps(build_tc)(clock)))

        function([kernels], "pl_sup_abs_diff", "kernels.sup",
                 lambda a, r: {"knots": len(a[0]) + len(a[2])})

        def em_attrs(args, em):
            self.note_used(args[1], em.knot_count)
            return {"steps": em.knot_count - 1}

        function([baseline, experiment, cli], "em_simulate", "baseline.em", em_attrs)

        self.install_items()
        function([experiment, cli], "run_experiment", "experiment.run")

        function([cli], "parse_config_file", "cli.parse")
        cfg = experiment.ExperimentConfig
        from_mapping = cfg.__dict__["from_mapping"].__func__
        self.patch([cfg], "from_mapping",
                   classmethod(self.span("cli.parse", from_mapping)))
        method(cfg, "validate_for_run", "cli.parse")

        def path_size(args, result):
            return {"bytes": args[0].stat().st_size}

        function([cli], "_write_json", "cli.write", path_size)
        function([cli], "_write_csv", "cli.write", path_size)

        function([diffusion, experiment], "builtin_coefficient", "diffusion.build")


def layer_summary(spans: list[Span], knots_used: int) -> dict:
    """Totals per layer over a set of spans: self seconds, calls and counts."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ())) * 1e-9

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    items = [s for s in spans if s.name == ITEM_SPAN]
    return {
        "samples": len(items),
        "sample_s": sum(s.duration_ns for s in items) * 1e-9,
        "brownian.generate_s": self_s("brownian.generate"),
        "brownian.generate_calls": calls("brownian.generate"),
        "brownian.extend_calls": calls("brownian.extend"),
        "brownian.knots_drawn": attr_sum("brownian.generate", "knots"),
        "brownian.knots_used": knots_used,
        "timechange.clock_s": self_s("timechange.clock"),
        "timechange.clock_calls": calls("timechange.clock"),
        "timechange.clock_knots": attr_sum("timechange.clock", "knots"),
        "timechange.exhausted_retries": attr_sum("timechange.clock", "exhausted"),
        "kernels.sup_s": self_s("kernels.sup"),
        "kernels.sup_calls": calls("kernels.sup"),
        "kernels.sup_knots": attr_sum("kernels.sup", "knots"),
        "baseline.em_s": self_s("baseline.em"),
        "baseline.em_calls": calls("baseline.em"),
        "baseline.em_steps": attr_sum("baseline.em", "steps"),
        "experiment.sample_self_s": self_s(ITEM_SPAN),
        "experiment.reduce_s": self_s("experiment.run"),
        "cli.parse_s": self_s("cli.parse"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": attr_sum("cli.write", "bytes"),
        "diffusion.build_calls": calls("diffusion.build"),
    }
