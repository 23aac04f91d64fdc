"""tcsde benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload smooth-rate --seed 1 --seconds 15 --trace 0

--trace 0 times `SETUPS` fresh set-ups (the last one goes on to the timed
reps) and prints every end-to-end metric; --trace 1 runs untraced and
traced passes over the same reps and prints every per-layer metric. Each
rep's outputs are checked (finite values, pinned digest where one exists);
any failure makes the run exit 1. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The full record,
stamped with lane, machine, versions, commit and command line, is written to
.perfbench/<workload>-seed<seed>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads as wl  # noqa: E402

#: fresh interpreters timed per run; set-up time is their median
SETUPS = 3
#: every process this script starts ends within this many seconds of its start
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "trace.sample_s": "s",
    "trace.overhead_s": "s",
    "brownian.generate_s": "s",
    "brownian.generate_calls": "calls/sample",
    "brownian.extend_calls": "calls/sample",
    "brownian.knots_drawn": "knots/sample",
    "brownian.knots_used": "knots/sample",
    "brownian.draw_efficiency": "ratio",
    "timechange.clock_s": "s",
    "timechange.clock_calls": "calls/sample",
    "timechange.clock_knots": "knots/sample",
    "timechange.clock_ns_per_knot": "ns",
    "timechange.clock_share": "ratio",
    "timechange.exhausted_retries": "count/sample",
    "kernels.sup_s": "s",
    "kernels.sup_calls": "calls/sample",
    "kernels.sup_knots": "knots/sample",
    "kernels.sup_ns_per_knot": "ns",
    "kernels.sup_share": "ratio",
    "baseline.em_s": "s",
    "baseline.em_calls": "calls/sample",
    "baseline.em_steps": "steps/sample",
    "baseline.em_ns_per_step": "ns",
    "baseline.em_share": "ratio",
    "experiment.sample_self_s": "s",
    "experiment.reduce_s": "s",
    "experiment.parallel_efficiency": "ratio",
    "experiment.sample_ms_p50": "ms",
    "experiment.sample_ms_p90": "ms",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "diffusion.build_calls": "calls/sample",
    **{
        f"{row}_ms_{q}": "ms"
        for row in ("kernels.bench_clock", "kernels.bench_clock_loop", "kernels.bench_sup",
                    "kernels.bench_em", "timechange.bench_csv")
        for q in ("q1", "p50", "q3")
    },
}


class RunFailed(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """One measured process, started now and stopped by the deadline."""

    def __init__(self, args, mode: str, out: Path, deadline: float):
        self.deadline = deadline
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--out", str(out)]
        self.stderr = open(out / f"worker-{mode}.stderr", "a")
        self.start = time.perf_counter()
        # its own process group, so a kill also reaches its pool workers
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True,
                                     start_new_session=True)

    def remaining(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def wait_ready(self) -> float:
        """Seconds from start until the worker reported set-up done."""
        ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "READY":
            raise RunFailed(f"worker set-up failed (see {self.stderr.name})")
        return time.perf_counter() - self.start

    def result(self) -> dict:
        try:
            text, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise RunFailed("worker overran the time budget") from exc
        if self.proc.returncode != 0 or not text.strip():
            raise RunFailed(f"worker exited {self.proc.returncode} (see {self.stderr.name})")
        return json.loads(text.strip().splitlines()[-1])

    def close(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the worker and its pool are gone already
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def measure(args, mode: str, out: Path, deadline: float):
    """(set-up seconds, worker result or None for --mode setup)."""
    worker = Worker(args, mode, out, deadline)
    try:
        setup_s = worker.wait_ready()
        if mode != "setup":
            return setup_s, worker.result()
        if worker.proc.wait(timeout=worker.remaining()) != 0:
            raise RunFailed(f"set-up worker exited {worker.proc.returncode}")
        return setup_s, None
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("worker overran the time budget") from exc
    finally:
        worker.close()


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list[str]]:
    ok = [r for r in result["reps"] if "error" not in r]
    if not ok:
        raise RunFailed("every rep failed: " + result["reps"][0]["error"])
    metrics = {
        "setup_s": statistics.median(setups),
        # the mean, not the median: rep times vary with the paths each rep
        # draws, and the mean over every rep is the steadier estimate
        "run_s": statistics.mean(r["wall_s"] for r in ok),
        "samples_per_s": sum(r["samples"] for r in ok) / sum(r["wall_s"] for r in ok),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh set-ups",
        f"run_s: mean of {len(ok)} reps of {ok[0]['samples']} items at jobs {result['jobs']}",
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    passes, layers = result["passes"], result["layers"]

    def med(key):
        return statistics.median(layer[key] for layer in layers)

    def total(key):
        return sum(layer[key] for layer in layers)

    def ratio(num, den, scale=1.0):
        return scale * total(num) / total(den) if total(den) else 0.0

    items = total("samples")
    if not items:
        raise RunFailed("no traced item completed")
    untraced = statistics.median(r["wall_s"] for r in passes["untraced"])
    serial = passes.get("untraced_jobs1", passes["untraced"])
    busy = statistics.median(sum(r["sample_ns"]) * 1e-9 for r in serial)
    traced_ms = [ns * 1e-6 for r in passes["traced"] for ns in r["sample_ns"]]
    pct, p_hi, beyond = stats.tail_percentile(traced_ms, 90)
    metrics = {
        "setup.import_s": result["import_s"],
        "trace.sample_s": med("sample_s"),
        "trace.overhead_s": statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(passes["traced"], serial)),
        "brownian.draw_efficiency": ratio("brownian.knots_used", "brownian.knots_drawn"),
        "timechange.clock_ns_per_knot": ratio("timechange.clock_s", "timechange.clock_knots", 1e9),
        "timechange.clock_share": ratio("timechange.clock_s", "sample_s"),
        "kernels.sup_ns_per_knot": ratio("kernels.sup_s", "kernels.sup_knots", 1e9),
        "kernels.sup_share": ratio("kernels.sup_s", "sample_s"),
        "baseline.em_ns_per_step": ratio("baseline.em_s", "baseline.em_steps", 1e9),
        "baseline.em_share": ratio("baseline.em_s", "sample_s"),
        "experiment.parallel_efficiency": busy / (result["jobs"] * untraced),
        "experiment.sample_ms_p50": statistics.median(traced_ms),
        "experiment.sample_ms_p90": p_hi,
    }
    for row, (q1, p50, q3) in result["kernels"].items():
        for q, value in (("q1", q1), ("p50", p50), ("q3", q3)):
            metrics[f"{row}_ms_{q}"] = value
    metrics["cli.bytes_written"] = total("cli.bytes_written") / len(layers)
    for name, unit in PER_LAYER_UNITS.items():
        if name not in metrics:
            metrics[name] = med(name) if unit == "s" else total(name) / items
    notes = [
        f"{len(layers)} traced reps of {layers[0]['samples']} items at jobs 1; "
        f"*_s are medians per rep, counts are per item",
        f"trace.overhead_s: median of traced minus untraced time of the same rep "
        f"at jobs 1 (untraced rep at jobs {result['jobs']}: {untraced:.4f} s)",
        f"experiment.sample_ms_p90: p{pct} of {len(traced_ms)} traced items, {beyond} beyond it",
        f"*.bench_*: {len(result['kernels'])} calls at fixed sizes, quartiles of per-call ms",
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tcsde" / "__init__.py").is_file():
        print(f"benchmark: no tcsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops its worker, through measure()'s cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + BUDGET_S
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        if args.trace:
            _, result = measure(args, "trace", out, deadline)
            metrics, notes = per_layer(result)
            reps = [r for p in result["passes"].values() for r in p]
            units = PER_LAYER_UNITS
        else:
            setups = []
            for i in range(SETUPS):
                mode = "run" if i == SETUPS - 1 else "setup"
                setup_s, result = measure(args, mode, out, deadline)
                setups.append(setup_s)
            metrics, notes = end_to_end(setups, result)
            reps = result["reps"]
            units = END_TO_END_UNITS
    except RunFailed as exc:
        print(f"benchmark: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["samples"] for r in reps)
    failed = sum(r["samples"] for r in reps if "error" in r)
    errors = [f"rep {r['master_seed']}: {r['error']}" for r in reps if "error" in r]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "lane": result["lane"],
        "nproc": result["nproc"],
        "python": result["python"],
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "commit": git_commit(),
        "command": [Path(sys.executable).name] + sys.argv,
    }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (out / "result.json").write_text(json.dumps(
        {"stamp": stamp, "notes": notes, "errors": errors, "worker": result, **summary},
        indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in stamp.items() if k != "command"))
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    for line in notes + errors:
        print(f"  {line}")
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} items)")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
