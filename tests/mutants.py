"""Run the tier-1 suite against a fixed list of mutants of the package.

Each row of MUTANTS is (file, exact text, replacement), the text found exactly
once in the file. For each row the script copies the repository, without its
.git, to a temporary directory, applies the mutant there, and runs the suite
with -x. It prints `killed` with the first failing test, or `survived`; the
test's name tells a kill by a byte pin (criteria 3 and 8 check committed
digests) from a kill by a property test. The list only grows; a mutant that
cannot change what the package computes is shown equivalent in its row's
comment.

    python tests/mutants.py           # every row, 30-65 s each on 2 vCPUs
    python tests/mutants.py 0 5       # rows 0 and 5
    python tests/mutants.py --check   # only that each text is found once

The exit status is 1 if a mutant survived or a text is not found exactly
once. pytest does not collect this file: its name is not test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    # -- the six mutants first run by hand --------------------------------
    # the bound excess with C2 for C2^2
    ("src/tcsde/experiment.py",
     "excess = max(excess, inv_sup - coeff.c2**2 * clk_sup)",
     "excess = max(excess, inv_sup - coeff.c2 * clk_sup)"),
    # the sup without its read at t_hi
    ("src/tcsde/_kernels.py",
     "best = abs(_read_at(ta, ya, ka, t_hi) - _read_at(tb, yb, kb, t_hi))",
     "best = 0.0"),
    # the sup without the sparser path's knots read in the denser one
    ("src/tcsde/_kernels.py",
     "best = np.abs(ya[:ka] - pl_eval_many(tb, yb, ta[:ka])).max(initial=best)",
     "best = best"),
    # the clock's Picard sweep stepped at 1/sigma instead of 1/sigma^2
    ("src/tcsde/_kernels.py",
     "a = inv_n / (s * s)",
     "a = inv_n / s"),
    # the sup without the denser path's knots past the sparser one's last
    ("src/tcsde/_kernels.py",
     "best = np.abs(y[m:] - ky[-1]).max(initial=best)",
     "best = best"),
    # the clock sup compared past C2^2 T, where the inverse-clock bound does
    # not speak (killed by TestOneSample::test_clock_sup_is_taken_up_to_c2_squared_t)
    ("src/tcsde/experiment.py",
     "s_hi = min(s[-1], ref_s[-1], s_cap)",
     "s_hi = min(s[-1], ref_s[-1])"),
    # -- one or more per layer --------------------------------------------
    # draw: increments of variance 1/(2n) instead of 1/n
    ("src/tcsde/brownian.py",
     "u *= np.sqrt(1.0 / n)",
     "u *= np.sqrt(0.5 / n)"),
    # draw: every sample's driver on sample 0's stream
    ("src/tcsde/brownian.py",
     "key = np.array([master_seed, sample_index], dtype=np.uint64)",
     "key = np.array([master_seed, 0], dtype=np.uint64)"),
    # the clock's loop on Python floats stepped at 1/sigma
    ("src/tcsde/_kernels.py",
     "t = t + inv_n / (s * s)",
     "t = t + inv_n / s"),
    # the clock's loop lets a sigma above C2 pass
    ("src/tcsde/_kernels.py",
     "if s < lo or s > hi:",
     "if s < lo:"),
    # Euler-Maruyama reads sigma at the step's right end, (k + 1)/n, for a
    # kind that reads t
    ("src/tcsde/_kernels.py",
     "ts = memoryview(np.arange(len(dws)) / float(n)) if reads_t(kind) else None",
     "ts = memoryview(np.arange(1, len(dws) + 1) / float(n)) if reads_t(kind) else None"),
    # Euler-Maruyama stepped with sigma^2, for a kind that ignores t
    ("src/tcsde/_kernels.py",
     "return [x] + [x := x + SIGMA * dw for dw in dws]",
     "return [x] + [x := x + SIGMA * SIGMA * dw for dw in dws]"),
    # the L^p reduction without its p-th root
    ("src/tcsde/experiment.py",
     "lp_mean = _power(np.mean(powered, axis=0), 1.0 / p)",
     "lp_mean = np.mean(powered, axis=0)"),
    # the L^p stderr from the biased variance
    ("src/tcsde/experiment.py",
     "se_pow = np.std(powered, axis=0, ddof=1) / np.sqrt(config.samples)",
     "se_pow = np.std(powered, axis=0, ddof=0) / np.sqrt(config.samples)"),
    # config refusal: a reference only 2x the finest level
    ("src/tcsde/experiment.py",
     "if self.ref_resolution < 4 * max(self.resolutions):",
     "if self.ref_resolution < 2 * max(self.resolutions):"),
    # config refusal: Euler-Maruyama on a coefficient rougher than beta 1/2
    ("src/tcsde/experiment.py",
     "if self.scheme != SCHEME_TIME_CHANGE and coeff.holder_beta < 0.5:",
     "if self.scheme != SCHEME_TIME_CHANGE and coeff.holder_beta < 0.25:"),
    # memory rule: the old 16 B a knot for a time-change sample
    ("src/tcsde/experiment.py",
     "return (8 + (24 + 9) + 8) * knots",
     "return (8 + 8) * knots"),
    # the sup's one pass places a denser knot that equals a sparser one in the
    # interval before it
    ("src/tcsde/_kernels.py",
     'counts = np.diff(np.searchsorted(q[:m], kt, side="left"))',
     'counts = np.diff(np.searchsorted(q[:m], kt, side="right"))'),
    # the sup's one pass multiplies by dy before it divides by dt
    ("src/tcsde/_kernels.py",
     "d /= np.repeat(np.diff(kt), counts)\n    d *= np.repeat(np.diff(ky), counts)",
     "d *= np.repeat(np.diff(ky), counts)\n    d /= np.repeat(np.diff(kt), counts)"),
    # the clock's Picard sweep takes a time-dependent sigma's first pass as
    # exact
    ("src/tcsde/_kernels.py",
     "timed = reads_t(kind)",
     "timed = False"),
    # config refusal: p below 1
    ("src/tcsde/experiment.py",
     "lambda v: math.isfinite(v) and v >= 1,",
     "lambda v: math.isfinite(v) and v > 0,"),
    # the samples reduced out of index order at --jobs 1
    ("src/tcsde/experiment.py",
     "return [_run_sample(config, i) for i in indices]",
     "return [_run_sample(config, i) for i in reversed(indices)]"),
    # the clock's loop reads the driver from knot 1
    ("src/tcsde/_kernels.py",
     "memoryview(driver[:-1])",
     "memoryview(driver[1:])"),
    # every level's time-change driver subsampled at twice the factor, so
    # level n runs on a driver at n / 2
    ("src/tcsde/experiment.py",
     "driver = fine.subsample(ref // n)",
     "driver = fine.subsample(2 * (ref // n))"),
    # the samples reduced out of index order at --jobs > 1
    ("src/tcsde/experiment.py",
     "return list(pool.map(_run_sample, configs, indices, chunksize=chunk))",
     "return list(pool.map(_run_sample, configs, reversed(indices), chunksize=chunk))"),
    # config refusal: samples allowed at 0
    ("src/tcsde/experiment.py",
     '("samples", "samples", _integer, lambda v: v >= 1,',
     '("samples", "samples", _integer, lambda v: v >= 0,'),
    # config refusal: x0 allowed non-finite
    ("src/tcsde/experiment.py",
     '("x0", "x0", float, math.isfinite,',
     '("x0", "x0", float, lambda v: True,'),
    # config refusal: T allowed at 0
    ("src/tcsde/experiment.py",
     '("T", "sde_horizon", float, lambda v: math.isfinite(v) and v > 0,',
     '("T", "sde_horizon", float, lambda v: math.isfinite(v) and v >= 0,'),
)


def _apply(tree, row):
    path, text, replacement = row
    (tree / path).write_text((tree / path).read_text().replace(text, replacement))


def _first_failure(output):
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def run(index, row):
    ignore = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                    ".perfbench", "runs")
    with tempfile.TemporaryDirectory(prefix="tcsde-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=ignore)
        _apply(tree, row)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        took = time.monotonic() - start
    killed = proc.returncode != 0
    verdict = f"killed    {_first_failure(proc.stdout)}" if killed else "survived"
    print(f"[{index:2d}] {row[0]}: {row[1]!r} -> {row[2]!r}\n     {verdict} ({took:.0f} s)",
          flush=True)
    return killed


def main(argv):
    for path, text, _ in MUTANTS:
        found = (ROOT / path).read_text().count(text)
        if found != 1:
            print(f"{path}: {text!r} found {found} times")
            return 1
    if argv == ["--check"]:
        print(f"{len(MUTANTS)} mutants, each text found once")
        return 0
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    killed = sum(run(i, MUTANTS[i]) for i in picked)
    print(f"{killed} of {len(picked)} mutants killed")
    return 0 if killed == len(picked) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
