"""The package names that perfbench/worker.py reads, guarded in the tier-1 suite.

perfbench stamps each record with worker.lane() and times the kernels by name
in worker.kernel_table(); a rename or deletion in the package would otherwise
surface only when the benchmark runs.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_worker_reads_lane_and_kernel_table(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    monkeypatch.setattr(worker, "KERNEL_REPEATS", 1)
    assert worker.lane() == "numpy"
    table = worker.kernel_table(0)
    assert set(table) == {
        "kernels.bench_clock",
        "kernels.bench_clock_loop",
        "kernels.bench_sup",
        "kernels.bench_em",
        "timechange.bench_csv",
    }
    assert all(len(q) == 3 and min(q) > 0 for q in table.values())
