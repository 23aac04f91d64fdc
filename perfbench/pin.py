"""Pin the output digests the benchmark checks each rep against.

Runs every rep of the given seeds untimed and records the sha256 of its
report.json in pins.json under the active lane. Pin only from a commit whose outputs are known to be right, and only
a lane that has no pins yet or whose outputs a change altered on purpose:

    python3 perfbench/pin.py --workload smooth-rate --seeds 0-19 --reps 20
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads as wl  # noqa: E402
from worker import PINS, lane, load_pins  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--reps", type=int, required=True, help="reps pinned per seed")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    workload = wl.WORKLOADS[args.workload]
    pinned = {}
    runs = HERE.parent / ".perfbench"
    runs.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=runs))
    try:
        for seed in range(int(first), int(last or first) + 1):
            for rep in range(args.reps):
                master_seed = wl.rep_seed(seed, rep)
                out = scratch / str(master_seed)
                wl.run_rep(workload, master_seed, out, wl.jobs(workload))
                pinned[str(master_seed)] = wl.check_rep(out)
                shutil.rmtree(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    pins = load_pins()
    pins.setdefault(lane(), {}).setdefault(workload.name, {}).update(pinned)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} reps of {workload.name} on the {lane()} lane")
    return 0


if __name__ == "__main__":
    sys.exit(main())
