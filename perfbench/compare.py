"""Compare two sets of benchmark results, metric by metric and workload by workload.

Each argument is a result.json written by run.py (copy them out of
.perfbench/ between commits). Results are grouped by workload and trace
mode; each metric's median and quartiles are shown for both sets, with the
change against the first set's median and, for end-to-end metrics, the
bound from BENCHMARK.json. Results from different lanes (numba vs numpy)
are never compared:

    python3 perfbench/compare.py base/*.json -- new/*.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load(paths: list[str]) -> dict:
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        stamp = result["stamp"]
        groups.setdefault((stamp["workload"], stamp["trace"]), []).append(result)
    return groups


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    lanes = {r["stamp"]["lane"] for g in (base, new) for rs in g.values() for r in rs}
    if len(lanes) != 1:
        print(f"refusing to compare results from different lanes: {sorted(lanes)}",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for key in sorted(set(base) & set(new)):
        print(f"{key[0]} (trace {key[1]}): {len(base[key])} vs {len(new[key])} runs")
        for name in base[key][0]["metrics"]:
            a = stats.quartiles([r["metrics"][name]["value"] for r in base[key]])
            b = stats.quartiles([r["metrics"][name]["value"] for r in new[key]])
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            line = (f"  {name:<34} {a[1]:>12.6g} [{a[0]:.4g}, {a[2]:.4g}]"
                    f"  ->  {b[1]:>12.6g} [{b[0]:.4g}, {b[2]:.4g}]  {change:+.1%}")
            if name in bounds:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if sign * change > bounds[name]["bound"]:
                    line += f"  WORSE than bound {bounds[name]['bound']:.0%}"
                    worse += 1
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
