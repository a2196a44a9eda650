"""Steadiness check: two sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 perfbench/steady.py

Each set runs the benchmark command once per workload and seed, RUNS seeds
per set, distinct across sets. For every end-to-end metric and workload it
prints each set's median and spread (the distance between the first and
third quartile as ``statistics.quantiles(values, n=4)`` gives them, as a
share of the median) and whether

* ``spread``: every set's spread is within the metric's bound, marked ``~``
  when it is above a third of the bound;
* ``agree``: the second set's median differs from the first set's, in
  either direction, by at most the bound.

Raw results go to .bench_out/steady-<time>.json. Exit code 1 if any check
fails or any run is incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
FIRST_SEED = 100


def spread(values: list) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = [w["name"] for w in spec["workloads"]]

    results = {name: [[] for _ in range(SETS)] for name in chosen}
    failed_runs = 0
    for set_index in range(SETS):
        for run in range(RUNS):
            seed = FIRST_SEED + set_index * RUNS + run
            for name in chosen:
                command = spec["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                started = time.perf_counter()
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    failed_runs += 1
                    print(f"set {set_index} seed {seed} {name}: FAILED", file=sys.stderr)
                    continue
                results[name][set_index].append(
                    {key: m["value"] for key, m in result["metrics"].items()}
                )
                print(
                    f"set {set_index} seed {seed} {name}: {time.perf_counter() - started:.1f}s",
                    file=sys.stderr,
                    flush=True,
                )

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    raw = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps(results, indent=1))

    ok = failed_runs == 0
    header = f"{'workload':<9} {'metric':<13} {'bound':>6} " + " ".join(
        f"{'median' + str(k):>11} {'spread' + str(k):>8}" for k in range(SETS)
    )
    print(header + "  spread agree")
    for name in chosen:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sets = [[run[key] for run in runs] for runs in results[name]]
            if any(len(values) < 2 for values in sets):
                continue
            medians = [statistics.median(values) for values in sets]
            spreads = [spread(values) for values in sets]
            spread_ok = max(spreads) <= bound
            agree_ok = all(abs(later - medians[0]) / medians[0] <= bound for later in medians[1:])
            ok = ok and spread_ok and agree_ok
            mark = "ok" if max(spreads) <= bound / 3 else "~" if spread_ok else "FAIL"
            cells = " ".join(f"{m:>11.5g} {s:>8.3f}" for m, s in zip(medians, spreads))
            print(
                f"{name:<9} {key:<13} {bound:>6} {cells}  {mark:>6} "
                f"{'ok' if agree_ok else 'FAIL':>5}"
            )
    print(f"raw results in {raw.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
