"""Layered benchmark of the gzasp command line.

    python3 perfbench/run.py                       # every workload, summary table
    python3 perfbench/run.py --workload enum --seed 3 --seconds 10 --trace 0

One closed-loop client in one process and one thread: each operation is one
``gzasp.cli.main([...])`` call on a program file, with stdout captured and
checked against a reference that never comes from ``gzasp.reasoner``. A run
repeats its workload's whole corpus in passes, at least MIN_PASSES of them
and until ``--seconds`` have passed, so every run measures the same mix.
Every latency is at the reference machine speed of calibration.py. Each
pass runs a fresh variant of the corpus (see workloads.py): the same
operations in the same order on differently named programs. An
operation's typical latency is its median across passes; throughput and the
median are taken over these, so neither one slow pass nor one renaming
moves them. The tail is taken over every sample.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes over the same operations, on one variant, and
reports the per-layer metrics of the traced ones (see metrics.py), and
writes every span to ``.bench_out/``. Without ``--workload`` each workload
runs in its own fresh process. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 15
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


def tail_percentile(min_samples: int) -> int:
    """The highest multiple of 5 that leaves at least ten of ``min_samples``
    samples beyond it. Fixed per workload, so it cannot drift with speed."""
    return max(50, 5 * math.floor(20 * (1 - 10 / min_samples)))


def nearest_rank(ordered: list, percent: float) -> float:
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def import_s(modules: str) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(modules)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return float(done.stdout)


IMPORT_PROBE = """
import time
started = time.perf_counter()
import {}
print(time.perf_counter() - started)
"""
# Importing is file lookups, unmarshalling and allocation, which the shared
# machine slows differently from the interpreted work of calibration.py. So
# each import of gzasp.cli is scaled by a control import of stdlib modules
# that gzasp does not use, timed in another fresh interpreter just before
# it. On the 2-vCPU machine the benchmark was built on, this took the
# spread of the median of 21 samples over 8 runs from 0.096 to 0.024.
# CONTROL_REFERENCE_S is the control's time when the machine is fast.
CONTROL_MODULES = "email.parser, http.client, xml.dom.minidom, decimal, unittest, logging"
CONTROL_REFERENCE_S = 0.045


def setup_sample() -> float:
    """Time, at reference speed, for a fresh interpreter to import gzasp.cli."""
    control_s = import_s(CONTROL_MODULES)
    return import_s("gzasp.cli") * CONTROL_REFERENCE_S / control_s


def run_op(cli, op) -> tuple:
    """(seconds, failed) for one operation. Exit 1 is an answer; a raise,
    exit 2, a traceback on stderr or a wrong output is a failure."""
    out, err = io.StringIO(), io.StringIO()
    started = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception:  # counted as a failure, never fatal to the run
            code = None
            traceback.print_exc()
    elapsed = perf_counter() - started
    failed = code not in (0, 1) or "Traceback" in err.getvalue() or not op.check(code, out.getvalue())
    if failed:
        print(f"FAILED {op.label}: exit {code} {err.getvalue().strip()[-300:]}", file=sys.stderr)
    return elapsed, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import gzasp.cli as cli

    setup_times = []  # set-up samples, spread over the run
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    records = []  # (op index, traced, seconds, failed), in run order
    calibrations = []  # calibration seconds measured just before each record
    pass_s = []

    def variant(number: int) -> list:
        (workdir / str(number)).mkdir()
        return workloads.BUILDERS[name](
            random.Random(f"{name}:{seed}"), random.Random(f"{name}:{seed}:{number}"), workdir / str(number)
        )

    try:
        ops = variant(0)
        run_op(cli, ops[0])  # first-call costs in argparse and re
        if not trace:
            setup_sample()  # fills the bytecode cache
        started = perf_counter()
        # traced runs end on a traced pass, so both kinds cover the same ops
        while (
            len(pass_s) < MIN_PASSES
            or perf_counter() - started < seconds
            or (trace and len(pass_s) % 2)
        ):
            traced = trace and len(pass_s) % 4 in (1, 2)  # U T T U: no order bias
            if pass_s and not trace:
                ops = variant(len(pass_s))
            if traced:
                tracer.install()
            try:
                for index, op in enumerate(ops):
                    due = len(setup_times) * seconds / SETUP_SAMPLES
                    if not trace and len(setup_times) < SETUP_SAMPLES and perf_counter() - started >= due:
                        setup_times.append(setup_sample())
                    calibrations.append(calibration.calibrate())
                    tracer.op = len(records)
                    elapsed, failed = run_op(cli, op)
                    tracer.settle()
                    records.append((index, traced, elapsed, failed))
            finally:
                tracer.uninstall()
            pass_s.append(perf_counter() - started - sum(pass_s))
        while not trace and len(setup_times) < SETUP_SAMPLES:
            setup_times.append(setup_sample())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scale = calibration.scales(calibrations)
    failed = sum(record[3] for record in records)
    lines = [
        f"workload {name} seed {seed} ops/pass {len(ops)} "
        f"pass_s {' '.join(f'{s:.2f}' for s in pass_s)} "
        f"speed {statistics.median(scale):.3f} of reference",
    ]
    if trace:
        traced_s = sum(r[2] * f for r, f in zip(records, scale) if r[1])
        untraced_s = sum(r[2] * f for r, f in zip(records, scale) if not r[1])
        values = metrics.layer_metrics(
            tracer.spans, tracer.counts, scale, len(records) // 2, traced_s, untraced_s
        )
        units = {key: spec[0] for key, spec in metrics.PER_LAYER.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv.gz"
        tracer.write(spans_path)
        lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        latencies = [[] for _ in ops]  # seconds at reference speed, per operation
        for (index, _, elapsed, bad), factor in zip(records, scale):
            if not bad:
                latencies[index].append(elapsed * factor)
        typical = sorted(statistics.median(times) for times in latencies if times)
        if not typical:
            raise SystemExit(f"every {name} operation failed")
        samples = sorted(elapsed for times in latencies for elapsed in times)
        percent = tail_percentile(MIN_PASSES * len(ops))
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(typical) / sum(typical),
            "op_ms_p50": statistics.median_low(typical) * 1000,
            "op_ms_tail": nearest_rank(samples, percent) * 1000,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {key: spec[0] for key, spec in metrics.END_TO_END.items()}
        lines.append(
            f"op_ms_tail is p{percent} of {len(samples)} samples; ops {len(typical)}; "
            f"setup_s is the median of {len(setup_times)} imports"
        )
    lines += [f"{key} {value:.6g} {units[key]}" for key, value in values.items()]
    lines.append(f"fail_ratio {failed / len(records):.6g} {metrics.FAIL_RATIO[0]} ({failed} of {len(records)})")
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in values},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process, then one summary table."""
    results = {}
    for name in workloads.BUILDERS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    names = list(results[next(iter(results))]["metrics"])
    width = max(map(len, names + ["fail_ratio"])) + 2
    print("metric".ljust(width) + "".join(f"{name:>14}" for name in results) + "  unit")
    for key in names:
        row = "".join(f"{results[w]['metrics'][key]['value']:>14.6g}" for w in results)
        print(key.ljust(width) + row + "  " + results[next(iter(results))]["metrics"][key]["unit"])
    ratios = "".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values())
    print("fail_ratio".ljust(width) + ratios + "  ratio")
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gzasp" / "cli.py").is_file():
        print(f"error: no gzasp sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
