"""Outside-in benchmark of bidiscframes.

    python3 perfbench/run.py --workload large-box --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The package is imported from `src/`
(nothing is built or installed).  Each run starts fresh processes with the
BLAS thread variables pinned: SETUP_SAMPLES of them measure set-up time,
and one of them measures the workload (see worker.py).

With `--trace 0` the last line of standard output carries the end-to-end
metrics `wall_s`, `setup_s`, `peak_rss_mb` and `failed_ratio`; with
`--trace 1` it carries the per-layer metrics BENCHMARK.json lists.  The
full record, with the environment and every per-layer metric, goes to
`.perfbench_out/result-<workload>-seed<n>-trace<t>.json`; traced runs
also write their spans there.  NOTES.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: figures taken at different thread counts are not
# comparable, and one thread is the steadiest on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(cmd: list[str], env: dict) -> dict:
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S} s: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny boxes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    if not (ROOT / "src" / "bidiscframes" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    try:
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)

    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: threads for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.toy:
        cmd.append("--toy")

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            begin = time.monotonic()
            setups.append(_child(cmd + ["--setup-only"], env)["setup_end"] - begin)
    begin = time.monotonic()
    work = _child(cmd, env)
    setups.append(work["setup_end"] - begin)

    metrics = {
        "wall_s": (statistics.median(work["passes"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (work["peak_rss_mb"], "MB"),
        # add-one smoothing keeps the ratio above 0 (see NOTES.md)
        "failed_ratio": ((work["mismatched_configs"] + 1) / (work["configs"] + 1),
                         "ratio"),
    }
    if args.trace == 0:
        names = [m["name"] for m in listed["end_to_end"]]
    else:
        metrics.update((k, tuple(v)) for k, v in work["layers"].items())
        names = [m["name"] for m in listed["per_layer"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json were not measured: {missing}")

    line = {
        "correct": work["unexpected"] == 0,
        "attempted": work["runs"],
        "failed": work["unexpected"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "env": dict(work["env"], nproc=os.cpu_count(),
                    blas_threads={var: env[var] for var in THREAD_VARS}),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "setup_samples_s": setups,
        "passes_s": work["passes"],
        "traced_passes_s": work.get("traced_passes"),
        "configs": work["configs"],
        "mismatched_configs": work["mismatched_configs"],
        "problems": work["problems"],
    }
    toy = "-toy" if args.toy else ""
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{toy}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        line, record = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
