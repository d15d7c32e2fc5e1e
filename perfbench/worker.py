"""One measurement process: set-up, then timed passes over one workload.

run.py starts this script fresh, with the BLAS thread variables pinned in
its environment, so the peak RSS it reports belongs to the workload alone.
It prints one JSON object on standard output.

A pass runs every config of the workload once, in the seed's order, as
`runner.run(ExperimentConfig.from_json(config))` with reports written to a
temporary directory.  Passes repeat until the next one would end past
`--seconds` (at least MIN_PASSES).  With `--trace 1` untraced and traced
passes alternate, and the traced ones feed the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings

from expectations import judge
from workloads import WARMUP, build_configs

MIN_PASSES = 2


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"blas": vendor, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class ConfigRunner:
    """Runs configs through the package and tallies them against the
    expectation table."""

    def __init__(self, configs: list[dict], report_dir: str):
        from bidiscframes import runner
        from bidiscframes.frames import GuardError

        self.runner = runner
        self.guard_error = GuardError
        self.configs = configs
        self.report_dir = report_dir
        self.runs = 0
        self.unexpected = 0
        self.mismatched: set[int] = set()
        self.problems: list[str] = []

    def run_one(self, cfg: dict, prefix: str):
        """(seconds, RunOutcome or the name of the exception raised)."""
        runner = self.runner  # module attributes, so a tracer's wrappers apply
        data = dict(cfg, output=prefix)
        start = time.perf_counter()
        try:
            result = runner.run(runner.ExperimentConfig.from_json(data))
        except ValueError:
            result = "ValueError"
        except self.guard_error:
            result = "GuardError"
        except Exception as exc:  # a crash is a benchmark failure, not a stop
            traceback.print_exc()
            result = type(exc).__name__
        return time.perf_counter() - start, result

    def one_pass(self) -> float:
        gc.collect()
        wall = 0.0
        for i, cfg in enumerate(self.configs):
            seconds, result = self.run_one(cfg, os.path.join(self.report_dir, f"c{i}"))
            wall += seconds
            self.runs += 1
            verdict = judge(cfg, result)
            if verdict != "ok":
                self.mismatched.add(i)
            if verdict == "unexpected":
                self.unexpected += 1
                outcome = result if isinstance(result, str) else result.summary_lines
                self.problems.append(f"unexpected outcome {outcome} for {cfg}")
        return wall


def _keep_going(start: float, seconds: float, done: int, *walls: list) -> bool:
    if done < MIN_PASSES:
        return True
    next_pass = sum(statistics.median(w) for w in walls)
    return time.perf_counter() - start + next_pass <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for reports and spans")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")
    import bidiscframes  # noqa: F401  (set-up cost: the package import)

    configs = build_configs(args.workload, args.seed, toy=args.toy)
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        bench = ConfigRunner(configs, tmp)
        bench.run_one(WARMUP, os.path.join(tmp, "warmup"))
        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0

        result = {"setup_end": setup_end, "env": _environment()}
        start = time.perf_counter()
        if args.trace == 0:
            walls: list[float] = []
            while _keep_going(start, args.seconds, len(walls), walls):
                walls.append(bench.one_pass())
            result["passes"] = walls
        else:
            from tracer import Tracer

            tracer = Tracer()
            untraced: list[float] = []
            traced: list[float] = []
            samples, spans = [], []
            while _keep_going(start, args.seconds, 2 * len(traced), untraced, traced):
                untraced.append(bench.one_pass())
                with tracer:
                    traced.append(bench.one_pass())
                metrics, pass_spans = tracer.take()
                samples.append(metrics)
                spans.append(pass_spans)
            layers = {name: [statistics.median(s[name][0] for s in samples), unit]
                      for name, (_, unit) in samples[0].items()}
            layers["tracing.overhead_s"] = [
                statistics.median(traced) - statistics.median(untraced), "s"]
            result.update(passes=untraced, traced_passes=traced, layers=layers)
            toy = "-toy" if args.toy else ""
            span_file = os.path.join(
                args.out, f"spans-{args.workload}-seed{args.seed}{toy}.json")
            with open(span_file, "w") as fh:
                json.dump({"names": tracer.names,
                           "fields": ["name", "start", "end", "parent", "bookkeeping"],
                           "passes": spans}, fh)

    result.update(
        runs=bench.runs,
        unexpected=bench.unexpected,
        configs=len(configs),
        mismatched_configs=len(bench.mismatched),
        problems=bench.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
