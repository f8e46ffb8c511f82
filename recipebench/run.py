"""Recipe benchmark for rrglab: whole recipes timed end to end, one process.

Usage (from the root of a checkout):

    python3 recipebench/run.py --workload gap-test --seed 1 --seconds 20 --trace 0

One run repeats rounds, with the same inputs, until ``--seconds`` have
passed, finishing the round in progress.  A round is the workload's recipe
call through ``rrglab.cli.main`` at each of its seeds (one, or several
derived from ``--seed``), each followed by the workload's checks, and for
emf-check the single-replica call that should fail.  With ``--trace 0`` it
reports the end-to-end metrics: the median over rounds of the mean recipe
call wall time, the median set-up time of fresh interpreters, and peak RSS.
With ``--trace 1`` it wraps rrglab's layer-boundary functions and reports
per-layer medians over the recipe calls instead.  The last line of stdout is the result JSON.
"""

import os

# One BLAS/OpenMP thread; these must be set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, config_text  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"
TRACE_DIR = BENCH_DIR / "traces"
SETUP_REPEATS = 7

# A fresh interpreter up to the moment the recipe would start: import the
# CLI, parse the arguments and resolve the config file, as rrglab.cli.main
# does before it calls the recipe.  It prints the monotonic clock, which is
# shared by every process on the machine.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from rrglab.cli import build_parser
from rrglab.config import resolve_config
from rrglab.harness import RECIPE_DEFAULTS
args = build_parser().parse_args(sys.argv[2:])
resolve_config(recipe_defaults=RECIPE_DEFAULTS.get(args.recipe),
               file_path=args.config, overrides={"output_dir": args.out})
print(time.perf_counter())
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(argv):
    """Median seconds from spawning an interpreter to the recipe start."""
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *argv],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        if repeat:  # the first one fills the file cache and byte-code cache
            times.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(times)


def machine_context(kernels):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"backend": kernels.BACKEND, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu_count": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


class Run:
    """Counts operations and failures over the rounds of one run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, name, ok, expected=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"operation {name} failed", file=sys.stderr)
            # the known fault is counted but says nothing about other outputs
            self.correct = self.correct and not expected


def call_recipe(cli, argv):
    try:
        return cli.main(argv)
    except Exception:  # a crash is one failed operation, not the end of the run
        traceback.print_exc()
        return None


def recipe_argv(recipe, config_file, text, out):
    config_file.write_text(text)
    return [recipe, "--config", str(config_file), "--out", str(out)]


def check_round(run, workload, code, out):
    """Record the recipe call and each check as one operation; drop the output."""
    run.record(workload.recipe, code == 0)
    for name, check in workload.checks:
        ok = code == 0
        if ok:
            try:
                check(out)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                print(f"check {name}: {exc}", file=sys.stderr)
                ok = False
        run.record(name, ok)
    shutil.rmtree(out, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rrglab").is_dir():
        sys.exit(f"no rrglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rrglab.cli  # binds rrglab, with every module the tracer wraps

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeds = [args.seed * workload.sub_seeds + k for k in range(workload.sub_seeds)]
    run = Run()
    walls, traced = [], []  # per round: mean call wall time; per call: spans
    call_walls = []  # per round: the wall time of each recipe call
    tracer = Tracer() if args.trace else None
    peak_rss_mb = setup_s = None
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        argvs = [recipe_argv(workload.recipe, tmp / f"recipe{k}.cfg",
                             config_text(dict(workload.config, seed=seed)), out)
                 for k, seed in enumerate(seeds)]
        if workload.known_fault:
            fault_name, fault_config = workload.known_fault
            fault_out = tmp / "fault"
            fault_argv = recipe_argv(workload.recipe, tmp / "fault.cfg",
                                     config_text(fault_config), fault_out)
        if tracer:
            tracer.install(rrglab)
        else:
            setup_s = measure_setup(argvs[0])
        deadline = time.perf_counter() + args.seconds
        while True:
            round_walls = []
            for argv in argvs:
                if tracer:
                    tracer.take()  # drops spans from outside a timed call (known fault)
                    with tracer.span(ROOT_SPAN) as root:
                        code = call_recipe(rrglab.cli, argv)
                    round_walls.append(root.duration)
                    traced.append(tracer.take())
                else:
                    start = time.perf_counter()
                    code = call_recipe(rrglab.cli, argv)
                    round_walls.append(time.perf_counter() - start)
                    if peak_rss_mb is None:  # before any check allocates
                        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                check_round(run, workload, code, out)
            walls.append(statistics.fmean(round_walls))
            call_walls.append(round_walls)
            if workload.known_fault:
                code = call_recipe(rrglab.cli, fault_argv)
                run.record(fault_name, code not in (0, None), expected=False)
                shutil.rmtree(fault_out, ignore_errors=True)
            if time.perf_counter() >= deadline:
                break
        if tracer:
            tracer.uninstall()

    context = machine_context(rrglab._kernels)
    context.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   config=config_text(workload.config).splitlines(),
                   call_seeds=seeds, call_wall_s=call_walls)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        layers = [layer_metrics(spans) for spans in traced]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        units = declared["per_layer"]
        TRACE_DIR.mkdir(exist_ok=True)
        calls = [{"metrics": m, "spans": [asdict(span) for span in spans]}
                 for m, spans in zip(layers, traced)]
        (TRACE_DIR / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"context": context, "calls": calls}, indent=1))
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        units = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
    print("context " + json.dumps(context))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
