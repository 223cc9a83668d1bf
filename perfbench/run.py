#!/usr/bin/env python3
"""Outside-in benchmark of the unlinked estimator stack.

Run from the repository root:

    python3 perfbench/run.py --workload fit-n100 --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics untraced.  `--trace 1` runs
every step twice, untraced and with every public function of the package
wrapped, and reports the per-layer metrics.  The
metric names, units and directions come from BENCHMARK.json.  The last
line of standard output is the result as one JSON object; spans and a full
result record go to perfbench_out/.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core AMD EPYC it fitted as fast as two on every
# workload (n=1000 included) and far more steadily, because a second BLAS
# thread stalls whenever another process holds its core.
BLAS_THREADS = 1
SETUP_REPEATS = 3  # set-ups timed per run, this process's included; setup_s is their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("fit-n100", "fit-n1000", "study-ml"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time of the closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="K=3, B=4, 2 outer iterations: a smoke test")
    p.add_argument("--setup-only", action="store_true", help="print the set-up seconds of a fresh process and exit")
    return p.parse_args(argv)


def environment(trace_overhead=None) -> dict:
    import numpy
    import scipy

    def blas_version():
        try:
            return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "trace_overhead": trace_overhead,
    }


def fresh_setup_s(args) -> float:
    """Set-up seconds of a fresh interpreter: imports plus the dataset pool."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "unlinked" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/unlinked package or no BENCHMARK.json", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import workloads as wl
    from tracer import Tracer

    declared = json.loads(spec_path.read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in declared[kind]}

    OUT.mkdir(exist_ok=True)
    scratch = wl.scratch_dir(OUT)
    try:
        work = wl.Workload(args.workload, args.seed, scratch, small=args.tiny)
        work.setup()
        setup_samples = [time.perf_counter() - T0]
        if args.setup_only:
            print(setup_samples[0])
            return 0
        if args.trace:
            tracer = Tracer()
            measured, traced, traced_wall = work.run_paired(args.seconds, tracer)
            passes = [measured, traced]
            tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        else:
            measured = work.run(args.seconds)
            passes = [measured]
        work.add_oracle(measured)
        failures = [f for p in passes for f in p.failures]
        attempted = sum(p.units for p in passes)
        if args.trace:
            values = wl.per_layer(tracer, traced, traced_wall, measured, len(failures), attempted)
            balance = wl.self_time_balance(values)
            if abs(balance) > 1e-6 * max(1.0, values["trace.wall_s"]):
                failures.append(f"self times and time outside spans miss the traced wall time by {balance} s")
            overhead = values["trace_overhead"]
        else:
            setup_samples += [fresh_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
            values = wl.end_to_end(statistics.median(setup_samples), measured)
            overhead = None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(values) != set(specs):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {sorted(set(values) ^ set(specs))}")
    env = environment(overhead)
    metrics = {name: {"value": float(values[name]), "unit": specs[name]["unit"]} for name in specs}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "env": env, "steps": measured.steps, "fit_s_samples": measured.fit_s,
              "failures": failures, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for f in failures:
        print(f"failed: {f}")
    print("env " + json.dumps(env))
    print(f"samples: {len(measured.fit_s)} fit times, {measured.units} units, {measured.steps} steps")
    for name, spec in specs.items():
        print(f"{name:44s} {values[name]:>16.6g} {spec['unit']:<10s} {spec['better']} is better")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
