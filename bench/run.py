"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sv_large --seed 1 --seconds 25 --trace 0

Solves the workload's round of operations in a closed loop, one caller, in
this process, until ``--seconds`` have passed, then prints an info line and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Every answer is checked against a reference
computed from the problem data alone (see checks.py).

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads OpenBLAS, which reads them once: default BLAS
# threading made solves up to 20x slower on a 2-core machine.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is repeated this many times and its median reported, so one slow
# repeat (page cache, a busy neighbour) does not decide setup_s.  Imports
# cannot be repeated in this process, so the extra repeats time them in
# child processes.
SETUP_REPEATS = 3
IMPORTS = "import numpy, scipy.linalg, scipy.optimize, hqp, hqp.cli"
# Stream of the run's random generator that draws the heap padding
# (see workloads.run_round).
LAYOUT_STREAM = 1
# The p90 is reported only when at least ten samples lie beyond it.
P90_MIN_OPS = 100

END_TO_END = (
    ("solves_per_s", "1/s"),
    ("solve_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_runtime() -> list:
    """Configuration and live thread count of the OpenBLAS builds that numpy
    and scipy bundle (each wheel carries its own, next to the package)."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs_dir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs_dir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            entry = {"lib": path.name}
            for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
                try:
                    threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                except AttributeError:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
            found.append(entry)
    return found


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def child_import_s() -> float:
    """Seconds a fresh interpreter spends importing what a run imports."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hqp" / "__init__.py").is_file():
        print(f"error: no hqp package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    import numpy as np
    import scipy

    import hqp
    import spans
    import workloads
    if Path(hqp.__file__).resolve().parent != SRC / "hqp":
        print(f"error: hqp imported from {hqp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: workload must be one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    imports_s = [time.perf_counter() - T_START]
    imports_s += [child_import_s() for _ in range(SETUP_REPEATS - 1)]

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as workdir:
        layout_rng = np.random.default_rng([args.seed, LAYOUT_STREAM])
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workloads.build(args.workload, args.seed, workdir)
            warm = workloads.run_round(ops[:1], layout_rng)
            setups.append(time.perf_counter() - t0)
        errors = list(warm.errors)

        tracer = spans.Tracer() if args.trace else None
        rounds, traced = [], []
        t_loop = time.perf_counter()
        while True:
            if tracer:
                # Rounds alternate untraced and traced, in both orders, so
                # the overhead compares like with like.
                flip = len(rounds) % 4 in (1, 2)
                if flip:
                    tracer.install()
                try:
                    rnd = workloads.run_round(ops, layout_rng, tracer if flip else None)
                finally:
                    tracer.uninstall()
                traced.append(flip)
            else:
                rnd = workloads.run_round(ops, layout_rng)
            rounds.append(rnd)
            errors += rnd.errors
            enough = time.perf_counter() - t_loop >= args.seconds
            if enough and (not tracer or len(rounds) % 2 == 0):
                break

    times_ms = [1e3 * t for r in rounds for t in r.times_s]
    attempted = len(times_ms)
    failed = sum(r.failed for r in rounds)
    passed = sum(r.passed for r in rounds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "imports_s": imports_s,
        "setup_repeats_s": setups,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas": blas_runtime(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "src_lines": src_line_count(),
    }
    first = rounds[0]
    families = {}
    for i, op in enumerate(ops):
        families.setdefault(op.family, []).append(first.answers.get(i))
    info["families"] = {}
    for family, found in sorted(families.items()):
        answered = [a for a in found if a]
        info["families"][family] = {
            "solves": len(found),
            "failed": len(found) - len(answered),
            "iterations_median": statistics.median(a["iterations"] for a in answered),
            "theta_median": statistics.median(a["theta"] for a in answered),
        }
    if attempted >= P90_MIN_OPS:
        info["solve_ms_p90"] = statistics.quantiles(times_ms, n=10)[-1]

    if tracer:
        def sps(flag):
            sel = [r for r, t in zip(rounds, traced) if t == flag]
            return sum(r.passed for r in sel) / sum(r.seconds for r in sel)

        info["solves_per_s_untraced"] = sps(False)
        info["solves_per_s_traced"] = sps(True)
        info["trace_file"] = str((out_dir / f"trace-{args.workload}-seed{args.seed}.npz").relative_to(ROOT))
        tracer.save(ROOT / info["trace_file"])
        values = spans.layer_metrics(tracer.names, tracer.arrays())
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - info["solves_per_s_traced"] / info["solves_per_s_untraced"]
        )
        units = dict(spans.PER_LAYER, **{"trace.overhead_pct": "%"})
    else:
        values = {
            # Every round runs the same operations, so the median round is
            # a robust measure of their cost: a burst of load from outside
            # that covers less than half of the rounds does not move it.
            "solves_per_s": passed / len(rounds) / statistics.median(r.seconds for r in rounds),
            "solve_ms_p50": statistics.median(times_ms),
            "setup_s": statistics.median(imports_s) + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    for line in errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
