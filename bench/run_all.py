"""Run every workload, untraced and then traced, each run in its own process.

    python3 bench/run_all.py [--seed N]

Prints one markdown table with every metric by name and unit, the
operations attempted and failed, and the tracing overhead, one column per
workload; then the iterations and theta of each instance family.  These are
the reference tables of bench/README.md.  Workload names and the run length
come from BENCHMARK.json.  Exits with 1 if any answer failed its check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited with {proc.returncode}:\n{proc.stderr}")
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    # name -> (untraced info, untraced result, traced info, traced result)
    runs = {n: (*run(n, args.seed, spec["run_seconds"], 0),
                *run(n, args.seed, spec["run_seconds"], 1)) for n in names}

    rows = [("attempted", "ops", lambda r: r[1]["attempted"]),
            ("failed", "ops", lambda r: r[1]["failed"])]
    for m in spec["end_to_end"]:
        rows.append((m["name"], m["unit"], lambda r, k=m["name"]: r[1]["metrics"][k]["value"]))
    rows.append(("solve_ms_p90", "ms", lambda r: r[0].get("solve_ms_p90", "–")))
    for m in spec["per_layer"]:
        rows.append((m["name"], m["unit"], lambda r, k=m["name"]: r[3]["metrics"][k]["value"]))
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for key, unit, get in rows:
        print(f"| `{key}` | {unit} | " + " | ".join(fmt(get(runs[n])) for n in names) + " |")
    print()
    print("| family | workload | solves | failed | median iterations | median theta |")
    print("|---|---|---|---|---|---|")
    for n in names:
        for family, s in runs[n][0]["families"].items():
            print(f"| {family} | {n} | {s['solves']} | {s['failed']} | "
                  f"{fmt(s['iterations_median'])} | {fmt(s['theta_median'])} |")
    return 0 if all(r[1]["correct"] and r[3]["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
