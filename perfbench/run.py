"""apn20's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs come from --seed; the list is a
fixed amount of work that lasts about --seconds on the reference machine.
With --trace 0 the run reports the end-to-end metrics: set-up time is the
median over several cold starts of a fresh interpreter, and the operations
run in one more process.  With --trace 1 it runs the list once untraced and
once traced, in two processes, and reports the per-layer metrics.  Every
output is checked; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Details of the run go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
COLD_STARTS = 7  # odd: half before the measured process, half after
WORKER_TIMEOUT_S = 150
TAIL_SAMPLES = 10  # samples beyond the tail percentile
MODULES = ("fields", "apn", "polys", "surface", "classify", "divisors", "cli")
SPAN_METRICS = (
    ("fields.Field", ("calls", "self_ms")),
    ("fields.find_embedding", ("self_ms",)),
    ("fields.mul", ("calls",)),
    ("fields.mul_generic", ("calls",)),
    ("apn.value_table", ("calls", "self_ms")),
    ("apn.differential_uniformity", ("calls", "self_ms")),
    ("polys.exact_div", ("calls", "self_ms", "useful_ratio")),
    ("polys.TriPoly.mul", ("calls", "self_ms")),
    ("polys.is_permutation", ("self_ms",)),
    ("surface.surface_poly", ("calls", "self_ms")),
    ("surface.check_identity", ("self_ms",)),
    ("classify.search_perturbations", ("calls", "self_ms")),
    ("classify.ccz_witness", ("self_ms",)),
    ("classify.check_family_b_divisor", ("calls", "self_ms")),
    ("divisors.case_analysis", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
UNITS = {"calls": "count", "self_ms": "ms", "useful_ratio": "ratio"}


def worker(job: dict, mode: str, trace: bool = False) -> dict:
    """Run worker.py in a fresh single-threaded interpreter and return its result."""
    payload = json.dumps(dict(job, mode=mode, trace=trace))
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT)],
        input=payload, capture_output=True, text=True, env=env,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def check(workload, ops, measured) -> tuple[bool, int, list]:
    """correct: every operation not known to fail gave a right answer;
    failed: the operations that hit the fault they are known for."""
    correct, failed, report = True, 0, []
    for op, out, seconds in zip(ops, measured["outputs"], measured["latencies"]):
        error = workload.check(op, out["rc"], out["stdout"])
        if error and op.get("known_fault"):
            failed += 1
        elif error:
            correct = False
        report.append({"kind": op["kind"], "argv": op["argv"], "seconds": seconds,
                       "error": error, "stderr": out["stderr"]})
    return correct, failed, report


def end_to_end(measured: dict, setup_samples: list[float]) -> dict:
    lat = sorted(measured["latencies"])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "verdicts_per_s": (len(lat) / measured["loop_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
    }
    if len(lat) >= 4 * TAIL_SAMPLES:
        metrics["latency_tail_ms"] = (lat[-TAIL_SAMPLES - 1] * 1e3, "ms")
    metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    return metrics


def src_lines(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def per_layer(traced: dict, untraced: dict) -> dict:
    summary = traced["trace"]
    metrics = {}
    for name, fields in SPAN_METRICS:
        s = summary[name]
        for field in fields:
            if field == "useful_ratio":
                value = s["useful"] / s["calls"] if s["calls"] else 0.0
            else:
                value = s[field]
            metrics[f"{name}.{field}"] = (value, UNITS[field])
    src = ROOT / "src" / "apn20"
    for module in MODULES:
        metrics[f"{module}.src_lines"] = (src_lines(src / f"{module}.py"), "lines")
    metrics["apn20.src_lines"] = (sum(src_lines(p) for p in src.rglob("*.py")), "lines")
    rate = len(traced["latencies"]) / traced["loop_s"]
    metrics["trace.verdicts_per_s"] = (rate, "1/s")
    metrics["trace.overhead_ratio"] = (len(untraced["latencies"]) / untraced["loop_s"] / rate,
                                       "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src" / "apn20"
    if not (src / "cli.py").is_file():
        print(f"error: no apn20 sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    if not (compileall.compile_dir(str(src), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    ops = workload.make_ops(random.Random(f"{args.workload}:{args.seed}"), args.seconds)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {"ops": ops, "warmups": workload.warmups(ops), "towers": workload.towers,
           "trace_path": str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")}

    if args.trace:
        untraced = worker(job, "measure")
        measured = worker(job, "measure", trace=True)
        metrics = per_layer(measured, untraced)
    else:
        # cold starts before and after the measured process, so that the
        # median of set-up times spans the run rather than one moment of it
        starts = [worker(job, "setup") for _ in range(COLD_STARTS // 2)]
        measured = worker(job, "measure")
        starts += [measured] + [worker(job, "setup") for _ in range(COLD_STARTS // 2)]
        metrics = end_to_end(measured, [s["setup_s"] for s in starts])
        measured["import_s"] = statistics.median(s["import_s"] for s in starts)
    correct, failed, report = check(workload, ops, measured)

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(dict(result, import_s=measured["import_s"], operations=report), fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
