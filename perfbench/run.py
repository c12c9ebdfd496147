"""polyvec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads: catalog, brackets, rank (see metrics.WORKLOADS).  Load model: a
closed loop with one client, one process and one thread; a job is one whole
pass over the workload's seeded input list, and every job of a run uses the
same inputs.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
the median over SETUP_PROBES fresh interpreters of the time from start until
``import polyvec`` and one warm-up job are done; the last of them goes on to
run jobs for ``--seconds`` and reports the mean job latency, the latency
at the highest percentile with at least ten jobs beyond it, and its peak
RSS.  With ``--trace 1`` one process alternates untraced and traced jobs
and reports the per-layer metrics of the traced ones plus the tracing
overhead (traced over untraced median job latency).

Outputs are checked exactly; failures count against ``attempted``.  The last
line of stdout is one JSON object; the full record of the run is written to
perfbench/results/<workload>-trace<t>.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
RESULTS = HERE / "results"


class BenchmarkError(Exception):
    pass


def build_inputs(workload, seed):
    """Seeded inputs, with the recorded goldens the catalog checks against."""
    inputs = workloads.INPUTS[workload](seed)
    for item in inputs["items"]:
        if "golden" in item:
            item["golden_text"] = workloads.read_golden(item["golden"])
        if "normal_form" in item:
            item["normal_form_text"] = workloads.read_golden(item["normal_form"])
    return inputs


def start_worker(request):
    """Start a worker and wait for ``ready``; returns (process, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(json.dumps(request))
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchmarkError(f"worker did not get ready (exit {proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, elapsed


def finish_worker(proc):
    try:
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not lines:
        raise BenchmarkError(f"worker failed (exit {code})")
    return json.loads(lines[-1])


def tail(latencies_ms):
    """Latency at the highest percentile with at least ten jobs beyond it:
    (value, percentile, jobs beyond).  With ten jobs or fewer, the maximum."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure(args, inputs):
    request = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "inputs": inputs, "mode": "setup",
               "spans_path": str(RESULTS / f"{args.workload}-spans.json")}
    setups = []
    probes = 1 if args.trace else SETUP_PROBES
    for i in range(probes):
        request["mode"] = "measure" if i == probes - 1 else "setup"
        proc, elapsed = start_worker(request)
        setups.append(elapsed)
        if i < probes - 1:
            code = proc.wait()
            proc.stdout.close()
            if code != 0:
                raise BenchmarkError(f"set-up probe failed (exit {code})")
    return setups, finish_worker(proc)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "polyvec" / "__init__.py").is_file():
        print(f"error: no polyvec source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = build_inputs(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    try:
        setups, result = measure(args, inputs)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    latencies_ms = [s * 1000 for s in result["latencies_s"]]
    attempted = len(latencies_ms) + len(result.get("traced_latencies_s", []))
    failed = result["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": metrics.WORKLOADS[args.workload],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "jobs": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "inputs": [item["label"] for item in inputs["items"]],
        "layer_effects": metrics.LAYER_EFFECTS,
    }
    units = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.per_layer()}
    if args.trace:
        values = result["layer_metrics"]
        record["untraced_job_ms"] = latencies_ms
        record["traced_job_ms"] = [s * 1000 for s in result["traced_latencies_s"]]
        record["spans"] = result["spans"]
    else:
        value, percentile, beyond = tail(latencies_ms)
        values = {
            "job_mean_ms": statistics.fmean(latencies_ms),
            "job_tail_ms": value,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        record.update({"job_ms": latencies_ms, "setup_samples_s": setups,
                       "job_p50_ms": statistics.median(latencies_ms),
                       "job_tail_percentile": percentile, "job_tail_beyond": beyond})
    report = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record["metrics"] = report
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, metric in report.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload}: {attempted} jobs, tail at p{record['job_tail_percentile']:.1f} "
              f"({record['job_tail_beyond']} jobs beyond), {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
