"""Self-checks of the benchmark itself, on small jobs (a few seconds):

    python3 perfbench/selfcheck.py

1. one small job per workload passes its exact checks;
2. a corrupted golden, a wrong expected rank and a job that raises are each
   counted as one failed job, and the run goes on;
3. a short traced run emits every per-layer metric on every workload, and
   BENCHMARK.json lists exactly the workloads and metrics of metrics.py.

Exits 0 when every check holds and 1 otherwise.
"""

import copy
import json
import sys

import metrics
import worker
from run import ROOT, build_inputs

FAILURES = []

# Per-layer metrics that must be non-zero on each workload's small job.
APPLIES = {
    "catalog": ("linalg.rref.self_ms.normal", "linalg.rref.self_ms.conjugate",
                "linalg.pivot_yield", "classifier.kernel_dim", "classifier.generator_yield",
                "structures.is_poisson.repeat_share", "cli.run.classify-quad4.ms",
                "cli.run.classify-cubic3.ms", "fields.yield"),
    "brackets": ("fields.schouten.self_ms.n4", "fields.pushforward.self_ms.n4", "fields.pairs",
                 "decomposition.bracket_parts.self_ms", "cli.parse_field.self_ms"),
    "rank": ("structures.generic_rank.self_ms.n5", "cli.run.rank.ms", "cli.parse_field.calls"),
}


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def small_items(workload):
    items = build_inputs(workload, 0)["items"]
    if workload == "catalog":
        return [i for i in items if i["label"] in ("cubic3-A12", "quad4-diagonal")
                or i["tag"] == "conjugate"]
    if workload == "brackets":
        return items[:1]
    return [i for i in items if i["n"] == 5]


def failed_jobs(pv, workload, items, jobs=1):
    """Run ``jobs`` whole jobs and return how many failed."""
    distinct, signatures = {}, []
    job = worker.JOBS[workload][0]
    for _ in range(jobs):
        signatures += worker.run_jobs([lambda: job(pv, items)], 0, distinct)[1]
    return worker.count_failures(pv, workload, items, distinct, signatures)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"]: w["why"] for w in spec["workloads"]} == metrics.WORKLOADS,
           "BENCHMARK.json workloads match metrics.WORKLOADS")
    expect([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
           == [tuple(m) for m in metrics.END_TO_END],
           "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == metrics.per_layer(), "BENCHMARK.json per_layer matches metrics.per_layer()")


def main():
    pv = worker.load_polyvec()
    for workload in metrics.WORKLOADS:
        items = small_items(workload)
        expect(failed_jobs(pv, workload, items) == 0,
               f"{workload}: a small job passes its exact checks")

    items = small_items("catalog")
    bad = copy.deepcopy(items)
    bad[0]["golden_text"] = bad[0]["golden_text"].replace('"dim": 4', '"dim": 5', 1)
    expect(failed_jobs(pv, "catalog", bad, jobs=2) == 2,
           "catalog: a corrupted golden fails every job and the run goes on")

    bad = copy.deepcopy(small_items("rank"))
    bad[0]["expected"] += 2
    expect(failed_jobs(pv, "rank", bad, jobs=2) == 2,
           "rank: a wrong expected rank fails every job and the run goes on")

    bad = copy.deepcopy(small_items("brackets"))
    bad[0]["a"] = "x9*d1"
    expect(failed_jobs(pv, "brackets", bad, jobs=2) == 2,
           "brackets: a job that raises counts as failed and the run goes on")

    names = [name for name, _, _ in metrics.per_layer()]
    for workload in metrics.WORKLOADS:
        request = {"workload": workload, "seconds": 0, "trace": 1,
                   "inputs": {"items": small_items(workload)}}
        result = worker.measure(pv, request)
        emitted = result["layer_metrics"]
        expect(sorted(emitted) == sorted(names) and result["failed"] == 0,
               f"{workload}: the traced run emits all {len(names)} per-layer metrics")
        expect(all(emitted.get(name, 0) > 0 for name in APPLIES[workload]),
               f"{workload}: the layers it exercises read non-zero")

    check_benchmark_json()
    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES else "all self-checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
