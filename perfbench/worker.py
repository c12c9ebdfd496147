"""One benchmark process: import polyvec, warm up, run jobs, check outputs.

``run.py`` starts this file in a fresh interpreter and writes the request
(workload, seconds, trace flag and the generated inputs) as JSON on its
stdin.  After ``import polyvec`` and one untimed warm-up job it prints
``ready``; a set-up probe exits there, a measuring process goes on and
prints one JSON result line.

A job is one whole pass over the workload's input list.  Outputs are
checked exactly after the timed loop: every distinct output of a job is
verified once, and a job fails when it raises or its output does not pass.
"""

import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def load_polyvec():
    """Import polyvec from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import polyvec
    from polyvec import cli, decomposition, duality, fields  # noqa: F401
    if not Path(polyvec.__file__).resolve().is_relative_to(src):
        raise ImportError(f"polyvec imported from {polyvec.__file__}, not from {src}")
    return polyvec


def _no_mark(item):
    pass


# -- jobs: each returns (signature, objects).  The signature is a hashable
# -- rendering of every output, so equal signatures are checked once; objects
# -- are what the check needs beyond the rendered outputs.


def cli_job(pv, items, mark=_no_mark):
    """One ``polyvec.cli.run`` per item; the outputs are (exit code, stdout)."""
    outputs = []
    for item in items:
        mark(item)
        out, err = io.StringIO(), io.StringIO()
        code = pv.cli.run(item["argv"], out, err)
        outputs.append((code, out.getvalue()))
    return tuple(outputs), None


def brackets_job(pv, items, mark=_no_mark):
    cli, fields, duality, decomposition = pv.cli, pv.fields, pv.duality, pv.decomposition
    texts, objects = [], []
    for item in items:
        mark(item)
        n = item["n"]
        a = cli.parse_field(item["a"], n)
        b = cli.parse_field(item["b"], n)
        s = fields.schouten(a, b)
        w = fields.wedge(a, b)
        t = duality.trace_d(w)
        parts = decomposition.decompose(s)
        tracefree, trace = decomposition.bracket_parts(a, b)
        lmat = cli.parse_matrix(item["matrix"])
        p = fields.pushforward(lmat, a)
        results = (s, w, t, parts.tracefree, parts.trace, tracefree, trace, p)
        texts.append(tuple(cli.format_expr(r) for r in results))
        objects.append((a, lmat, parts) + results)
    return tuple(texts), objects


# -- exact checks ----------------------------------------------------------------


def check_catalog(pv, items, outputs, objects):
    problems = []
    for item, (code, text) in zip(items, outputs):
        if code != 0:
            problems.append(f"{item['label']}: exit code {code}")
            continue
        doc = json.loads(text)
        if not pv.cli.reverify_catalog_document(doc):
            problems.append(f"{item['label']}: reverify_catalog_document failed")
        if "golden_text" in item:
            if text != item["golden_text"]:
                problems.append(f"{item['label']}: document differs from the golden")
    for item, (code, text) in zip(items, outputs):
        if "normal_form" in item and code == 0:
            doc, normal = json.loads(text), json.loads(item["normal_form_text"])
            for key in ("kernel_dimension", "tracefree_dimension"):
                if doc[key] != normal[key]:
                    problems.append(f"{item['label']}: {key} {doc[key]} != {normal[key]}")
    return problems


def check_rank(pv, items, outputs, objects):
    problems = []
    for item, (code, text) in zip(items, outputs):
        if code != 0 or text.strip() != str(item["expected"]):
            problems.append(f"{item['label']}: got exit {code} output {text.strip()!r}, "
                            f"expected {item['expected']}")
    return problems


def check_brackets(pv, items, outputs, objects):
    cli, fields, duality = pv.cli, pv.fields, pv.duality
    problems = []
    for item, texts, objs in zip(items, outputs, objects):
        a, lmat, parts, s, w, t, _, _, tracefree, trace, p = objs
        label = item["label"]
        if tracefree != parts.tracefree or trace != parts.trace:
            problems.append(f"{label}: bracket_parts differs from decompose(schouten)")
        if not duality.trace_d(t).is_zero():
            problems.append(f"{label}: trace_d(trace_d(w)) is not zero")
        for text, obj in zip(texts, (s, w, t, parts.tracefree, parts.trace, tracefree, trace, p)):
            if cli.parse_field(text, item["n"]) != obj:
                problems.append(f"{label}: parse_field(format_expr(x)) != x")
                break
        det = Fraction(item["det"])
        if duality.trace_d(p) != fields.pushforward(lmat, duality.trace_d(a)).scale(det):
            problems.append(f"{label}: D(L_* A) != det(L) L_*(D A)")
    return problems


JOBS = {
    "catalog": (cli_job, check_catalog),
    "brackets": (brackets_job, check_brackets),
    "rank": (cli_job, check_rank),
}


# -- timed loop --------------------------------------------------------------------


def run_jobs(jobs, seconds, distinct):
    """Run whole jobs, cycling through ``jobs``, until ``seconds`` have passed
    and the cycle is complete.  Returns the per-job seconds of each entry of
    ``jobs`` and the signatures of every job run (None for a job that
    raised).  ``distinct`` maps each signature to its first copy and the
    objects of its first job; later jobs keep only a reference to that copy,
    so the memory held does not grow with the number of jobs."""
    latencies = [[] for _ in jobs]
    signatures = []
    start = time.perf_counter()
    while True:
        for job, times in zip(jobs, latencies):
            t0 = time.perf_counter()
            try:
                signature, objects = job()
            except Exception:
                times.append(time.perf_counter() - t0)
                signatures.append(None)
                if signatures.count(None) == 1:
                    traceback.print_exc(file=sys.stderr)
            else:
                times.append(time.perf_counter() - t0)
                signatures.append(distinct.setdefault(signature, (signature, objects))[0])
        if time.perf_counter() - start >= seconds:
            return latencies, signatures


def count_failures(pv, workload, items, distinct, signatures):
    check = JOBS[workload][1]
    verdicts = {}
    for signature, (_, objects) in distinct.items():
        try:
            problems = check(pv, items, signature, objects)
        except Exception as exc:  # malformed output: a failed job, not a crash
            problems = [f"checking raised {exc!r}"]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        verdicts[signature] = not problems
    return sum(1 for sig in signatures if sig is None or not verdicts[sig])


def measure(pv, request):
    """The measurement after set-up: returns the result dictionary.

    A traced run alternates untraced and traced jobs, so both sides of
    ``trace.overhead_ratio`` see the same machine conditions."""
    workload, seconds, items = request["workload"], request["seconds"], request["inputs"]["items"]
    job_fn = JOBS[workload][0]
    distinct = {}

    def plain_job():
        return job_fn(pv, items)

    if not request["trace"]:
        (latencies,), signatures = run_jobs([plain_job], seconds, distinct)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = count_failures(pv, workload, items, distinct, signatures)
        return {"latencies_s": latencies, "failed": failed, "peak_rss_mb": peak_kb / 1024}

    tracer = Tracer(pv.PolyvecError)

    def traced_job():
        tracer.job += 1
        tracer.install()
        try:
            return job_fn(pv, items, tracer.mark)
        finally:
            tracer.uninstall()

    (plain, traced), signatures = run_jobs([plain_job, traced_job], seconds, distinct)
    failed = count_failures(pv, workload, items, distinct, signatures)
    layer = tracer.layer_metrics(traced)
    layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    spans_path = request.get("spans_path")
    if spans_path:
        tracer.write(spans_path)
    return {"latencies_s": plain, "traced_latencies_s": traced, "failed": failed,
            "layer_metrics": layer, "spans": len(tracer.spans)}


def main():
    request = json.load(sys.stdin)
    pv = load_polyvec()
    job_fn = JOBS[request["workload"]][0]
    job_fn(pv, request["inputs"]["items"])
    print("ready", flush=True)
    if request["mode"] == "setup":
        return 0
    print(json.dumps(measure(pv, request)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
