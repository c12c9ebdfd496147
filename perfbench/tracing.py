"""Span tracing of polyvec's public functions, from outside the library.

``Tracer.install`` wraps each function named in ``metrics.FUNCTIONS`` and
rebinds the wrapper wherever a polyvec module binds the original, so calls
made inside the library (``schouten`` imported into ``structures``,
``linalg.rref`` looked up as a module attribute, ...) are timed as well.
Spans live in memory as lists and are written out once, after the run.
"""

import json
import statistics
import sys
import time

import metrics


class Tracer:
    """Collects spans ``[function id, start ns, end ns, parent span, job,
    tag, error, attrs]`` for the jobs it is told about."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.names = [f"{m}.{fn}" for m, fns in metrics.FUNCTIONS.items() for fn in fns]
        self.spans = []
        self.job = -1
        self.tag = None
        self._stack = []
        self._seen = {fn: set() for fn in metrics.REPEAT_TRACKED}
        self._patches = []

    # -- wrapping ---------------------------------------------------------------

    def install(self):
        if not self._patches:
            modules = [m for name, m in sys.modules.items()
                       if name == "polyvec" or name.startswith("polyvec.")]
            for fid, qualified in enumerate(self.names):
                module_name, fn = qualified.split(".")
                original = getattr(sys.modules[f"polyvec.{module_name}"], fn)
                wrapper = self._wrap(fid, qualified, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def mark(self, item):
        """Tag the spans of the next input with its class (normal, n5, ...)."""
        self.tag = item.get("tag")

    def _wrap(self, fid, qualified, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = _HOOKS.get(qualified, (None, None))
        error_type = self.error_type
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(tracer, args) if before else None
            span = [fid, 0, 0, stack[-1] if stack else -1, tracer.job, tracer.tag, False, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            except error_type:
                span[2] = clock()
                span[6] = True
                raise
            finally:
                if not span[2]:
                    span[2] = clock()
                stack.pop()
            if after:
                after(span, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def reset_invocation(self):
        for seen in self._seen.values():
            seen.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON document (function names, then rows)."""
        rows = [[s[0], s[1], s[2], s[3], s[4], s[5], s[6]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"functions": self.names,
                       "columns": ["function", "start_ns", "end_ns", "parent", "job",
                                   "tag", "error"],
                       "spans": rows}, fh, separators=(",", ":"))

    def layer_metrics(self, job_seconds):
        """Per-job per-layer metrics from the spans of jobs 0..len(job_seconds)-1."""
        njobs = len(job_seconds)
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        per_job_self = {}  # (function id, job) -> ns
        scaled = {}        # (metric name, job) -> ns
        calls = [0] * len(self.names)
        errors = {m: 0 for m in metrics.FUNCTIONS}
        counts = {}
        run_ns, run_calls = {}, {}
        index = {name: fid for fid, name in enumerate(self.names)}
        schouten, pushforward = index["fields.schouten"], index["fields.pushforward"]
        rank_fid, rref, cli_run = (index["structures.generic_rank"], index["linalg.rref"],
                                   index["cli.run"])
        for i, s in enumerate(self.spans):
            fid, start, end, _, job, tag, failed, attrs = s
            own = end - start - child_ns[i]
            per_job_self[fid, job] = per_job_self.get((fid, job), 0) + own
            calls[fid] += 1
            if failed:
                errors[self.names[fid].split(".")[0]] += 1
            if fid == cli_run:
                cmd = attrs["command"]
                run_ns[cmd] = run_ns.get(cmd, 0) + end - start
                run_calls[cmd] = run_calls.get(cmd, 0) + 1
                continue
            for key, value in (attrs or {}).items():
                if key != "dim":
                    counts[key] = counts.get(key, 0) + value
            if fid in (schouten, pushforward, rank_fid):
                name = f"{self.names[fid]}.self_ms.n{attrs['dim']}"
                scaled[name, job] = scaled.get((name, job), 0) + own
            elif fid == rref and tag in metrics.RREF_TAGS:
                name = f"linalg.rref.self_ms.{tag}"
                scaled[name, job] = scaled.get((name, job), 0) + own

        def median_ms(key_of):
            return statistics.median(key_of(job) / 1e6 for job in range(njobs))

        out = {}
        module_ns = {m: 0 for m in metrics.FUNCTIONS}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid] / njobs
            out[f"{name}.self_ms"] = median_ms(lambda j, f=fid: per_job_self.get((f, j), 0))
            module_ns[name.split(".")[0]] += sum(per_job_self.get((fid, j), 0)
                                                 for j in range(njobs))
        wall_ns = sum(job_seconds) * 1e9
        for module in metrics.FUNCTIONS:
            out[f"{module}.self_share"] = module_ns[module] / wall_ns
            out[f"{module}.errors"] = errors[module] / njobs

        def ratio(num, den):
            return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

        out["fields.pairs"] = counts.get("pairs", 0) / njobs
        out["fields.terms_out"] = counts.get("terms_out", 0) / njobs
        out["fields.yield"] = ratio("terms_out", "pairs")
        out["linalg.cells"] = counts.get("cells", 0) / njobs
        out["linalg.pivot_yield"] = ratio("pivots", "rows")
        out["classifier.kernel_dim"] = counts.get("kernel_dim", 0) / njobs
        out["classifier.generator_yield"] = ratio("generators", "basis")
        for fn in metrics.REPEAT_TRACKED:
            out[f"structures.{fn}.repeat_share"] = ratio(f"{fn}.repeats", f"{fn}.calls")
        for name, _, _ in metrics.per_layer():
            if ".self_ms." in name:
                out[name] = median_ms(lambda j, n=name: scaled.get((n, j), 0))
        for cmd in metrics.CLI_COMMANDS:
            out[f"cli.run.{cmd}.ms"] = (run_ns.get(cmd, 0) / run_calls[cmd] / 1e6
                                        if run_calls.get(cmd) else 0.0)
        return out


# -- per-function counters ------------------------------------------------------
# ``before`` runs ahead of the span's start time and returns the span's
# counters; ``after`` adds counters read from the result.


def _fields_pair(tracer, args):
    u, v = args[0], args[1]
    return {"pairs": len(u.terms) * len(v.terms), "dim": u.dim}


def _fields_out(span, args, result):
    span[7]["terms_out"] = len(result.terms)


def _pushforward_before(tracer, args):
    return {"dim": args[1].dim}


def _rref_before(tracer, args):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0), "rows": len(rows)}


def _rref_after(span, args, result):
    span[7]["pivots"] = len(result[1])


def _kernel_after(span, args, result):
    span[7] = {"kernel_dim": result.dimension}


def _catalog_after(span, args, result):
    span[7] = {"generators": len(result.generators), "basis": result.kernel.dimension}


def _repeat_before(fn):
    def before(tracer, args):
        seen = tracer._seen[fn]
        field = args[0]
        repeat = field in seen
        seen.add(field)
        attrs = {f"{fn}.calls": 1, f"{fn}.repeats": int(repeat)}
        if fn == "generic_rank":
            attrs["dim"] = field.dim
        return attrs
    return before


def _run_before(tracer, args):
    if not tracer._stack:
        tracer.reset_invocation()
    return {"command": args[0][0] if args[0] else ""}


_HOOKS = {
    "fields.schouten": (_fields_pair, _fields_out),
    "fields.wedge": (_fields_pair, _fields_out),
    "fields.pushforward": (_pushforward_before, None),
    "linalg.rref": (_rref_before, _rref_after),
    "classifier.centralizer_kernel": (None, _kernel_after),
    "classifier.compatible_cubic_oneforms": (None, _kernel_after),
    "classifier.quad4_catalog": (None, _catalog_after),
    "classifier.cubic3_catalog": (None, _catalog_after),
    "cli.run": (_run_before, None),
}
_HOOKS.update({f"structures.{fn}": (_repeat_before(fn), None) for fn in metrics.REPEAT_TRACKED})
