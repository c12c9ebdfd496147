"""Names of every metric the benchmark reports, and what each should move.

BENCHMARK.json lists the same names; ``selfcheck.py`` checks that the two
agree and that a traced run emits every per-layer name.
"""

WORKLOADS = {
    "catalog": "The paper's dim-4 quadratic and dim-3 cubic catalogs run through the CLI, "
               "ten canonical strata plus one dense seeded conjugate; the only workload "
               "where linalg and classifier do the work.",
    "brackets": "Seeded rational homogeneous pairs through parse, Schouten, wedge, trace, "
                "decomposition and pushforward: few large non-integer operands, no linalg "
                "or classifier.",
    "rank": "Certified generic ranks of seeded bi-vectors at n = 5..7 through the CLI: "
            "almost all structures.generic_rank plus cli parsing.",
}

# (name, unit, better, bound).  The central latency is the mean, not the
# median: on a shared 2-vCPU virtual machine whose speed switches between
# two levels about 1.5x apart for tens of seconds at a time, the median of a
# run jumps between the levels while the mean moves with the share of time
# spent in each.  In one set of ten 30 s catalog runs there, the run medians
# spread by 0.33 (IQR over median) and the run means by 0.21.  The median is
# still written to the per-run record.
END_TO_END = [
    ("job_mean_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Public functions timed by the traced run, per module of src/polyvec.
# polynomials is internal: its time is self time of fields.pushforward and
# structures.generic_rank, its only callers.
FUNCTIONS = {
    "cli": ("run", "parse_field", "format_expr", "catalog_document"),
    "classifier": ("quad4_catalog", "cubic3_catalog", "compatible_cubic_oneforms",
                   "centralizer_kernel", "tracefree_projection", "quartic_constraints",
                   "build_quadratic_poisson"),
    "linalg": ("rref", "nullspace", "rank"),
    "fields": ("schouten", "wedge", "pushforward"),
    "duality": ("trace_d", "exterior_derivative", "interior_product", "lie_derivative_form",
                "wedge_forms", "from_form"),
    "decomposition": ("decompose", "bracket_parts"),
    "structures": ("is_poisson", "is_simple", "generic_rank"),
}

REPEAT_TRACKED = ("is_poisson", "is_simple", "generic_rank")
SCHOUTEN_DIMS = (4, 6, 8)
RANK_DIMS = (5, 6, 7)
RREF_TAGS = ("normal", "conjugate")
CLI_COMMANDS = ("classify-quad4", "classify-cubic3", "rank")


def per_layer():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, names in FUNCTIONS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_ms", "ms", "lower"))
    for module in FUNCTIONS:
        out.append((f"{module}.self_share", "ratio", "lower"))
        out.append((f"{module}.errors", "count", "lower"))
    out += [
        ("fields.pairs", "count", "lower"),
        ("fields.terms_out", "count", "lower"),
        ("fields.yield", "ratio", "higher"),
        ("linalg.cells", "count", "lower"),
        ("linalg.pivot_yield", "ratio", "higher"),
        ("classifier.kernel_dim", "count", "lower"),
        ("classifier.generator_yield", "ratio", "higher"),
    ]
    out += [(f"structures.{fn}.repeat_share", "ratio", "lower") for fn in REPEAT_TRACKED]
    out += [(f"fields.schouten.self_ms.n{n}", "ms", "lower") for n in SCHOUTEN_DIMS]
    out += [(f"fields.pushforward.self_ms.n{n}", "ms", "lower") for n in SCHOUTEN_DIMS]
    out += [(f"structures.generic_rank.self_ms.n{n}", "ms", "lower") for n in RANK_DIMS]
    out += [(f"linalg.rref.self_ms.{tag}", "ms", "lower") for tag in RREF_TAGS]
    out += [(f"cli.run.{cmd}.ms", "ms", "lower") for cmd in CLI_COMMANDS]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


# Which layer metric should move which end-to-end metric, on which workload.
LAYER_EFFECTS = [
    {"layer": "linalg.rref.self_ms, linalg.cells, linalg.pivot_yield",
     "moves": "job_mean_ms, job_tail_ms", "on": "catalog (most through the conjugate)",
     "none_on": "brackets, rank"},
    {"layer": "classifier.*.self_ms", "moves": "job_mean_ms, job_tail_ms", "on": "catalog",
     "none_on": "brackets, rank"},
    {"layer": "duality.lie_derivative_form / interior_product / exterior_derivative / "
              "wedge_forms self_ms",
     "moves": "job_mean_ms, job_tail_ms", "on": "catalog", "none_on": "brackets, rank"},
    {"layer": "structures.*.repeat_share, structures.is_poisson / is_simple self_ms",
     "moves": "job_mean_ms, job_tail_ms", "on": "catalog (catalog_document re-verifies "
     "generators already checked)", "none_on": "brackets, rank"},
    {"layer": "fields.schouten / fields.wedge self_ms, fields.yield, decomposition.*",
     "moves": "job_mean_ms, job_tail_ms", "on": "brackets (mostly), catalog (through "
     "is_poisson, about 18 % of a pass)", "none_on": "rank"},
    {"layer": "fields.pushforward.self_ms", "moves": "job_tail_ms, peak_rss_mb",
     "on": "brackets", "none_on": "catalog, rank"},
    {"layer": "structures.generic_rank.self_ms", "moves": "job_mean_ms, job_tail_ms",
     "on": "rank (small on catalog, about 4 %)", "none_on": "brackets"},
    {"layer": "cli.run.self_ms", "moves": "job_mean_ms",
     "on": "rank, catalog (argparse is rebuilt per invocation)", "none_on": "brackets"},
    {"layer": "cli.parse_field / cli.format_expr self_ms", "moves": "job_mean_ms",
     "on": "brackets (about 17 % of a pair), rank", "none_on": ""},
    {"layer": "import cost of polyvec.cli", "moves": "setup_s", "on": "all", "none_on": ""},
]
