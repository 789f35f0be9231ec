"""One entry point per table/figure of the paper's evaluation (§5).

Every function returns structured data and a rendered text block printing
the same rows/series the paper reports. Scales are configurable; the
defaults keep a full run laptop-feasible (see DESIGN.md §2 on the scale
substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import (
    SUMMARY_HEADERS,
    render_boxplot_row,
    render_table,
    summary_row,
)
from repro.bench.runner import BenchmarkContext, QueryRun, run_workload
from repro.bench.stats import (
    feasibility_counts,
    geometric_mean_speedup,
    paired_speedup,
    split_runs,
    summarize_runs,
)
from repro.core.rewriter import RewriteOptions, rewrite_query
from repro.datasets.ldbc import generate_ldbc, ldbc_schema, ldbc_store
from repro.datasets.yago import generate_yago, yago_schema, yago_store
from repro.gdb.cypher import cypher_expressible, to_cypher
from repro.planner.cost import cost_term
from repro.query.parser import parse_query
from repro.ra.optimizer import optimize_term
from repro.ra.translate import TranslationContext, ucqt_to_ra
from repro.sql.generate import ucqt_to_sql
from repro.workloads.ldbc_queries import LDBC_QUERIES
from repro.workloads.yago_queries import YAGO_QUERIES

#: Paper scale factors (Table 3); a quick profile uses the first four.
FULL_SCALE_FACTORS = (0.1, 0.3, 1, 3, 10, 30)
QUICK_SCALE_FACTORS = (0.1, 0.3, 1, 3)


@dataclass
class ExperimentResult:
    """Structured data plus the rendered text of one experiment."""

    name: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


# -- dataset loading ----------------------------------------------------------
def load_ldbc_context(
    scale_factor: float,
    timeout_seconds: float = 2.5,
    repetitions: int = 2,
    seed: int = 42,
) -> BenchmarkContext:
    schema = ldbc_schema()
    graph = generate_ldbc(scale_factor, seed=seed)
    store = ldbc_store(graph, schema)
    return BenchmarkContext(
        schema, graph, store, scale_factor, timeout_seconds, repetitions
    )


def load_yago_context(
    scale: float = 1.0,
    timeout_seconds: float = 5.0,
    repetitions: int = 2,
    seed: int = 7,
) -> BenchmarkContext:
    schema = yago_schema()
    graph = generate_yago(scale, seed=seed)
    store = yago_store(graph, schema)
    return BenchmarkContext(
        schema, graph, store, scale, timeout_seconds, repetitions
    )


# -- Table 3: dataset characteristics ------------------------------------------
def table3_datasets(
    scale_factors: tuple = QUICK_SCALE_FACTORS, yago_scale: float = 1.0
) -> ExperimentResult:
    rows = []
    yago = generate_yago(yago_scale)
    schema_stats = yago_schema().stats()
    stats = yago.stats()
    rows.append(
        (
            "YAGO",
            "N/A",
            schema_stats["node_labels"],
            schema_stats["edge_labels"],
            stats["nodes"],
            stats["edges"],
        )
    )
    ldbc_schema_stats = ldbc_schema().stats()
    for scale_factor in scale_factors:
        graph = generate_ldbc(scale_factor)
        stats = graph.stats()
        rows.append(
            (
                "LDBC-SNB",
                scale_factor,
                ldbc_schema_stats["node_labels"],
                ldbc_schema_stats["edge_labels"],
                stats["nodes"],
                stats["edges"],
            )
        )
    text = render_table(
        "Table 3 — dataset characteristics",
        ("Name", "SF", "#NR", "#ER", "#Nodes", "#Edges"),
        rows,
        note="synthetic generators; paper sizes scaled to pure-Python feasibility",
    )
    return ExperimentResult("table3", text, {"rows": rows})


# -- Table 5: LDBC feasibility ---------------------------------------------------
def table5_feasibility(
    scale_factors: tuple = QUICK_SCALE_FACTORS,
    engine: str = "ra",
    timeout_seconds: float = 2.5,
    repetitions: int = 1,
) -> ExperimentResult:
    rows = []
    all_runs: list[QueryRun] = []
    for scale_factor in scale_factors:
        context = load_ldbc_context(
            scale_factor, timeout_seconds, repetitions
        )
        runs = run_workload(context, list(LDBC_QUERIES), engine=engine)
        all_runs.extend(runs)
        row = [scale_factor]
        for recursive in (True, False):
            for variant in ("baseline", "schema"):
                subset = split_runs(runs, variant=variant, recursive=recursive)
                feasible, total, pct = feasibility_counts(subset)
                row.extend([feasible, round(pct, 1)])
        rows.append(tuple(row))
    text = render_table(
        f"Table 5 — LDBC query feasibility ({engine}, timeout {timeout_seconds}s)",
        (
            "SF",
            "RQ-base#", "RQ-base%", "RQ-schema#", "RQ-schema%",
            "NQ-base#", "NQ-base%", "NQ-schema#", "NQ-schema%",
        ),
        rows,
    )
    return ExperimentResult("table5", text, {"rows": rows, "runs": all_runs})


# -- Fig. 12: YAGO per-query runtimes ---------------------------------------------
def fig12_yago(
    engine: str = "ra",
    yago_scale: float = 1.0,
    timeout_seconds: float = 30.0,
    repetitions: int = 2,
) -> ExperimentResult:
    context = load_yago_context(yago_scale, timeout_seconds, repetitions)
    runs = run_workload(context, list(YAGO_QUERIES), engine=engine)
    baseline = split_runs(runs, variant="baseline")
    schema = split_runs(runs, variant="schema")
    rows = []
    for base_run, schema_run in zip(baseline, schema):
        ratio = base_run.seconds / max(schema_run.seconds, 1e-9)
        rows.append(
            (
                base_run.qid,
                round(base_run.seconds * 1000, 1),
                round(schema_run.seconds * 1000, 1),
                round(ratio, 2),
                "reverted" if base_run.reverted else "",
            )
        )
    mean_speedup = paired_speedup(baseline, schema)
    geo = geometric_mean_speedup(baseline, schema)
    text = render_table(
        f"Fig. 12 — YAGO query runtimes ({engine})",
        ("query", "baseline ms", "schema ms", "speedup", ""),
        rows,
        note=(
            f"avg speedup {mean_speedup:.2f}x (paper: 6.1x), "
            f"geometric mean {geo:.2f}x"
        ),
    )
    return ExperimentResult(
        "fig12",
        text,
        {"rows": rows, "mean_speedup": mean_speedup, "geo_speedup": geo,
         "runs": runs},
    )


# -- Table 6: fixed-length path statistics ----------------------------------------
def table6_paths() -> ExperimentResult:
    schema = yago_schema()
    rows = []
    for workload_query in YAGO_QUERIES:
        result = rewrite_query(workload_query.query, schema)
        lengths = list(result.stats.surviving_fixed_lengths)
        if not lengths:
            continue
        rows.append(
            (
                workload_query.qid,
                len(lengths),
                min(lengths),
                round(sum(lengths) / len(lengths), 2),
                max(lengths),
            )
        )
    eliminated = sum(
        1
        for workload_query in YAGO_QUERIES
        if rewrite_query(workload_query.query, schema).stats.closures_eliminated
    )
    text = render_table(
        "Table 6 — fixed-length paths replacing transitive closures (YAGO)",
        ("query", "#Paths", "Min", "Avg", "Max"),
        rows,
        note=(
            f"closure fully eliminated in {eliminated}/18 queries "
            "(paper: 16/18)"
        ),
    )
    return ExperimentResult(
        "table6", text, {"rows": rows, "eliminated": eliminated}
    )


# -- Fig. 13: LDBC box plots -----------------------------------------------------
def fig13_ldbc(
    scale_factors: tuple = QUICK_SCALE_FACTORS,
    engine: str = "ra",
    timeout_seconds: float = 2.5,
    repetitions: int = 1,
    runs_by_sf: dict[float, list[QueryRun]] | None = None,
) -> ExperimentResult:
    lines = [f"== Fig. 13 — LDBC runtime box plots ({engine}) =="]
    collected: dict[float, list[QueryRun]] = {}
    for scale_factor in scale_factors:
        if runs_by_sf and scale_factor in runs_by_sf:
            runs = runs_by_sf[scale_factor]
        else:
            context = load_ldbc_context(
                scale_factor, timeout_seconds, repetitions
            )
            runs = run_workload(context, list(LDBC_QUERIES), engine=engine)
        collected[scale_factor] = runs
        for variant, short in (("baseline", "B"), ("schema", "S")):
            subset = split_runs(runs, variant=variant, feasible_only=True)
            if not subset:
                continue
            stats = summarize_runs(subset)
            lines.append(render_boxplot_row(f"SF{scale_factor}-{short}", stats))
    text = "\n".join(lines)
    return ExperimentResult("fig13", text, {"runs_by_sf": collected})


# -- Tables 7 and 8: pooled runtime summaries --------------------------------------
def table7_table8(runs: list[QueryRun]) -> ExperimentResult:
    rows7 = []
    for recursive, label in ((True, "RQ"), (False, "NQ")):
        for variant in ("baseline", "schema"):
            subset = split_runs(runs, variant=variant, recursive=recursive)
            rows7.append(summary_row(f"{label}-{variant}", summarize_runs(subset)))
    recursive_base = split_runs(runs, variant="baseline", recursive=True)
    recursive_schema = split_runs(runs, variant="schema", recursive=True)
    speedup_rq = paired_speedup(recursive_base, recursive_schema)

    rows8 = []
    for variant in ("baseline", "schema"):
        subset = split_runs(runs, variant=variant)
        rows8.append(summary_row(variant, summarize_runs(subset)))
    overall = paired_speedup(
        split_runs(runs, variant="baseline"), split_runs(runs, variant="schema")
    )
    text7 = render_table(
        "Table 7 — runtime summary by query type (timeouts at cap)",
        SUMMARY_HEADERS,
        rows7,
        note=f"recursive mean speedup {speedup_rq:.2f}x (paper: 3.26x)",
    )
    text8 = render_table(
        "Table 8 — overall runtime summary",
        SUMMARY_HEADERS,
        rows8,
        note=f"overall mean speedup {overall:.2f}x (paper: 2.58x)",
    )
    return ExperimentResult(
        "table7_8",
        text7 + "\n\n" + text8,
        {"rows7": rows7, "rows8": rows8, "speedup_rq": speedup_rq,
         "speedup_all": overall},
    )


# -- Fig. 14: graph engine vs relational engine -------------------------------------
def fig14_backends(
    scale_factors: tuple = (0.1, 0.3, 1, 3),
    timeout_seconds: float = 2.5,
    repetitions: int = 3,
) -> ExperimentResult:
    expressible = [
        workload_query
        for workload_query in LDBC_QUERIES
        if cypher_expressible(workload_query.query)
    ]
    lines = [
        "== Fig. 14 — Neo4j-sim (gdb) vs PostgreSQL-sim (ra), "
        f"{len(expressible)} Cypher-expressible queries =="
    ]
    data: dict[str, dict[float, list[QueryRun]]] = {"gdb": {}, "ra": {}}
    for scale_factor in scale_factors:
        context = load_ldbc_context(scale_factor, timeout_seconds, repetitions)
        for engine, short in (("gdb", "N"), ("ra", "P")):
            runs = run_workload(context, expressible, engine=engine)
            data[engine][scale_factor] = runs
            for variant, vshort in (("baseline", "B"), ("schema", "S")):
                subset = split_runs(runs, variant=variant, feasible_only=True)
                if not subset:
                    continue
                stats = summarize_runs(subset)
                lines.append(
                    render_boxplot_row(f"SF{scale_factor}-{short}{vshort}", stats)
                )
    text = "\n".join(lines)
    return ExperimentResult(
        "fig14", text, {"data": data, "queries": [q.qid for q in expressible]}
    )


# -- Figs. 15-17: plan-level artefacts ------------------------------------------------
#: The paper's illustrative Q1/Q2 pair (§5.5): Q2 adds the Organisation
#: junction annotation by hand, exactly as printed in the paper.
PLAN_BASELINE_TEXT = "SRC, TRG <- (SRC, knows/workAt/isLocatedIn, TRG)"
PLAN_ENRICHED_TEXT = (
    "SRC, TRG <- (SRC, knows/workAt/{Organisation}isLocatedIn, TRG)"
)


def fig15_16_17(
    scale_factor: float = 1.0, seed: int = 42
) -> ExperimentResult:
    schema = ldbc_schema()
    graph = generate_ldbc(scale_factor, seed=seed)
    store = ldbc_store(graph, schema)
    baseline = parse_query(PLAN_BASELINE_TEXT)
    enriched = parse_query(PLAN_ENRICHED_TEXT)

    sections = []
    sql_parts = {}
    cypher_parts = {}
    plan_parts = {}
    for label, query in (("BASELINE (Q1)", baseline), ("SCHEMA-ENRICHED (Q2)", enriched)):
        sql = ucqt_to_sql(query, store)
        sql_parts[label] = sql
        sections.append(f"-- Fig. 15 {label} SQL --\n{sql}")
    for label, query in (("BASELINE (Q1)", baseline), ("SCHEMA-ENRICHED (Q2)", enriched)):
        # Cypher needs the annotation as an explicit junction variable.
        if query is enriched:
            rewritten = parse_query(
                "SRC, TRG <- (SRC, knows/workAt, m) && (m, isLocatedIn, TRG)"
                " && Organisation(m)"
            )
            cypher = to_cypher(rewritten)
        else:
            cypher = to_cypher(query)
        cypher_parts[label] = cypher
        sections.append(f"-- Fig. 16 {label} Cypher --\n{cypher}")
    for label, query in (("SCHEMA-ENRICHED (Q2)", enriched), ("BASELINE (Q1)", baseline)):
        term = optimize_term(ucqt_to_ra(query, TranslationContext()), store)
        plan = cost_term(term, store).render(store)
        plan_parts[label] = plan
        sections.append(f"-- Fig. 17 {label} query execution plan --\n{plan}")
    text = "\n\n".join(sections)
    return ExperimentResult(
        "fig15_16_17",
        text,
        {"sql": sql_parts, "cypher": cypher_parts, "plans": plan_parts},
    )


# -- §5.2 reversion census --------------------------------------------------------------
def reversion_census() -> ExperimentResult:
    ldbc = ldbc_schema()
    yago = yago_schema()
    reverted_ldbc = [
        q.qid for q in LDBC_QUERIES if rewrite_query(q.query, ldbc).reverted
    ]
    reverted_yago = [
        q.qid for q in YAGO_QUERIES if rewrite_query(q.query, yago).reverted
    ]
    paper_set = {
        "IC2", "IC6", "IC7", "IC9", "IC13", "Y7", "BI11", "BI9", "BI20", "LSQB6",
    }
    agreement = sorted(paper_set & set(reverted_ldbc))
    text = "\n".join(
        [
            "== §5.2 — queries reverting to their initial form ==",
            f"LDBC reverted ({len(reverted_ldbc)}/30): {', '.join(reverted_ldbc)}",
            f"paper's 10 reverted queries also reverted here: "
            f"{len(agreement)}/10 ({', '.join(agreement)})",
            f"YAGO reverted ({len(reverted_yago)}/18): {', '.join(reverted_yago)} "
            "(paper: q7 only)",
        ]
    )
    return ExperimentResult(
        "reversion",
        text,
        {"ldbc": reverted_ldbc, "yago": reverted_yago, "agreement": agreement},
    )


# -- ablation: value of each pipeline stage ------------------------------------------------
def ablation_pipeline(
    yago_scale: float = 0.5,
    timeout_seconds: float = 10.0,
    engine: str = "ra",
) -> ExperimentResult:
    """Switch off pipeline stages one at a time (DESIGN.md ablation)."""
    variants = {
        "full": RewriteOptions(),
        "no-simplify": RewriteOptions(apply_simplification=False),
        "no-merge": RewriteOptions(apply_merge=False),
        "no-redundancy": RewriteOptions(apply_redundancy_removal=False),
    }
    rows = []
    data = {}
    for name, options in variants.items():
        context = load_yago_context(yago_scale, timeout_seconds, repetitions=1)
        context.rewrite_options = options
        runs = run_workload(context, list(YAGO_QUERIES), engine=engine)
        baseline = split_runs(runs, variant="baseline")
        schema = split_runs(runs, variant="schema")
        speedup = paired_speedup(baseline, schema)
        total_disjuncts = sum(
            len(context.rewrite(q).query.disjuncts) for q in YAGO_QUERIES
        )
        rows.append(
            (
                name,
                round(speedup, 2),
                round(geometric_mean_speedup(baseline, schema), 2),
                total_disjuncts,
            )
        )
        data[name] = {"speedup": speedup, "runs": runs}
    text = render_table(
        "Ablation — rewriter pipeline stages (YAGO)",
        ("pipeline", "mean speedup", "geo speedup", "total disjuncts"),
        rows,
    )
    return ExperimentResult("ablation", text, data)
