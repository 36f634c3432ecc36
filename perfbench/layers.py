"""The program's layers as the traced run sees them.

`instrument` wraps the public functions of each `blockembed` module with
spans (or, for hot leaves, call counters), and `layer_metrics` turns the
recorded spans and counters into the per-layer metrics that
BENCHMARK.json names.  `params` has no metric: no workload spends
measurable time there.
"""

from __future__ import annotations

from blockembed import cli, embed, fields, hierarchy, lattice, oracle, stats
from blockembed.errors import CurveSelectionError, PreconditionError

from spans import Tracer

SPANNED = {
    fields: ("sample_field", "classify_grid"),
    hierarchy: ("build_hierarchy", "build_level0", "build_level1", "is_conjoined",
                "form_lattice_blocks", "select_boundary_curve", "realize_domain",
                "domain_boundary_cells", "region_boundary_loops", "form_block",
                "classify_good_block", "form_components"),
    embed: ("embeds_level", "translation_family", "verify_embedding"),
    oracle: ("count_embeddings", "find_embedding"),
    stats: ("estimate_S", "clopper_pearson", "exact_S0", "tail_report",
            "size_report", "good_prob_report"),
    cli: ("main",),
}
# Called up to ~10^5 times per item: counted, their time left in the caller.
COUNTED = {lattice: ("neighbors", "buffer_zone"), fields: ("level0_embeds",)}
REPORT_RENDER = ("stats.tail_report", "stats.size_report", "stats.good_prob_report",
                 "stats.Report.to_csv", "stats.Report.to_records")
MODULES = ("fields", "hierarchy", "embed", "oracle", "stats", "cli")
DRIVER_SPAN = "bench.item"


def _module(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def instrument(tracer: Tracer, searches: list) -> None:
    """Patch the program; the oracle searches it creates are appended to
    ``searches``.

    `oracle.nodes` is read from the private `oracle._Search.nodes` counter;
    this read is to be replaced once the oracle reports nodes publicly.
    """
    count = tracer.counters

    def on_sample(args, kwargs, field, exc):
        if field is not None:
            count["fields.sample_field.sites"] += field.width * field.height

    def on_curve(args, kwargs, curve, exc):
        if isinstance(exc, CurveSelectionError):
            count["hierarchy.curve.none"] += 1
        elif curve is not None:
            count["hierarchy.curve.straight" if curve.is_straight
                  else "hierarchy.curve.perturbed"] += 1

    def on_embeds(args, kwargs, witness, exc):
        if witness is not None:
            count["embed.embeds_level.witnesses"] += 1
        if isinstance(exc, PreconditionError):
            count["embed.embeds_level.errors"] += 1

    def on_family(args, kwargs, corr, exc):
        if isinstance(exc, embed.InvalidOffset):
            count["embed.translation_family.invalid_offsets"] += 1

    def on_verify(args, kwargs, ok, exc):
        count["embed.verify_embedding.sites"] += len(args[0].mapping)

    def on_estimate(args, kwargs, est, exc):
        if est is not None:
            count["stats.trials"] += est.trials

    hooks = {
        "fields.sample_field": on_sample,
        "hierarchy.select_boundary_curve": on_curve,
        "embed.embeds_level": on_embeds,
        "embed.translation_family": on_family,
        "embed.verify_embedding": on_verify,
        "stats.estimate_S": on_estimate,
    }
    for mod, names in SPANNED.items():
        for name in names:
            span = f"{_module(mod)}.{name}"
            tracer.patch(mod, name, tracer.timed(span, getattr(mod, name), hooks.get(span)))
    for mod, names in COUNTED.items():
        for name in names:
            tracer.patch(mod, name,
                         tracer.counted(f"{_module(mod)}.{name}.calls", getattr(mod, name)))
    for name in ("to_csv", "to_records"):
        tracer.patch(stats.Report, name,
                     tracer.timed(f"stats.Report.{name}", getattr(stats.Report, name)))

    new_search = oracle._Search

    def search(*args, **kwargs):
        s = new_search(*args, **kwargs)
        searches.append(s)
        return s

    tracer.patch(oracle, "_Search", search)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, searches: list, extra: dict, names) -> dict:
    """The per-layer metrics ``names`` of a traced run, as {name: value}.

    ``extra`` supplies what the spans cannot: bench.items, bench.units,
    bench.untraced_throughput and the stats.workers* timings.  Metrics of
    a layer the workload does not exercise read 0.
    """
    agg = tracer.aggregate()
    count = tracer.counters

    def get(span, key):
        return agg.get(span, {}).get(key, 0)

    out = {}
    for name in names:
        stem, _, key = name.rpartition(".")
        if key in ("calls", "ms", "self_ms") and stem in agg:
            out[name] = agg[stem][key]
    nodes = sum(s.nodes for s in searches)
    oracle_ms = get("oracle.count_embeddings", "ms") + get("oracle.find_embedding", "ms")
    found = count["hierarchy.curve.straight"] + count["hierarchy.curve.perturbed"]
    realizations = tracer.children_named("hierarchy.select_boundary_curve",
                                         "hierarchy.realize_domain")
    wall_ms = get(DRIVER_SPAN, "ms")
    driver_ms = get(DRIVER_SPAN, "self_ms")
    traced = _ratio(extra["bench.units"], wall_ms / 1000.0)
    cli_calls = get("cli.main", "calls")
    out.update(count)
    out.update({
        "hierarchy.curve.realizations": realizations,
        "hierarchy.curve.found_per_realization": _ratio(found, realizations),
        "embed.embeds_level.witness_frac": _ratio(
            count["embed.embeds_level.witnesses"], get("embed.embeds_level", "calls")),
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": _ratio(nodes, oracle_ms / 1000.0),
        "stats.report_render.ms": sum(get(s, "ms") for s in REPORT_RENDER),
        "stats.workers2_speedup": _ratio(extra.get("stats.workers1_ms", 0.0),
                                         extra.get("stats.workers2_ms", 0.0)),
        "cli.calls": cli_calls,
        "cli.self_ms": _ratio(get("cli.main", "self_ms"), cli_calls),
        "bench.driver.self_ms": driver_ms,
        "bench.wall_ms": wall_ms,
        "bench.unattributed_frac": _ratio(driver_ms, wall_ms),
        "bench.traced_throughput": traced,
        "bench.trace_overhead_frac": 1.0 - _ratio(traced, extra["bench.untraced_throughput"]),
    })
    for m in MODULES:
        out[f"{m}.module_self_ms"] = sum(
            v["self_ms"] for span, v in agg.items() if span.split(".")[0] == m)
    out.update(extra)
    return {name: float(out.get(name, 0)) for name in names}
