"""Per-layer metrics of a traced run; README.md says which end-to-end
metric each one should move, on which workload."""

from __future__ import annotations

import statistics

LAYERS = ("words", "automorphisms", "whitehead", "quasimorphisms", "norms", "graphprod")
# Tables that depend only on the rank.
TABLES = {"signed_permutations", "elementary", "compose_all", "inverse", "composite_pool"}
# What norms calls in automorphisms to build its autocommutator pools.
POOLS = {"composite_pool", "ad", "word_transvection", "autocommutator"}
DEFECTS = {"defect_enumerate", "brooks_defect_exact"}
NORMAL_FORMS = {"normal_form", "gp_multiply"}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, tallies, import_ms, traced_s, plain_s) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(layer, name=None, **where):
        return tracer.calls(layer, name, **where)[0]

    def ms(layer, name=None, **where):
        return 1000 * tracer.calls(layer, name, **where)[1]

    for layer in LAYERS:
        put(f"{layer}.calls", calls(layer), "count")
        put(f"{layer}.busy_ms", 1000 * tracer.busy[layer], "ms")
        put(f"{layer}.self_ms", 1000 * tracer.self_time[layer], "ms")

    put("words.cyclic_reduce.calls", calls("words", "cyclic_reduce"), "count")
    put("words.cyclic_reduce.ms", ms("words", "cyclic_reduce"), "ms")
    put("words.multiply.calls", calls("words", "multiply"), "count")

    put("automorphisms.apply.calls", calls("automorphisms", "apply"), "count")
    put("automorphisms.apply.ms", ms("automorphisms", "apply"), "ms")
    put("automorphisms.table_ms", ms("automorphisms", TABLES), "ms")
    put("automorphisms.is_finite_group.ms", ms("automorphisms", "is_finite_group"), "ms")
    put("automorphisms.autocommutator.calls", calls("automorphisms", "autocommutator"), "count")

    steps = tallies["whitehead.descent_steps"]
    tried = calls("automorphisms", "apply", caller="whitehead", entry="whitehead.minimize")
    put("whitehead.descent_steps", steps, "count")
    put("whitehead.useful_ratio", ratio(steps, tried), "ratio")

    evals = calls("quasimorphisms", "evaluate", caller="bench")
    eval_ms = ms("quasimorphisms", "evaluate", caller="bench")
    defect_ms = ms("quasimorphisms", DEFECTS, caller="bench")
    put("quasimorphisms.eval_calls", evals, "count")
    put("quasimorphisms.eval_ms", eval_ms, "ms")
    put(
        "quasimorphisms.apply_per_eval",
        ratio(calls("automorphisms", "apply", entry="quasimorphisms.evaluate"), evals),
        "ratio",
    )
    put("quasimorphisms.build_ms", ms("quasimorphisms", caller="bench") - eval_ms - defect_ms, "ms")
    put("quasimorphisms.defect_ms", defect_ms, "ms")

    put("norms.searches", tallies["norms.searches"], "count")
    put("norms.found_ratio", ratio(tallies["norms.found"], tallies["norms.searches"]), "ratio")
    put("norms.pool_ms", ms("automorphisms", POOLS, caller="norms"), "ms")
    put("norms.multiply_calls", calls("words", "multiply", caller="norms"), "count")

    put("graphprod.nf_calls", calls("graphprod", NORMAL_FORMS, caller="bench"), "count")
    put("graphprod.nf_ms", ms("graphprod", NORMAL_FORMS, caller="bench"), "ms")
    syllables = tallies["graphprod.syllables_in"]
    put("graphprod.syllables_in", syllables, "count")
    put("graphprod.cancel_ratio", ratio(tallies["graphprod.syllables_out"], syllables), "ratio")
    put("graphprod.pipeline_eval_ms", ms("graphprod", "evaluate", caller="bench"), "ms")

    put("cli.import_ms", statistics.median(import_ms), "ms")
    put("trace.overhead_frac", traced_s / plain_s - 1, "ratio")
    return out
