"""The benchmark's four workloads: job kinds, input generation and checks.

A job is one library call, or a short fixed chain of calls, on inputs
generated from the workload seed.  Each workload cycles through a fixed
schedule of job kinds, so every run sees the same mix; each kind has a
fixed rank, so a warm-up of one job per kind covers every rank.

For every kind the module gives:

- ``gen(rng, lib, ctx, slot)``: the inputs of the kind's ``slot``-th job,
  as ``(rank, size, args)``; ``size`` is letters, or syllables for graph
  products.  Sizes follow ``pick``, a fixed low-discrepancy sequence, and
  only the content is random, so every seed sees the same spread of sizes;
- ``run(api, ctx, args)``: the timed calls, made only through ``api``;
- ``canon(args, out)``: the mathematical content of the output (exact
  values as ``p/q``, minimal words, witnesses), never its labels;
- ``check(lib, ctx, args, out)``: replays witnesses and compares with the
  benchmark's own oracles in ``oracle.py``; raises ``CheckFailed``;
- ``tally(args, out)``: deterministic counts for the traced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import oracle as O

# Seeds 0-9 are for developing and tuning a change; the held-out seed is
# kept back to confirm a claim afterwards.  The reference seeds have
# output digests under reference/.
HELD_OUT_SEED = 1009
REFERENCE_SEEDS = (0, 1, 2, HELD_OUT_SEED)


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Job(NamedTuple):
    index: int
    kind: str
    rank: int
    size: int
    args: tuple


@dataclass(frozen=True)
class Kind:
    name: str
    gen: Callable
    run: Callable
    canon: Callable
    check: Callable
    tally: Optional[Callable] = None


@dataclass(frozen=True)
class Workload:
    name: str
    size_unit: str
    kinds: dict
    cycle: tuple
    trace_jobs: int
    prepare: Callable = lambda lib, seed: {}

    def jobs(self, seed, lib, ctx, warmup=False):
        """The job stream of a seed: a fixed cycle of kinds, seeded inputs.

        The warm-up stream draws from its own generator, so warming up
        does not shift the measured jobs' inputs.
        """
        rng = random.Random(f"{self.name}:{seed}:{'warmup' if warmup else 'jobs'}")
        order = sorted(self.kinds) if warmup else self.cycle
        slots = dict.fromkeys(self.kinds, 0)
        index = 0
        while not warmup or index < len(order):
            kind = self.kinds[order[index % len(order)]]
            rank, size, args = kind.gen(rng, lib, ctx, slots[kind.name])
            yield Job(index, kind.name, rank, size, args)
            slots[kind.name] += 1
            index += 1

    def warm_up(self, lib, seed):
        """Build the prebuilt inputs and run one job of each kind, untimed."""
        ctx = self.prepare(lib, seed)
        for job in self.jobs(seed, lib, ctx, warmup=True):
            self.kinds[job.kind].run(lib, ctx, job.args)
        return ctx


def pick(slot: int, lo: int, hi: int, dim: int = 0) -> int:
    """An integer in [lo, hi] for the slot-th job of a kind.

    Coordinate ``dim`` of the R2 low-discrepancy sequence: the first n
    slots cover the range evenly for every n, whatever the seed.
    """
    alpha = (0.7548776662466927, 0.5698402909980532)[dim]
    return lo + int((0.5 + slot * alpha) % 1.0 * (hi - lo + 1))


def fraction(v) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def images(phi) -> tuple:
    return tuple(w.letters for w in phi.images)


def library():
    """The package's public names, plus the two benchmark helpers that
    call a method of a library object."""
    import autqm

    lib = {name: value for name, value in vars(autqm).items() if not name.startswith("_")}

    def evaluate(f, g):
        return f(g)

    def ball(graph, radius):
        return list(autqm.GraphProductDomain(graph).elements(radius))

    lib.update(evaluate=evaluate, ball=ball)
    return SimpleNamespace(**lib)


# The layer of a helper call: where the evaluated closure or the domain lives.
HELPER_LAYERS = {
    "evaluate": lambda f, g: f.evaluate.__module__.rsplit(".", 1)[-1],
    "ball": lambda graph, radius: type(graph).__module__.rsplit(".", 1)[-1],
}


# ---------------------------------------------------------------- orbit


def _check_descent(start, result, trace) -> None:
    current = O.cyclic_core(start)
    for phi, image in trace:
        step = O.cyclic_core(O.substitute(images(phi), current))
        require(step == image.letters, "minimize trace step does not replay")
        require(len(step) < len(current), "minimize trace step does not shorten")
        current = step
    require(current == result.letters, "minimize trace does not end at the result")
    require(len(result) >= 1, "a nontrivial word minimised to the identity")


def _canon_descent(result, trace):
    return {
        "min": result.letters,
        "trace": [[images(phi), image.letters] for phi, image in trace],
    }


def _gen_word(rank, lo, hi):
    def gen(rng, lib, ctx, slot):
        length = pick(slot, lo, hi)
        return rank, length, (lib.Word(rank, O.random_word(rng, rank, length)),)

    return gen


def _minimize_kind(name, rank, lo, hi):
    return Kind(
        name,
        gen=_gen_word(rank, lo, hi),
        run=lambda api, ctx, args: api.minimize(args[0]),
        canon=lambda args, out: _canon_descent(*out),
        check=lambda lib, ctx, args, out: _check_descent(args[0].letters, *out),
        tally=lambda args, out: {"whitehead.descent_steps": len(out[1])},
    )


def _gen_primitive(rng, lib, ctx, slot):
    # Half are images of a generator (primitive by construction), half
    # random words, for which only the reference knows the answer.
    if slot % 2 == 0:
        target = pick(slot // 2, 8, 40)
        while True:
            phi = O.random_automorphism(rng, 3, rng.randint(4, 10))
            w = O.substitute(phi, (rng.choice((1, 2, 3, -1, -2, -3)),))
            if abs(len(w) - target) <= 3:
                return 3, len(w), (lib.Word(3, w), True)
    length = pick(slot // 2, 8, 30)
    return 3, length, (lib.Word(3, O.random_word(rng, 3, length)), None)


def _gen_free_factor(rng, lib, ctx, slot):
    # Half are conjugates of powers of primitives, which lie in a proper
    # free factor by construction; half random words.
    if slot % 2 == 0:
        while True:
            p = O.substitute(O.random_automorphism(rng, 2, rng.randint(1, 4)), (1,))
            t = O.random_word(rng, 2, rng.randint(0, 2))
            w = O.product(t, O.power(p, rng.choice((1, 2))), O.inverse(t))
            if 6 <= len(w) <= 14:
                return 2, len(w), (lib.Word(2, w), True)
    length = pick(slot // 2, 6, 12)
    return 2, length, (lib.Word(2, O.random_word(rng, 2, length)), None)


def _check_known(lib, ctx, args, out):
    require(isinstance(out, bool), "predicate did not return a bool")
    require(args[1] is None or out == args[1], "predicate contradicts the construction")


def _run_graph(api, ctx, args):
    result, trace = api.minimize(args[0])
    return result, trace, api.whitehead_graph(result)


def _check_graph(lib, ctx, args, out):
    result, trace, graph = out
    _check_descent(args[0].letters, result, trace)
    edges, connected, has_cut = O.whitehead_graph(result.letters, result.rank)
    require(graph.edges == edges, "Whitehead graph edges differ from the oracle")
    require(graph.connected == connected, "Whitehead graph connectivity is wrong")
    require(graph.has_cut_vertex == has_cut, "Whitehead graph cut-vertex flag is wrong")


ORBIT = Workload(
    name="orbit",
    size_unit="letters",
    kinds={
        k.name: k
        for k in (
            _minimize_kind("minimize-r2", 2, 20, 120),
            _minimize_kind("minimize-r3", 3, 8, 40),
            _minimize_kind("minimize-r4", 4, 6, 15),
            Kind(
                "is_primitive-r3",
                gen=_gen_primitive,
                run=lambda api, ctx, args: api.is_primitive(args[0]),
                canon=lambda args, out: out,
                check=_check_known,
            ),
            Kind(
                "in_proper_free_factor-r2",
                gen=_gen_free_factor,
                run=lambda api, ctx, args: api.in_proper_free_factor(args[0]),
                canon=lambda args, out: out,
                check=_check_known,
            ),
            Kind(
                "whitehead_graph-r3",
                gen=_gen_word(3, 8, 24),
                run=_run_graph,
                canon=lambda args, out: dict(
                    _canon_descent(out[0], out[1]),
                    edges=out[2].edges,
                    connected=out[2].connected,
                    cut=out[2].has_cut_vertex,
                ),
                check=_check_graph,
                tally=lambda args, out: {"whitehead.descent_steps": len(out[1])},
            ),
        )
    },
    cycle=(
        "minimize-r2", "minimize-r3", "in_proper_free_factor-r2", "minimize-r4",
        "minimize-r2", "is_primitive-r3", "whitehead_graph-r3", "minimize-r2",
        "minimize-r3", "in_proper_free_factor-r2", "minimize-r4", "minimize-r2",
        "is_primitive-r3", "whitehead_graph-r3", "minimize-r3", "in_proper_free_factor-r2",
    ),
    trace_jobs=48,
)


# ------------------------------------------------------------- counting


def _prepare_counting(lib, seed):
    rng = random.Random(f"counting:{seed}:prepare")

    def pattern(rank, lo, hi):
        return O.random_word(rng, rank, rng.randint(lo, hi))

    w2 = lambda letters: lib.Word(2, letters)
    w3 = lambda letters: lib.Word(3, letters)
    ctx = {
        "count": pattern(2, 2, 3),
        "homog": pattern(2, 2, 3),
        "average2": pattern(2, 3, 3),
        "average3": pattern(3, 2, 3),
        "average3h": pattern(3, 3, 3),
        "images": O.random_automorphism(rng, 2, 3),
        "coeffs": (
            Fraction(rng.randint(1, 5), rng.randint(1, 3)),
            Fraction(-rng.randint(1, 5), rng.randint(1, 3)),
        ),
    }
    count = lib.brooks(w2(ctx["count"]))
    homog = lib.brooks_homogeneous(w2(ctx["homog"]))
    sp2, sp3 = lib.signed_permutations(2), lib.signed_permutations(3)
    ctx["rank2"] = (
        count,
        homog,
        lib.linear_combination(list(zip(ctx["coeffs"], (count, homog)))),
        lib.pullback(homog, [w2(u) for u in ctx["images"]]),
        lib.finite_average(lib.brooks_homogeneous(w2(ctx["average2"])), sp2),
    )
    ctx["rank3"] = (
        lib.finite_average(lib.brooks(w3(ctx["average3"])), sp3),
        lib.finite_average(lib.brooks_homogeneous(w3(ctx["average3h"])), sp3),
    )
    return ctx


def _average(value, letters, pattern, rank):
    group = O.signed_permutation_images(rank)
    return Fraction(sum(value(O.substitute(a, letters), pattern) for a in group), len(group))


def _check_eval2(lib, ctx, args, out):
    w = args[0].letters
    count = O.brooks_value(w, ctx["count"])
    homog = O.homogeneous_value(w, ctx["homog"])
    c1, c2 = ctx["coeffs"]
    expected = (
        count,
        homog,
        c1 * count + c2 * homog,
        O.homogeneous_value(O.substitute(ctx["images"], w), ctx["homog"]),
        _average(O.homogeneous_value, w, ctx["average2"], 2),
    )
    require(all(isinstance(v, Fraction) for v in out), "a value is not exact")
    require(tuple(out) == expected, "an evaluation differs from the oracle")


def _check_eval3(lib, ctx, args, out):
    w = args[0].letters
    expected = (
        _average(O.brooks_value, w, ctx["average3"], 3),
        _average(O.homogeneous_value, w, ctx["average3h"], 3),
    )
    require(all(isinstance(v, Fraction) for v in out), "a value is not exact")
    require(tuple(out) == expected, "a finite average differs from the oracle")


def _gen_pattern(rank, lo, hi, extra=None):
    def gen(rng, lib, ctx, slot):
        length = pick(slot, lo, hi)
        p = lib.Word(rank, O.random_word(rng, rank, length))
        return rank, length, (p,) + (extra(rng, lib, slot) if extra else ())

    return gen


def _run_build(api, ctx, args):
    pattern, probe = args
    q = api.finite_average(api.brooks(pattern), api.signed_permutations(3))
    return q, api.evaluate(q, probe)


def _check_build(lib, ctx, args, out):
    q, value = out
    require(len(q.invariant_group) == 48, "the average is not over 48 signed permutations")
    require(
        value == _average(O.brooks_value, args[1].letters, args[0].letters, 3),
        "the built average differs from the oracle",
    )


def _check_defect(value_of):
    def check(lib, ctx, args, out):
        g, h = (u.letters for u in out.witness)
        f = lambda w: value_of(args, w)
        require(
            abs(f(g) + f(h) - f(O.product(g, h))) == out.value,
            "the defect witness pair does not attain the reported value",
        )

    return check


def _canon_defect(args, out):
    return {"value": fraction(out.value), "witness": [u.letters for u in out.witness]}


def _run_enumerate(api, ctx, args):
    pattern, homogeneous, max_len = args
    f = api.brooks_homogeneous(pattern) if homogeneous else api.brooks(pattern)
    return api.defect_enumerate(f, max_len)


def _enumerated_value(args, w):
    pattern, homogeneous = args[0].letters, args[1]
    return (O.homogeneous_value if homogeneous else O.brooks_value)(w, pattern)


COUNTING = Workload(
    name="counting",
    size_unit="letters",
    prepare=_prepare_counting,
    kinds={
        k.name: k
        for k in (
            Kind(
                "evaluate-r2",
                gen=_gen_word(2, 20, 200),
                run=lambda api, ctx, args: [api.evaluate(f, args[0]) for f in ctx["rank2"]],
                canon=lambda args, out: [fraction(v) for v in out],
                check=_check_eval2,
            ),
            Kind(
                "evaluate-r3",
                gen=_gen_word(3, 20, 100),
                run=lambda api, ctx, args: [api.evaluate(f, args[0]) for f in ctx["rank3"]],
                canon=lambda args, out: [fraction(v) for v in out],
                check=_check_eval3,
            ),
            Kind(
                "finite_average-build-r3",
                gen=_gen_pattern(
                    3, 2, 3, lambda rng, lib, slot: (lib.Word(3, O.random_word(rng, 3, 8)),)
                ),
                run=_run_build,
                canon=lambda args, out: {
                    "bound": fraction(out[0].defect_bound),
                    "homogeneous": out[0].homogeneous,
                    "order": len(out[0].invariant_group),
                    "value": fraction(out[1]),
                },
                check=_check_build,
            ),
            Kind(
                "brooks_defect_exact-r2",
                gen=_gen_pattern(2, 2, 4),
                run=lambda api, ctx, args: api.brooks_defect_exact(args[0]),
                canon=_canon_defect,
                check=_check_defect(lambda args, w: O.brooks_value(w, args[0].letters)),
            ),
            Kind(
                "defect_enumerate-r2",
                gen=_gen_pattern(
                    2, 2, 3, lambda rng, lib, slot: (slot % 2 == 0, pick(slot, 2, 3, dim=1))
                ),
                run=_run_enumerate,
                canon=_canon_defect,
                check=_check_defect(_enumerated_value),
            ),
        )
    },
    cycle=(
        "evaluate-r2", "evaluate-r3", "finite_average-build-r3", "evaluate-r2",
        "brooks_defect_exact-r2", "evaluate-r3", "evaluate-r2", "finite_average-build-r3",
        "evaluate-r2", "evaluate-r3", "defect_enumerate-r2", "evaluate-r2",
    ),
    trace_jobs=120,
)


# -------------------------------------------------------------- witness

_ELEMENTARY = {rank: O.elementary_images(rank) for rank in (2, 3)}


def _autocommutator(rng, rank):
    while True:
        phi = rng.choice(_ELEMENTARY[rank])
        h = O.random_word(rng, rank, rng.randint(1, 3))
        value = O.product(O.substitute(phi, h), O.inverse(h))
        if value:
            return value


def _commutator(rng, rank):
    while True:
        u = O.random_word(rng, rank, rng.randint(1, 3))
        v = O.random_word(rng, rank, rng.randint(1, 3))
        value = O.commutator(u, v)
        if value:
            return value


def _gen_sacl(rng, lib, ctx, slot):
    g = _autocommutator(rng, 2)
    return 2, len(g), (lib.Word(2, g),)


def _gen_product(rank, factor):
    # A product of one or two factors from the search's own pool, so the
    # search must find a witness with at most that many factors.
    def gen(rng, lib, ctx, slot):
        parts = 1 + slot % 2
        while True:
            g = O.product(*(factor(rng, rank) for _ in range(parts)))
            if g:
                return rank, len(g), (lib.Word(rank, g), parts)

    return gen


def _check_factors(result, target, bound, kind, factor_value):
    require(result.status == "exact", f"search reported {result.status}")
    require(result.value <= bound, "search missed a known factorisation")
    require(len(result.witness) == result.value, "witness length differs from value")
    for f in result.witness:
        require(f.provenance[0] == kind, "witness factor of the wrong kind")
        require(factor_value(*f.provenance[1:]) == f.value.letters, "factor does not replay")
    require(
        O.product(*(f.value.letters for f in result.witness)) == target,
        "witness factors do not multiply back to the target",
    )


def _autocommutator_value(phi, h):
    return O.product(O.substitute(images(phi), h.letters), O.inverse(h.letters))


def _commutator_value(u, v):
    return O.commutator(u.letters, v.letters)


def _canon_norm(result):
    if not result.found():
        return {"status": result.status}
    return {
        "value": result.value,
        "witness": [
            [f.value.letters]
            + [images(p) if hasattr(p, "images") else p.letters for p in f.provenance[1:]]
            for f in result.witness
        ],
    }


def _check_sacl(lib, ctx, args, out):
    g = args[0].letters
    found = [(n, r) for n, r in out.trace if r.found()]
    require(found and out.upper is not None, "no power of an autocommutator factorised")
    require(out.upper == min(Fraction(r.value, n) for n, r in found), "upper is not the best ratio")
    require(out.lower == 0 and out.restricted_lower == 0, "lower bounds without a family")
    for n, r in found:
        _check_factors(r, O.power(g, n), r.value, "autocommutator", _autocommutator_value)


def _gen_bfs(rng, lib, ctx, slot):
    seeds = ((rng.choice((1, 2)),), O.random_word(rng, 2, 2))
    closure = {
        O.substitute(a, s) for a in O.signed_permutation_images(2) for s in seeds
    }
    ordered = sorted(closure)
    cutoff = pick(slot, 2, 4)
    while True:
        g = O.product(*(rng.choice(ordered) for _ in range(cutoff)))
        if g:
            return 2, len(g), ([lib.Word(2, s) for s in seeds], lib.Word(2, g), cutoff, closure)


def _run_bfs(api, ctx, args):
    seeds, target, cutoff, _ = args
    gens = api.orbit_closure(seeds, api.signed_permutations(2))
    return gens, api.bfs_norm(target, gens, cutoff)


def _check_bfs(lib, ctx, args, out):
    gens, result = out
    _, target, cutoff, closure = args
    require({s.letters for s in gens} == closure, "orbit closure differs from the oracle")
    require(result.status == "exact", f"bfs_norm reported {result.status}")
    require(result.value <= cutoff, "bfs_norm missed a known factorisation")
    require(len(result.witness) == result.value, "witness length differs from value")
    require(all(f.value.letters in closure for f in result.witness), "witness uses a non-generator")
    require(
        O.product(*(f.value.letters for f in result.witness)) == target.letters,
        "witness factors do not multiply back to the target",
    )


def _check_achiral(lib, ctx, args, out):
    if out is None:
        return
    phi, k = out
    g = args[0].letters
    require(1 <= k <= 2, "achirality exponent out of range")
    require(
        O.cyclic_core(O.substitute(images(phi), O.power(g, k))) == O.cyclic_core(O.power(g, -k)),
        "achirality witness does not conjugate g^k to g^-k",
    )


def _search_tally(found):
    return lambda args, out: {"norms.searches": 1, "norms.found": int(found(out))}


def _acl_kind(rank):
    return Kind(
        f"acl_upper-r{rank}",
        gen=_gen_product(rank, _autocommutator),
        run=lambda api, ctx, args: api.acl_upper(args[0]),
        canon=lambda args, out: _canon_norm(out),
        check=lambda lib, ctx, args, out: _check_factors(
            out, args[0].letters, args[1], "autocommutator", _autocommutator_value
        ),
        tally=_search_tally(lambda out: out.found()),
    )


def _achiral_kind(rank):
    return Kind(
        f"achirality_search-r{rank}",
        gen=_gen_word(rank, 3, 8),
        run=lambda api, ctx, args: api.achirality_search(args[0], 2, 1),
        canon=lambda args, out: None if out is None else [images(out[0]), out[1]],
        check=_check_achiral,
    )


WITNESS = Workload(
    name="witness",
    size_unit="letters",
    kinds={
        k.name: k
        for k in (
            _acl_kind(2),
            _acl_kind(3),
            Kind(
                "cl_upper-r2",
                gen=_gen_product(2, _commutator),
                run=lambda api, ctx, args: api.cl_upper(args[0]),
                canon=lambda args, out: _canon_norm(out),
                check=lambda lib, ctx, args, out: _check_factors(
                    out, args[0].letters, args[1], "commutator", _commutator_value
                ),
                tally=_search_tally(lambda out: out.found()),
            ),
            Kind(
                "sacl_estimate-r2",
                gen=_gen_sacl,
                run=lambda api, ctx, args: api.sacl_estimate(args[0], 2),
                canon=lambda args, out: {
                    "upper": fraction(out.upper),
                    "trace": [[n, _canon_norm(r)] for n, r in out.trace],
                },
                check=_check_sacl,
                tally=_search_tally(lambda out: out.upper is not None),
            ),
            Kind(
                "bfs_norm-r2",
                gen=_gen_bfs,
                run=_run_bfs,
                canon=lambda args, out: {
                    "gens": [s.letters for s in out[0]],
                    "norm": _canon_norm(out[1]),
                },
                check=_check_bfs,
                tally=_search_tally(lambda out: out[1].found()),
            ),
            _achiral_kind(2),
            _achiral_kind(3),
        )
    },
    # The two rank-3 acl_upper jobs (one in seven) set job_p90_ms.
    cycle=(
        "acl_upper-r2", "cl_upper-r2", "bfs_norm-r2", "achirality_search-r2",
        "sacl_estimate-r2", "acl_upper-r3", "bfs_norm-r2", "acl_upper-r2",
        "achirality_search-r3", "cl_upper-r2", "bfs_norm-r2", "sacl_estimate-r2",
        "acl_upper-r2", "acl_upper-r3",
    ),
    trace_jobs=42,
)


# ------------------------------------------------------------ graphprod

_EXPONENTS = (1, -1, 2, -2, 3, -3)


def _random_graph(rng, lib, n):
    labels = [rng.choice((0, 2, 3, 4)) for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return lib.VertexGraph.build(labels, edges)


def _raw(rng, n, length):
    return [(rng.randrange(n), rng.choice(_EXPONENTS)) for _ in range(length)]


def _inverse_raw(raw):
    return [(v, -e) for v, e in reversed(raw)]


def _exponent_sums(graph, syllables):
    # Exponent sum per vertex, modulo its order: invariant under merging
    # and commuting, so normal forms must preserve it.
    sums = [0] * len(graph.vertices)
    for v, e in syllables:
        sums[v] += e
    return [s % m if m else s for s, m in zip(sums, graph.labels)]


def _check_element(graph, raw, x):
    require(
        _exponent_sums(graph, raw) == _exponent_sums(graph, x.syllables),
        "normal form changed a vertex exponent sum",
    )


def _gen_raw(lo, hi, parts):
    def gen(rng, lib, ctx, slot):
        n = 5 + slot % 4
        raws = [_raw(rng, n, pick(slot, lo, hi, dim)) for dim in range(parts)]
        return n, sum(map(len, raws)), (_random_graph(rng, lib, n), *raws)

    return gen


def _check_nf(lib, ctx, args, out):
    _check_element(*args, out)


def _run_mul(api, ctx, args):
    graph, raw_x, raw_y = args
    x, y = api.normal_form(graph, raw_x), api.normal_form(graph, raw_y)
    return x, y, api.gp_multiply(x, y)


def _check_mul(lib, ctx, args, out):
    graph, raw_x, raw_y = args
    x, y, z = out
    require(
        z == lib.normal_form(graph, x.syllables + y.syllables),
        "gp_multiply differs from the normal form of the concatenation",
    )
    _check_element(graph, raw_x + raw_y, z)


def _run_cancel(api, ctx, args):
    # x * (x^-1 y): the product cancels x completely.
    graph, raw_x, raw_y = args
    x = api.normal_form(graph, raw_x)
    w = api.normal_form(graph, _inverse_raw(raw_x) + raw_y)
    return x, w, api.gp_multiply(x, w)


def _check_cancel(lib, ctx, args, out):
    graph, raw_x, raw_y = args
    x, w, z = out
    require(
        z == lib.normal_form(graph, x.syllables + w.syllables),
        "gp_multiply differs from the normal form of the concatenation",
    )
    require(z == lib.normal_form(graph, raw_y), "x * x^-1 y is not y")


def _syllable_tally(raws, outputs):
    return {
        "graphprod.syllables_in": sum(map(len, raws)),
        "graphprod.syllables_out": sum(map(len, outputs)),
    }


def _prepare_graphprod(lib, seed):
    # Joins of two or three free factors F_2 (two non-adjacent vertices of
    # infinite order) and a complete part, with shuffled vertex ids.
    rng = random.Random(f"graphprod:{seed}:prepare")
    pipelines = []
    for _ in range(3):
        k = rng.choice((2, 3))
        extra = rng.randint(1, 8 - 2 * k)
        n = 2 * k + extra
        ids = list(range(n))
        rng.shuffle(ids)
        factors = [tuple(sorted(ids[2 * i : 2 * i + 2])) for i in range(k)]
        labels = [0] * n
        for v in ids[2 * k :]:
            labels[v] = rng.choice((0, 2, 3, 4))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not any(u in f and v in f for f in factors)
        ]
        graph = lib.VertexGraph.build(labels, edges)
        pattern = O.random_word(rng, 2, rng.randint(2, 3))
        f = lib.brooks_homogeneous(lib.Word(2, pattern))
        q = lib.gp_pipeline_qm(graph, lib.join_decompose(graph), f, k)
        pipelines.append((graph, factors, pattern, q))
    return {"pipelines": pipelines}


def _gen_pipeline(rng, lib, ctx, slot):
    index = slot % len(ctx["pipelines"])
    graph = ctx["pipelines"][index][0]
    raw = _raw(rng, len(graph.vertices), pick(slot, 20, 100))
    return len(graph.vertices), len(raw), (index, raw)


def _run_pipeline(api, ctx, args):
    graph, _, _, q = ctx["pipelines"][args[0]]
    x = api.normal_form(graph, args[1])
    return x, api.evaluate(q, x)


def _check_pipeline(lib, ctx, args, out):
    graph, factors, pattern, _ = ctx["pipelines"][args[0]]
    x, value = out
    _check_element(graph, args[1], x)
    expected = 0
    for factor in factors:
        letters = []
        for v, e in args[1]:
            if v in factor:
                index = factor.index(v) + 1
                letters.extend([index if e > 0 else -index] * abs(e))
        expected += O.homogeneous_value(letters, pattern)
    require(isinstance(value, Fraction), "pipeline value is not exact")
    require(value == expected, "pipeline value differs from the oracle")


def _gen_ball(rng, lib, ctx, slot):
    n = 5 + slot % 3
    return n, 0, (_random_graph(rng, lib, n), 2 + (slot // 3) % 2)


def _check_ball(lib, ctx, args, out):
    _, radius = args
    require(len(set(out)) == len(out), "ball lists an element twice")
    require(not out[0].syllables, "ball does not start at the identity")
    require(all(len(x) <= radius for x in out), "ball element longer than the radius")


def _gen_classify(rng, lib, ctx, slot):
    # Half are joins of infinite-dihedral pairs and a complete part, which
    # are virtually abelian by construction; half random graphs.
    n = 5 + (slot // 2) % 4
    if slot % 2:
        return n, 0, (_random_graph(rng, lib, n), None)
    ids = list(range(n))
    rng.shuffle(ids)
    pairs = [frozenset(ids[2 * i : 2 * i + 2]) for i in range(rng.randint(1, n // 2))]
    labels = [rng.choice((0, 2, 3, 4)) for _ in range(n)]
    for pair in pairs:
        for v in pair:
            labels[v] = 2
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if {u, v} not in pairs]
    return n, 0, (lib.VertexGraph.build(labels, edges), True)


def _run_classify(api, ctx, args):
    return api.join_decompose(args[0]), api.classify_virtually_abelian(args[0])


def _check_classify(lib, ctx, args, out):
    graph, known = args
    d, virtually_abelian = out
    n = len(graph.vertices)
    adjacent = lambda u, v: frozenset((u, v)) in graph.edges
    parts = [v for f in d.factors for v in f] + list(d.gamma0)
    require(sorted(parts) == list(range(n)), "join parts do not partition the vertices")
    require(
        all(adjacent(u, v) for u in d.gamma0 for v in range(n) if v != u),
        "a complete-part vertex misses an edge",
    )
    dinfty = all(
        len(f) == 2 and not adjacent(*f) and all(graph.labels[v] == 2 for v in f)
        for f in d.factors
    )
    require(virtually_abelian == dinfty, "classification contradicts the join factors")
    require(known is None or virtually_abelian, "a join of dihedral pairs is not virtually abelian")


GRAPHPROD = Workload(
    name="graphprod",
    size_unit="syllables",
    prepare=_prepare_graphprod,
    kinds={
        k.name: k
        for k in (
            Kind(
                "normal_form",
                gen=_gen_raw(50, 400, 1),
                run=lambda api, ctx, args: api.normal_form(*args),
                canon=lambda args, out: out.syllables,
                check=_check_nf,
                tally=lambda args, out: _syllable_tally([args[1]], [out.syllables]),
            ),
            Kind(
                "gp_multiply",
                gen=_gen_raw(50, 200, 2),
                run=_run_mul,
                canon=lambda args, out: out[2].syllables,
                check=_check_mul,
                tally=lambda args, out: _syllable_tally(
                    [args[1], args[2], out[0].syllables + out[1].syllables],
                    [out[0].syllables, out[1].syllables, out[2].syllables],
                ),
            ),
            Kind(
                "gp_multiply-cancel",
                gen=_gen_raw(50, 200, 2),
                run=_run_cancel,
                canon=lambda args, out: out[2].syllables,
                check=_check_cancel,
                tally=lambda args, out: _syllable_tally(
                    [args[1], _inverse_raw(args[1]) + args[2], out[0].syllables + out[1].syllables],
                    [out[0].syllables, out[1].syllables, out[2].syllables],
                ),
            ),
            Kind(
                "gp_pipeline_qm",
                gen=_gen_pipeline,
                run=_run_pipeline,
                canon=lambda args, out: fraction(out[1]),
                check=_check_pipeline,
                tally=lambda args, out: _syllable_tally([args[1]], [out[0].syllables]),
            ),
            Kind(
                "ball",
                gen=_gen_ball,
                run=lambda api, ctx, args: api.ball(*args),
                canon=lambda args, out: sorted(x.syllables for x in out),
                check=_check_ball,
            ),
            Kind(
                "classify",
                gen=_gen_classify,
                run=_run_classify,
                canon=lambda args, out: {
                    "gamma0": out[0].gamma0,
                    "factors": out[0].factors,
                    "classes": out[0].iso_classes,
                    "virtually_abelian": out[1],
                },
                check=_check_classify,
            ),
        )
    },
    cycle=(
        "normal_form", "gp_multiply", "gp_pipeline_qm", "gp_multiply-cancel",
        "ball", "normal_form", "classify", "gp_pipeline_qm",
        "gp_multiply", "normal_form", "gp_multiply-cancel", "gp_pipeline_qm",
    ),
    trace_jobs=480,
)

WORKLOADS = {w.name: w for w in (ORBIT, COUNTING, WITNESS, GRAPHPROD)}
