"""Acceptance checks: the package's executable exit criteria.

Every check runs the exact identities and inequalities the library is
built around, at fixed trial counts and tolerances, and reports one
pass/fail record.  The CLI `verify` subcommand and the acceptance test
module both call these functions, so the suite has a single source of
truth.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import graphprod as gp
from .automorphisms import (
    ad,
    apply,
    autocommutator,
    compose,
    elementary,
    equal,
    inverse,
    random_composite,
    signed_permutations,
)
from .norms import (
    acl_upper,
    bfs_norm,
    cl_upper,
    invariant_norm_lower_bound,
    orbit_closure,
    sacl_estimate,
    transvection_witness,
)
from .quasimorphisms import (
    brooks,
    brooks_defect_exact,
    brooks_homogeneous,
    defect_enumerate,
    finite_average,
    homogenise_numeric,
    product_average,
)
from .whitehead import in_proper_free_factor, is_primitive, minimize, whitehead_graph
from .words import (
    Word,
    conjugate,
    enumerate_reduced_words,
    identity,
    invert,
    multiply,
    multiply_all,
    power,
    random_reduced_word,
    reduce,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducibility knobs: the same config and build give identical records."""

    seed: int = 0

    def rng(self, offset: int) -> random.Random:
        return random.Random(self.seed * 1000003 + offset)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def record(self) -> dict:
        # Timing deliberately excluded: identical config and build must
        # give byte-identical records.
        return {"check": self.name, "passed": self.passed, "detail": self.detail}


def _check(name: str):
    def wrap(fn: Callable[[ExperimentConfig], str]):
        def run(config: ExperimentConfig) -> CheckResult:
            start = time.perf_counter()
            try:
                detail = fn(config)
                passed = True
            except AssertionError as exc:
                detail = f"violation: {exc}"
                passed = False
            return CheckResult(name, passed, detail, time.perf_counter() - start)

        run.check_name = name
        return run

    return wrap


@_check("ad_conjugation_identity")
def check_ad_conjugation_identity(config: ExperimentConfig) -> str:
    rng = config.rng(1)
    trials = 0
    for rank in (2, 3):
        for _ in range(100):
            phi = random_composite(rng, rank, rng.randrange(0, 7))
            g = random_reduced_word(rng, rank, rng.randrange(0, 21))
            lhs = ad(apply(phi, g))
            rhs = compose(phi, compose(ad(g), inverse(phi)))
            assert equal(lhs, rhs), f"failed at rank {rank} on {g.letters}"
            trials += 1
    return f"{trials} exact identities ad(phi(g)) = phi ad(g) phi^-1"


@_check("autocommutator_equivariance")
def check_autocommutator_equivariance(config: ExperimentConfig) -> str:
    rng = config.rng(2)
    trials = 0
    for rank in (2, 3):
        for _ in range(100):
            phi = random_composite(rng, rank, rng.randrange(0, 6))
            psi = random_composite(rng, rank, rng.randrange(0, 6))
            g = random_reduced_word(rng, rank, rng.randrange(0, 16))
            lhs = apply(psi, autocommutator(phi, g))
            rhs = autocommutator(
                compose(psi, compose(phi, inverse(psi))), apply(psi, g)
            )
            assert lhs == rhs, f"failed at rank {rank} on {g.letters}"
            trials += 1
    return f"{trials} exact identities psi([phi,g]) = [psi phi psi^-1, psi(g)]"


def _pattern_representatives(rank: int, max_len: int) -> list[Word]:
    # The exact defect is constant on orbits under signed permutations and
    # pattern inversion, so one representative per orbit suffices.
    autos = signed_permutations(rank)
    seen: set[tuple[int, ...]] = set()
    reps = []
    for w in enumerate_reduced_words(rank, max_len):
        if not w or w.letters in seen:
            continue
        orbit = set()
        for a in autos:
            image = apply(a, w)
            orbit.add(image.letters)
            orbit.add(invert(image).letters)
        seen |= orbit
        reps.append(w)
    return reps


@_check("homogenisation_error_bound")
def check_homogenisation_error_bound(config: ExperimentConfig) -> str:
    rng = config.rng(3)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randrange(1, 5))
        g = random_reduced_word(rng, 2, rng.randrange(0, 11))
        f = brooks(w)
        fh = brooks_homogeneous(w)
        target = fh(g)
        for n in (8, 16, 32, 64):
            estimate, error = homogenise_numeric(f, g, n)
            assert (
                abs(estimate - target) <= error
            ), f"sandwich failed for pattern {w.letters} on {g.letters} at n={n}"
    reps = _pattern_representatives(2, 4)
    worst = Fraction(0)
    for w in reps:
        cert = brooks_defect_exact(w)
        bound = brooks(w).defect_bound
        assert (
            cert.value <= bound
        ), f"declared bound {bound} exceeded by {cert.value} at {w.letters}"
        g, h = cert.witness
        assert max(len(g), len(h)) <= 8, "witness outside the enumeration range"
        f = brooks(w)
        assert abs(f(g) + f(h) - f(multiply(g, h))) == cert.value
        worst = max(worst, Fraction(cert.value, bound))
    return (
        f"sandwich holds for 50 samples at n in 8..64; exact defect <= declared "
        f"bound for all 160 patterns via {len(reps)} orbit representatives "
        f"(worst ratio {worst})"
    )


@_check("conjugacy_invariance")
def check_conjugacy_invariance(config: ExperimentConfig) -> str:
    rng = config.rng(4)
    f = brooks_homogeneous(reduce([1, 2], 2))
    for _ in range(200):
        g = random_reduced_word(rng, 2, rng.randrange(0, 13))
        t = random_reduced_word(rng, 2, rng.randrange(0, 13))
        assert f(conjugate(g, t)) == f(g), f"failed on {g.letters} ^ {t.letters}"
    return "200 random conjugate pairs evaluate identically"


@_check("single_autocommutator_witness")
def check_single_autocommutator_witness(config: ExperimentConfig) -> str:
    a = reduce([1], 2)
    result = acl_upper(a)
    assert result.found() and result.value == 1, f"expected 1, got {result}"
    kind, phi, h = result.witness[0].provenance
    expected = elementary("transvection", (1, 2, "left"), 2)
    assert kind == "autocommutator"
    assert equal(phi, expected), "witness is not the expected transvection"
    assert h == reduce([2], 2)
    assert autocommutator(phi, h) == a
    return "acl(a) = 1 witnessed by the transvection b -> ab"


@_check("achiral_power_vanishing")
def check_achiral_power_vanishing(config: ExperimentConfig) -> str:
    comm = reduce([1, 2, -1, -2], 2)
    swap = elementary("permutation", (2, 1), 2)
    for n in range(1, 9):
        assert autocommutator(swap, power(comm, -n)) == power(comm, 2 * n)
    estimate = sacl_estimate(comm, 16)
    assert estimate.upper is not None and estimate.upper <= Fraction(
        1, 16
    ), f"upper bound {estimate.upper} exceeds 1/16"
    return f"swap witnesses all powers n <= 8; upper estimate {estimate.upper}"


@_check("free_factor_vanishing")
def check_free_factor_vanishing(config: ExperimentConfig) -> str:
    a = reduce([1], 2)
    for n in range(0, 9):
        phi, x = transvection_witness(a, 2, n)
        assert autocommutator(phi, x) == power(a, n), f"replay failed at n={n}"
    estimate = sacl_estimate(a, 16)
    assert estimate.upper is not None and estimate.upper <= Fraction(
        1, 16
    ), f"upper bound {estimate.upper} exceeds 1/16"
    return f"transvection witnesses replay for n <= 8; upper estimate {estimate.upper}"


def _primitive_oracle(max_len: int, cap: int) -> set[tuple[int, ...]]:
    """Brute-force primitive words of length <= max_len in rank two.

    Breadth-first search over basis pairs under elementary Nielsen moves,
    capped by component length; entirely independent of the Whitehead
    machinery.
    """
    start = (Word(2, (1,)), Word(2, (2,)))
    seen = {start}
    queue = deque([start])
    found: set[tuple[int, ...]] = set()
    while queue:
        u, v = queue.popleft()
        if len(u) <= max_len:
            found.add(u.letters)
        if len(v) <= max_len:
            found.add(v.letters)
        moves = [
            (invert(u), v),
            (u, invert(v)),
            (v, u),
            (multiply(u, v), v),
            (multiply(v, u), v),
            (u, multiply(v, u)),
            (u, multiply(u, v)),
        ]
        for pair in moves:
            if max(len(pair[0]), len(pair[1])) <= cap and pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return found


@_check("whitehead_suite")
def check_whitehead_suite(config: ExperimentConfig) -> str:
    a, ab, abb = reduce([1], 2), reduce([1, 2], 2), reduce([1, 2, 2], 2)
    aa, comm = reduce([1, 1], 2), reduce([1, 2, -1, -2], 2)
    aabb = reduce([1, 1, 2, 2], 2)
    for w in (a, ab, abb):
        assert is_primitive(w), f"{w.letters} should be primitive"
    for w in (aa, comm, aabb):
        assert not is_primitive(w), f"{w.letters} should not be primitive"
    assert not in_proper_free_factor(comm)
    graph = whitehead_graph(minimize(comm)[0])
    assert graph.connected and not graph.has_cut_vertex, "certificate missing"
    assert in_proper_free_factor(reduce([2], 2))
    oracle = _primitive_oracle(max_len=6, cap=8)
    stable = _primitive_oracle(max_len=6, cap=9)
    assert oracle == stable, "oracle not stable under a larger cap"
    checked = 0
    for w in enumerate_reduced_words(2, 6):
        if not w:
            continue
        assert is_primitive(w) == (
            w.letters in oracle
        ), f"oracle disagrees on {w.letters}"
        checked += 1
    return f"predicates agree with the Nielsen pair oracle on {checked} words"


@_check("product_averaging")
def check_product_averaging(config: ExperimentConfig) -> str:
    rng = config.rng(9)
    f = brooks(reduce([1, 2], 2))
    fh = brooks_homogeneous(reduce([1, 2], 2))
    integral = product_average(fh, 2, 3)
    e = identity(2)
    for _ in range(100):
        g = random_reduced_word(rng, 2, rng.randrange(0, 11))
        assert integral((g, e, e)) == fh(g), "restriction identity failed"
    symmetric = product_average(fh, 3, 3)
    for _ in range(100):
        t = tuple(random_reduced_word(rng, 2, rng.randrange(0, 7)) for _ in range(3))
        base = symmetric(t)
        for perm in itertools.permutations(range(3)):
            assert symmetric(tuple(t[i] for i in perm)) == base
    integral_f = product_average(f, 3, 3)
    small = defect_enumerate(integral_f, 1)
    assert small.value <= 3 * f.defect_bound, "defect exceeded three times the bound"
    exact = brooks_defect_exact(reduce([1, 2], 2))
    g, h = exact.witness
    combined_g = (g, g, g)
    combined_h = (h, h, h)
    combined = abs(
        integral_f(combined_g)
        + integral_f(combined_h)
        - integral_f(tuple(multiply(x, y) for x, y in zip(combined_g, combined_h)))
    )
    assert combined == 3 * exact.value, "combined witnesses missed the scaled defect"
    return (
        f"restriction and permutation identities exact; combined witness reaches "
        f"3 x {exact.value} = {combined}"
    )


@_check("finite_average_norm_bounds")
def check_finite_average_norm_bounds(config: ExperimentConfig) -> str:
    rng = config.rng(10)
    group = signed_permutations(2)
    averaged = finite_average(brooks_homogeneous(reduce([1, 2], 2)), group)
    for _ in range(200):
        g = random_reduced_word(rng, 2, rng.randrange(0, 11))
        base = averaged(g)
        for a in group:
            assert averaged(apply(a, g)) == base, "invariance violated"
    gens = [reduce([1], 2), reduce([2], 2)]
    closure = orbit_closure(gens, group)
    for _ in range(100):
        g = random_reduced_word(rng, 2, rng.randrange(0, 7))
        norm = bfs_norm(g, closure, 6)
        assert norm.found() and norm.value <= 6
        bound = invariant_norm_lower_bound(averaged, gens, g)
        assert bound <= norm.value, "norm lower bound exceeded the exact norm"
    d = averaged.defect_bound
    for _ in range(200):
        g = random_reduced_word(rng, 2, rng.randrange(0, 11))
        for a in group:
            assert abs(averaged(autocommutator(a, g))) <= d
    return (
        "signed-permutation average exactly invariant; norm and autocommutator "
        "bounds hold on all samples"
    )


@_check("graph_product_suite")
def check_graph_product_suite(config: ExperimentConfig) -> str:
    rng = config.rng(11)
    graphs = []
    while len(graphs) < 10:
        n = rng.randrange(1, 7)
        labels = [rng.choice([0, 0, 2, 3, 4]) for _ in range(n)]
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        graphs.append(gp.VertexGraph.build(labels, edges))
    trials = 0
    while trials < 1000:
        graph = graphs[trials % len(graphs)]
        raw = []
        for _ in range(rng.randrange(0, 9)):
            v = rng.choice(graph.vertices)
            m = graph.label(v)
            e = rng.choice([1, -1, 2, -2]) if m == 0 else rng.randrange(1, m)
            raw.append((v, e))
        base = gp.normal_form(graph, raw)
        pos = rng.randrange(0, len(raw) + 1)
        v = rng.choice(graph.vertices)
        variant = raw[:pos] + [(v, 1), (v, -1)] + raw[pos:]
        assert gp.normal_form(graph, variant) == base, "insertion changed the value"
        m = graph.label(v)
        if m:
            variant = raw[:pos] + [(v, m)] + raw[pos:]
            assert gp.normal_form(graph, variant) == base, "torsion changed the value"
        if len(raw) >= 2:
            i = rng.randrange(0, len(raw) - 1)
            if raw[i][0] != raw[i + 1][0] and graph.adjacent(raw[i][0], raw[i + 1][0]):
                swapped = raw.copy()
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert gp.normal_form(graph, swapped) == base, "swap changed the value"
        trials += 1

    dihedral = gp.VertexGraph.build([2, 2], [])
    seen = set(gp.GraphProductDomain(dihedral).elements(8))
    assert len(seen) == 17, f"dihedral ball has {len(seen)} elements, expected 17"

    def model_mult(x, y):
        return (x[0] + (y[0] if x[1] == 0 else -y[0]), x[1] ^ y[1])

    images = {}
    for x in seen:
        value = (0, 0)
        for vtx, _ in x.syllables:
            value = model_mult(value, (vtx, 1))
        images[x] = value
    assert len(set(images.values())) == 17, "dihedral model map is not injective"

    checked_graphs = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            graph = gp.VertexGraph.build([0] * n, edges)
            d = gp.join_decompose(graph)
            got = {frozenset(f) for f in d.factors}
            got |= {frozenset((v,)) for v in d.gamma0}
            expected = {
                frozenset(part) for part in _brute_join_parts(graph)
            }
            assert got == expected, f"join mismatch on {edges}"
            checked_graphs += 1

    classified = 0
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.product((0, 2, 3), repeat=n):
            for mask in range(2 ** len(pairs)):
                edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
                graph = gp.VertexGraph.build(list(labels), edges)
                assert gp.classify_virtually_abelian(graph) == _va_oracle(
                    graph
                ), f"classifier mismatch on {labels}, {edges}"
                classified += 1

    c4 = gp.VertexGraph.build([2, 2, 2, 2], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert gp.classify_virtually_abelian(c4)
    assert not gp.classify_virtually_abelian(gp.VertexGraph.build([0, 0], []))
    return (
        f"1000 relation trials, dihedral ball bijection, {checked_graphs} join "
        f"comparisons, {classified} classifications against the oracle"
    )


def _brute_join_parts(graph):
    vs = graph.vertices
    if len(vs) <= 1:
        return [vs]
    for size in range(1, len(vs) // 2 + 1):
        for left in itertools.combinations(vs, size):
            right = tuple(v for v in vs if v not in left)
            if all(graph.adjacent(u, v) for u in left for v in right):
                return _brute_join_parts(graph.induced(left)) + _brute_join_parts(
                    graph.induced(right)
                )
    return [vs]


def _va_oracle(graph) -> bool:
    # Virtually abelian iff every join part is a single vertex or a
    # non-adjacent pair of order-2 vertices.
    return all(
        len(part) == 1
        or (
            len(part) == 2
            and not graph.adjacent(*part)
            and all(graph.label(v) == 2 for v in part)
        )
        for part in _brute_join_parts(graph)
    )


@_check("pipeline_quasimorphism")
def check_pipeline_quasimorphism(config: ExperimentConfig) -> str:
    rng = config.rng(12)
    graph = gp.VertexGraph.build(
        [0, 0, 0, 0, 0],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)],
    )
    d = gp.join_decompose(graph)
    f = brooks_homogeneous(reduce([1, 2], 2))
    qm = gp.gp_pipeline_qm(graph, d, f, 2)

    def random_element(max_syllables):
        raw = []
        for _ in range(rng.randrange(0, max_syllables + 1)):
            raw.append((rng.choice(graph.vertices), rng.choice([1, -1, 2, -2])))
        return gp.normal_form(graph, raw)

    for exponent in (-3, 1, 4):
        assert qm(gp.normal_form(graph, [(0, exponent)])) == 0, "kernel violated"
    for m in range(1, 6):
        x = gp.normal_form(graph, [(1, 1), (2, 1)] * m)
        assert qm(x) == m, f"expected {m} on the factor power"
    for _ in range(100):
        x = random_element(8)
        assert qm(gp.permute_factors(x, d, (1, 0))) == qm(x), "swap invariance failed"
    for _ in range(100):
        x = random_element(6)
        t = random_element(6)
        assert qm(gp.gp_conjugate(x, t)) == qm(x), "conjugation invariance failed"
    return "kernel, factor values, swap and conjugation invariance all exact"


@_check("autocommutator_vs_commutator")
def check_autocommutator_vs_commutator(config: ExperimentConfig) -> str:
    rng = config.rng(13)
    done = 0
    attempts = 0
    while done < 30:
        attempts += 1
        parts = []
        for _ in range(rng.randrange(1, 3)):
            u = random_reduced_word(rng, 2, rng.randrange(1, 3))
            v = random_reduced_word(rng, 2, rng.randrange(1, 3))
            parts.append(multiply(multiply(u, v), multiply(invert(u), invert(v))))
        g = multiply_all(parts, 2)
        cl = cl_upper(g, len_cap=2, k_max=2)
        acl = acl_upper(g, pool_depth=1, elem_len=2, k_max=2)
        if cl.found() and acl.found():
            assert acl.value <= cl.value, f"ordering violated on {g.letters}"
            done += 1
        assert attempts < 500, "could not find enough successful searches"
    return f"acl <= cl on {done} commutator products ({attempts} attempts)"


ALL_CHECKS = [
    check_ad_conjugation_identity,
    check_autocommutator_equivariance,
    check_homogenisation_error_bound,
    check_conjugacy_invariance,
    check_single_autocommutator_witness,
    check_achiral_power_vanishing,
    check_free_factor_vanishing,
    check_whitehead_suite,
    check_product_averaging,
    check_finite_average_norm_bounds,
    check_graph_product_suite,
    check_pipeline_quasimorphism,
    check_autocommutator_vs_commutator,
]

SUITES: dict[str, list] = {
    "all": ALL_CHECKS,
    "ad-identity": [check_ad_conjugation_identity],
    "equivariance": [check_autocommutator_equivariance],
    "vanishing": [
        check_single_autocommutator_witness,
        check_achiral_power_vanishing,
        check_free_factor_vanishing,
    ],
    "product": [check_product_averaging, check_pipeline_quasimorphism],
    "whitehead": [check_whitehead_suite],
    "normalform": [check_graph_product_suite],
    "bounds": [
        check_homogenisation_error_bound,
        check_conjugacy_invariance,
        check_finite_average_norm_bounds,
        check_autocommutator_vs_commutator,
    ],
}


def run_suite(name: str, config: Optional[ExperimentConfig] = None) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    config = config or ExperimentConfig()
    return [check(config) for check in SUITES[name]]
