import heapq
import itertools
import random
from fractions import Fraction

import pytest

from autqm.graphprod import (
    GPWord,
    _merge,
    _normalize_exponent,
    GraphProductDomain,
    VertexGraph,
    classify_virtually_abelian,
    factor_isomorphism,
    gp_conjugate,
    gp_generators,
    gp_identity,
    gp_invert,
    gp_multiply,
    gp_pipeline_qm,
    is_dinfty,
    join_decompose,
    normal_form,
    permute_factors,
    project_kill_h0,
    refine,
)
from autqm.quasimorphisms import (
    FreeGroupDomain,
    brooks_homogeneous,
    defect_enumerate,
    zero,
)
from autqm.words import Word, random_reduced_word, reduce

# Two non-adjacent order-2 vertices: the infinite dihedral group.
DIHEDRAL = VertexGraph.build([2, 2], [])
# A path 0-1-2: ends non-adjacent, both adjacent to the middle.
PATH = VertexGraph.build([0, 0, 0], [(0, 1), (1, 2)])
# Four-cycle with order-2 labels.
C4 = VertexGraph.build([2, 2, 2, 2], [(0, 1), (1, 2), (2, 3), (3, 0)])
# A central vertex joined to two copies of a free pair.
PIPE = VertexGraph.build(
    [0, 0, 0, 0, 0],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)],
)


def random_graph(rng, max_vertices=6):
    n = rng.randrange(1, max_vertices + 1)
    labels = [rng.choice([0, 0, 2, 3, 4]) for _ in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return VertexGraph.build(labels, edges)


def random_raw(rng, graph, length):
    out = []
    for _ in range(length):
        v = rng.choice(graph.vertices)
        m = graph.label(v)
        e = rng.choice([1, -1, 2, -2]) if m == 0 else rng.randrange(1, m)
        out.append((v, e))
    return out


def all_pairs_canonical_order(graph, sylls):
    """Greedy least linearization with an edge for every dependent pair."""
    n = len(sylls)
    succs = [[] for _ in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            vi, vj = sylls[i][0], sylls[j][0]
            if vi == vj or not graph.adjacent(vi, vj):
                succs[i].append(j)
                indeg[j] += 1
    heap = [(sylls[i][0], i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, i = heapq.heappop(heap)
        out.append(sylls[i])
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (sylls[j][0], j))
    return out


class TestNormalForm:
    def test_cancellation(self):
        assert normal_form(PATH, [(1, 1), (1, -1)]) == gp_identity(PATH)

    def test_commuting_shuffle(self):
        assert normal_form(PATH, [(1, 1), (0, 1)]).syllables == ((0, 1), (1, 1))

    def test_non_adjacent_ends_do_not_merge(self):
        raw = [(0, 1), (2, 1), (0, 1)]
        assert normal_form(PATH, raw).syllables == ((0, 1), (2, 1), (0, 1))

    def test_merge_through_commuting_separator(self):
        # 0 and 1 are adjacent, so the two 0-syllables meet and merge.
        assert normal_form(PATH, [(0, 1), (1, 1), (0, 1)]).syllables == (
            (0, 2),
            (1, 1),
        )

    def test_merge_after_deletion(self):
        raw = [(0, 1), (1, 1), (1, -1), (0, 1)]
        assert normal_form(PATH, raw).syllables == ((0, 2),)

    def test_exponents_mod_label(self):
        assert normal_form(C4, [(0, 3)]).syllables == ((0, 1),)
        assert normal_form(C4, [(0, 2)]) == gp_identity(C4)

    def test_constructor_rejects_non_normal(self):
        with pytest.raises(ValueError):
            GPWord(PATH, ((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            GPWord(C4, ((0, 2),))
        order3 = VertexGraph.build([3, 0], [])
        for syllables in (
            ((2, 1),),  # unknown vertex
            ((1, 0),),  # zero exponent
            ((0, 3),),  # exponent equal to the vertex order
            ((0, -1),),  # negative exponent at a finite-order vertex
            ((1, 1), (0, 4)),  # exponent above the vertex order
        ):
            with pytest.raises(ValueError):
                GPWord(order3, syllables)

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(17)
        for _ in range(1500):
            graph = random_graph(rng, max_vertices=7)
            raw = [
                (rng.choice(graph.vertices), rng.randrange(-5, 6))
                for _ in range(rng.randrange(0, 30))
            ]
            sylls = []
            for v, e in raw:
                e = _normalize_exponent(graph.label(v), e)
                if e:
                    sylls.append((v, e))
            expected = all_pairs_canonical_order(graph, _merge(graph, sylls))
            assert normal_form(graph, raw).syllables == tuple(expected)

    def test_relation_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            graph = random_graph(rng)
            raw = random_raw(rng, graph, rng.randrange(0, 10))
            base = normal_form(graph, raw)
            pos = rng.randrange(0, len(raw) + 1)
            v = rng.choice(graph.vertices)
            with_pair = raw[:pos] + [(v, 1), (v, -1)] + raw[pos:]
            assert normal_form(graph, with_pair) == base
            m = graph.label(v)
            if m:
                with_torsion = raw[:pos] + [(v, m)] + raw[pos:]
                assert normal_form(graph, with_torsion) == base
            if len(raw) >= 2:
                i = rng.randrange(0, len(raw) - 1)
                u, w_ = raw[i][0], raw[i + 1][0]
                if u != w_ and graph.adjacent(u, w_):
                    swapped = raw.copy()
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    assert normal_form(graph, swapped) == base
            if raw:
                i = rng.randrange(0, len(raw))
                v0, e0 = raw[i]
                if graph.label(v0) == 0 and abs(e0) >= 2:
                    split = (
                        raw[:i]
                        + [(v0, e0 - (1 if e0 > 0 else -1)), (v0, 1 if e0 > 0 else -1)]
                        + raw[i + 1 :]
                    )
                    assert normal_form(graph, split) == base


class TestGroupOperations:
    def test_inverse_law(self):
        rng = random.Random(5)
        for _ in range(100):
            graph = random_graph(rng)
            x = normal_form(graph, random_raw(rng, graph, rng.randrange(0, 8)))
            assert gp_multiply(x, gp_invert(x)) == gp_identity(graph)

    def test_associativity(self):
        rng = random.Random(7)
        for _ in range(200):
            graph = random_graph(rng)
            x, y, z = (
                normal_form(graph, random_raw(rng, graph, rng.randrange(0, 6)))
                for _ in range(3)
            )
            assert gp_multiply(gp_multiply(x, y), z) == gp_multiply(
                x, gp_multiply(y, z)
            )

    def test_dihedral_arithmetic(self):
        uv = normal_form(DIHEDRAL, [(0, 1), (1, 1)])
        lhs = gp_multiply(
            normal_form(DIHEDRAL, [(0, 1), (1, 1)] * 3),
            gp_invert(normal_form(DIHEDRAL, [(0, 1), (1, 1)] * 2)),
        )
        assert lhs == uv

    def test_graph_mismatch(self):
        with pytest.raises(ValueError):
            gp_multiply(gp_identity(PATH), gp_identity(C4))


def old_label(graph, v):
    """VertexGraph.label before the per-graph tables: a scan of vertices."""
    return graph.labels[graph.vertices.index(v)]


def old_adjacent(graph, u, v):
    """VertexGraph.adjacent before the per-graph tables: an edge-set probe."""
    return frozenset((u, v)) in graph.edges


def exception_or_value(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def random_graph_or_induced(rng):
    """A random graph on up to 7 vertices, or an induced subgraph of one,
    whose vertex ids then need not be 0..n-1."""
    graph = random_graph(rng, max_vertices=7)
    if rng.random() < 0.5:
        subset = rng.sample(graph.vertices, rng.randrange(1, len(graph.vertices) + 1))
        graph = graph.induced(subset)
    return graph


class TestTrustedNormalForm:
    """normal_form skips GPWord's normal-form check; its results, and so
    those of gp_multiply and gp_invert, must pass that check unchanged."""

    def test_results_pass_the_validated_constructor(self):
        rng = random.Random(29)
        for _ in range(600):
            graph = random_graph_or_induced(rng)
            raws = [
                [
                    (rng.choice(graph.vertices), rng.randrange(-5, 6))
                    for _ in range(rng.randrange(0, 25))
                ]
                for _ in range(2)
            ]
            x, y = (normal_form(graph, raw) for raw in raws)
            for z in (x, y, gp_multiply(x, y), gp_invert(x), gp_conjugate(x, y)):
                checked = GPWord(graph, z.syllables)
                assert checked == z and checked.syllables == z.syllables
                assert type(z.syllables) is tuple
                assert hash(checked) == hash(z) and repr(checked) == repr(z)

    def test_projection_components_pass_the_validated_constructor(self):
        rng = random.Random(31)
        for _ in range(100):
            graph = random_join(rng)
            d = join_decompose(graph)
            x = normal_form(graph, random_raw(rng, graph, rng.randrange(0, 20)))
            for sub, component in zip(d.factor_graphs, project_kill_h0(x, d)):
                assert component.graph == sub
                assert GPWord(sub, component.syllables) == component

    def test_edge_order_does_not_matter(self):
        rng = random.Random(37)
        for _ in range(100):
            graph = random_graph(rng, max_vertices=7)
            edges = [tuple(e) for e in graph.edges]
            rng.shuffle(edges)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            other = VertexGraph.build(graph.labels, edges)
            assert other == graph and hash(other) == hash(graph)
            assert "_nbrs" not in repr(graph) and "_labels" not in repr(graph)
            for u in graph.vertices:
                assert {v for v in graph.vertices if other.adjacent(u, v)} == {
                    v for v in graph.vertices if graph.adjacent(u, v)
                }

    def test_adjacent_and_label_match_the_old_lookups(self):
        rng = random.Random(41)
        for _ in range(100):
            graph = random_graph_or_induced(rng)
            probes = list(range(-1, max(graph.vertices) + 2)) + [None, "0", 1.0]
            for u in probes:
                assert exception_or_value(graph.label, u) == exception_or_value(
                    old_label, graph, u
                )
                for v in probes:
                    assert exception_or_value(
                        graph.adjacent, u, v
                    ) == exception_or_value(old_adjacent, graph, u, v)
            bad = [0]  # unhashable
            assert exception_or_value(graph.label, bad) is ValueError
            assert exception_or_value(old_label, graph, bad) is ValueError
            for args in ((bad, 0), (0, bad), (bad, bad), (-1, bad)):
                assert exception_or_value(graph.adjacent, *args) is TypeError
                assert exception_or_value(old_adjacent, graph, *args) is TypeError


class TestDihedralModel:
    """Compare the two-reflection graph product with explicit dihedral arithmetic."""

    @staticmethod
    def model_multiply(a, b):
        m, s = a
        m2, s2 = b
        return (m + (m2 if s == 0 else -m2), s ^ s2)

    def model_of(self, x: GPWord):
        value = (0, 0)
        images = {0: (0, 1), 1: (1, 1)}
        for v, e in x.syllables:
            assert e == 1
            value = self.model_multiply(value, images[v])
        return value

    def test_ball_of_radius_eight_bijects(self):
        gens = gp_generators(DIHEDRAL)
        seen = {gp_identity(DIHEDRAL)}
        frontier = [gp_identity(DIHEDRAL)]
        for _ in range(8):
            nxt = []
            for x in frontier:
                for s in gens:
                    y = gp_multiply(x, s)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(seen) == 1 + 2 * 8
        images = {self.model_of(x) for x in seen}
        assert len(images) == len(seen)

        model_seen = {(0, 0)}
        model_frontier = [(0, 0)]
        for _ in range(8):
            nxt = []
            for x in model_frontier:
                for gen in ((0, 1), (1, 1)):
                    y = self.model_multiply(x, gen)
                    if y not in model_seen:
                        model_seen.add(y)
                        nxt.append(y)
            model_frontier = nxt
        assert images == model_seen

    def test_model_is_homomorphism(self):
        rng = random.Random(11)
        for _ in range(100):
            x = normal_form(DIHEDRAL, random_raw(rng, DIHEDRAL, rng.randrange(0, 6)))
            y = normal_form(DIHEDRAL, random_raw(rng, DIHEDRAL, rng.randrange(0, 6)))
            assert self.model_of(gp_multiply(x, y)) == self.model_multiply(
                self.model_of(x), self.model_of(y)
            )


def brute_force_join_parts(graph: VertexGraph):
    vs = graph.vertices
    if len(vs) <= 1:
        return [vs]
    for size in range(1, len(vs) // 2 + 1):
        for left in itertools.combinations(vs, size):
            right = tuple(v for v in vs if v not in left)
            if all(graph.adjacent(u, v) for u in left for v in right):
                return brute_force_join_parts(
                    graph.induced(left)
                ) + brute_force_join_parts(graph.induced(right))
    return [vs]


def va_oracle(graph: VertexGraph) -> bool:
    # Independent recursion: peel fully-adjacent bipartitions; an
    # indecomposable non-complete piece is harmless only as a pair of
    # order-2 vertices.
    if graph.is_complete():
        return True
    vs = graph.vertices
    for size in range(1, len(vs) // 2 + 1):
        for left in itertools.combinations(vs, size):
            right = tuple(v for v in vs if v not in left)
            if all(graph.adjacent(u, v) for u in left for v in right):
                return va_oracle(graph.induced(left)) and va_oracle(
                    graph.induced(right)
                )
    return len(vs) == 2 and graph.labels == (2, 2)


def all_graphs(max_vertices, label_choices):
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.product(label_choices, repeat=n):
            for mask in range(2 ** len(pairs)):
                edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
                yield VertexGraph.build(labels, edges)


class TestJoinDecompose:
    def test_complete_graph(self):
        graph = VertexGraph.build([2, 3, 0], [(0, 1), (0, 2), (1, 2)])
        d = join_decompose(graph)
        assert d.gamma0 == (0, 1, 2)
        assert d.factors == ()

    def test_edgeless_pair(self):
        d = join_decompose(DIHEDRAL)
        assert d.gamma0 == ()
        assert d.factors == ((0, 1),)

    def test_four_cycle(self):
        d = join_decompose(C4)
        assert d.gamma0 == ()
        assert d.factors == ((0, 2), (1, 3))
        assert d.iso_classes == ((0, 1),)

    def test_matches_brute_force_on_all_small_graphs(self):
        for graph in all_graphs(5, (0,)):
            d = join_decompose(graph)
            expected = {
                frozenset(part) for part in brute_force_join_parts(graph)
            }
            got = {frozenset(f) for f in d.factors}
            got |= {frozenset((v,)) for v in d.gamma0}
            assert got == expected

    def test_decomposition_invariants(self):
        rng = random.Random(13)
        for _ in range(50):
            graph = random_graph(rng)
            d = join_decompose(graph)
            for v in d.gamma0:
                assert all(
                    graph.adjacent(v, u) for u in graph.vertices if u != v
                )
            for f1, f2 in itertools.combinations(d.factors, 2):
                assert all(graph.adjacent(u, v) for u in f1 for v in f2)
            for f in d.factors:
                assert len(f) >= 2


class TestClassification:
    def test_dinfty_detection(self):
        assert is_dinfty(DIHEDRAL, (0, 1))
        assert not is_dinfty(DIHEDRAL, (0, 0))
        assert not is_dinfty(VertexGraph.build([0, 0], []), (0, 1))
        assert not is_dinfty(
            VertexGraph.build([2, 2, 2], []), (0, 1, 2)
        )

    def test_examples(self):
        assert classify_virtually_abelian(C4)
        assert not classify_virtually_abelian(VertexGraph.build([0, 0], []))
        assert classify_virtually_abelian(
            VertexGraph.build([5, 0, 7], [(0, 1), (0, 2), (1, 2)])
        )

    def test_hand_table_small_cases(self):
        # Frozen expectations for the square-free label set {0, 2, 3}.
        edge = [(0, 1)]
        table = [
            (VertexGraph.build([2, 2], []), True),
            (VertexGraph.build([2, 3], []), False),
            (VertexGraph.build([3, 3], []), False),
            (VertexGraph.build([0, 2], []), False),
            (VertexGraph.build([0, 0], edge), True),
            (VertexGraph.build([2, 3], edge), True),
            # A path's centre is adjacent to everything, so these are
            # (centre group) x (infinite dihedral): virtually abelian.
            (VertexGraph.build([2, 2, 2], [(0, 1), (1, 2)]), True),
            (VertexGraph.build([2, 0, 2], [(0, 1), (1, 2)]), True),
            (VertexGraph.build([2, 3, 2], [(1, 0), (1, 2)]), True),
            # One edge plus an isolated vertex: a genuine free product.
            (VertexGraph.build([2, 2, 2], [(0, 1)]), False),
            (VertexGraph.build([0, 0, 0], []), False),
        ]
        for graph, expected in table:
            assert classify_virtually_abelian(graph) == expected

    def test_matches_oracle_on_all_small_labelled_graphs(self):
        for graph in all_graphs(3, (0, 2, 3)):
            assert classify_virtually_abelian(graph) == va_oracle(graph)

    def test_rejects_unrefined_input(self):
        with pytest.raises(TypeError):
            classify_virtually_abelian([[2, 3], [0]])


class TestRefine:
    def test_composite_cyclic_splits(self):
        graph, clusters = refine([[6]], [])
        assert graph.labels == (2, 3)
        assert graph.adjacent(0, 1)
        assert clusters == ((0, 1),)

    def test_infinite_cyclic_unchanged(self):
        graph, _ = refine([[0]], [])
        assert graph.labels == (0,)
        assert not graph.edges

    def test_free_abelian_rank_two(self):
        graph, _ = refine([[0, 0]], [])
        assert graph.labels == (0, 0)
        assert graph.adjacent(0, 1)

    def test_edges_inherited(self):
        graph, clusters = refine([[6], [2]], [(0, 1)])
        for a in clusters[0]:
            for b in clusters[1]:
                assert graph.adjacent(a, b)

    def test_rejects_trivial_group(self):
        with pytest.raises(ValueError):
            refine([[1]], [])
        with pytest.raises(ValueError):
            refine([[]], [])


class TestProjection:
    def test_kernel(self):
        d = join_decompose(PIPE)
        x = normal_form(PIPE, [(0, 3)])
        assert all(not c for c in project_kill_h0(x, d))

    def test_component_split(self):
        d = join_decompose(PIPE)
        x = normal_form(PIPE, [(0, 1), (1, 1), (2, 1), (3, 1)])
        c1, c2 = project_kill_h0(x, d)
        assert c1.syllables == ((1, 1), (2, 1))
        assert c2.syllables == ((3, 1),)

    def test_multiplicative(self):
        rng = random.Random(17)
        d = join_decompose(PIPE)
        for _ in range(200):
            x = normal_form(PIPE, random_raw(rng, PIPE, rng.randrange(0, 8)))
            y = normal_form(PIPE, random_raw(rng, PIPE, rng.randrange(0, 8)))
            px = project_kill_h0(x, d)
            py = project_kill_h0(y, d)
            pxy = project_kill_h0(gp_multiply(x, y), d)
            assert pxy == tuple(gp_multiply(a, b) for a, b in zip(px, py))

    def test_matches_per_element_induced_graphs(self):
        # project_kill_h0 as written before the decomposition kept its
        # factor graphs: each call rebuilt every induced subgraph.
        rng = random.Random(19)
        for _ in range(100):
            graph = random_join(rng)
            d = join_decompose(graph)
            assert d.factor_graphs == tuple(graph.induced(f) for f in d.factors)
            for _ in range(5):
                x = normal_form(graph, random_raw(rng, graph, rng.randrange(0, 20)))
                rebuilt = tuple(
                    normal_form(
                        graph.induced(f), [(v, e) for v, e in x.syllables if v in f]
                    )
                    for f in d.factors
                )
                assert project_kill_h0(x, d) == rebuilt


class TestPipeline:
    def setup_method(self):
        self.d = join_decompose(PIPE)
        self.f = brooks_homogeneous(reduce([1, 2], 2))
        self.qm = gp_pipeline_qm(PIPE, self.d, self.f, 2)

    def test_vanishes_on_complete_part(self):
        x = normal_form(PIPE, [(0, -4)])
        assert self.qm(x) == 0

    def test_value_on_factor_power(self):
        for m in (1, 3, 5):
            x = normal_form(PIPE, [(1, 1), (2, 1)] * m)
            assert self.qm(x) == m

    def test_factor_swap_invariance(self):
        rng = random.Random(19)
        for _ in range(100):
            x = normal_form(PIPE, random_raw(rng, PIPE, rng.randrange(0, 8)))
            swapped = permute_factors(x, self.d, (1, 0))
            assert self.qm(swapped) == self.qm(x)

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        for _ in range(100):
            x = normal_form(PIPE, random_raw(rng, PIPE, rng.randrange(0, 6)))
            t = normal_form(PIPE, random_raw(rng, PIPE, rng.randrange(0, 6)))
            assert self.qm(gp_conjugate(x, t)) == self.qm(x)

    def test_defect_bound_scales(self):
        assert self.qm.defect_bound == 2 * self.f.defect_bound

    def test_enumerated_defect(self):
        cert = defect_enumerate(self.qm, 2)
        assert cert.value == 2
        g, h = cert.witness
        assert abs(self.qm(g) + self.qm(h) - self.qm(gp_multiply(g, h))) == 2
        assert cert.value <= self.qm.defect_bound == 48

    def test_non_free_factor_requires_zero(self):
        d = join_decompose(C4)
        with pytest.raises(ValueError):
            gp_pipeline_qm(C4, d, self.f, 1)
        z = zero(self.f.domain)
        qm = gp_pipeline_qm(C4, d, z, 2)
        assert qm(normal_form(C4, [(0, 1), (1, 1)])) == 0

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gp_pipeline_qm(PIPE, self.d, brooks_homogeneous(reduce([1], 3)), 2)


class TestFactorPermutation:
    def test_permutation_is_functorial(self):
        rng = random.Random(29)
        d = join_decompose(PIPE)
        for _ in range(50):
            x = normal_form(PIPE, random_raw(rng, PIPE, rng.randrange(0, 8)))
            once = permute_factors(x, d, (1, 0))
            assert permute_factors(once, d, (1, 0)) == x

    def test_rejects_class_mixing(self):
        graph = VertexGraph.build(
            [0, 0, 2, 2], [(0, 2), (0, 3), (1, 2), (1, 3)]
        )
        d = join_decompose(graph)
        assert len(d.factors) == 2
        with pytest.raises(ValueError):
            permute_factors(gp_identity(graph), d, (1, 0))

    def test_isomorphism_is_canonical(self):
        iso = factor_isomorphism(PIPE, (1, 2), (3, 4))
        assert iso == {1: 3, 2: 4}


def recomputed_isos(d):
    """JoinDecomposition.isos recomputed: each factor's factor_isomorphism
    onto the first factor of its class, as permute_factors did."""
    isos = {}
    for cls in d.iso_classes:
        for i in cls:
            iso = factor_isomorphism(d.graph, d.factors[i], d.factors[cls[0]])
            isos[i] = tuple(iso[v] for v in d.factors[i])
    return tuple(isos[i] for i in range(len(d.factors)))


def recomputing_permute_factors(x, d, sigma):
    """permute_factors as written before JoinDecomposition.isos."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(len(d.factors))):
        raise ValueError("sigma must permute the factor indices")
    class_of = {}
    for cls in d.iso_classes:
        for i in cls:
            class_of[i] = cls[0]
    for i, j in enumerate(sigma):
        if class_of[i] != class_of[j]:
            raise ValueError(f"factors {i} and {j} are not isomorphic")
    vertex_map = {v: v for v in d.gamma0}
    for cls in d.iso_classes:
        rep = d.factors[cls[0]]
        to_rep = {i: factor_isomorphism(d.graph, d.factors[i], rep) for i in cls}
        from_rep = {i: {b: a for a, b in to_rep[i].items()} for i in cls}
        for i in cls:
            for v in d.factors[i]:
                vertex_map[v] = from_rep[sigma[i]][to_rep[i][v]]
    return normal_form(x.graph, [(vertex_map[v], e) for v, e in x.syllables])


def pipeline_isos(graph, d, k):
    """gp_pipeline_qm's factor_isomorphism loop before JoinDecomposition.isos."""
    isos = []
    for i in range(k):
        iso = factor_isomorphism(graph, d.factors[i], d.factors[0])
        if iso is None:
            raise ValueError(f"factor {i} is not isomorphic to factor 0")
        isos.append(iso)
    return isos


def pipeline_value(d, f, isos, x):
    """gp_pipeline_qm's value on a free first factor, through the given isos."""
    base_sorted = tuple(sorted(d.factors[0]))
    total = Fraction(0)
    for component, iso in zip(project_kill_h0(x, d), isos):
        letters = []
        for v, e in component.syllables:
            index = base_sorted.index(iso[v]) + 1
            letters.extend([index if e > 0 else -index] * abs(e))
        total += f(Word(f.domain.rank, tuple(letters)))
    return total


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def random_join(rng):
    """A join of random pieces, some repeated, with shuffled vertex ids."""
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        n = rng.randrange(1, 4)
        labels = [rng.choice([0, 0, 2, 3]) for _ in range(n)]
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        pieces += [(labels, edges)] * rng.randrange(1, 4)
    ids = list(range(sum(len(labels) for labels, _ in pieces)))
    rng.shuffle(ids)
    labels, edges, blocks = [0] * len(ids), [], []
    for piece_labels, piece_edges in pieces:
        block, ids = ids[: len(piece_labels)], ids[len(piece_labels) :]
        for v, m in zip(block, piece_labels):
            labels[v] = m
        edges += [(block[i], block[j]) for i, j in piece_edges]
        blocks.append(block)
    for b1, b2 in itertools.combinations(blocks, 2):
        edges += [(u, v) for u in b1 for v in b2]
    return VertexGraph.build(labels, edges)


def check_against_recomputed_isos(rng, graph, samples):
    """d.isos, permute_factors and gp_pipeline_qm against the recomputing
    oracles, on random elements of the graph product."""
    d = join_decompose(graph)
    assert d.isos == recomputed_isos(d)
    xs = [
        normal_form(graph, random_raw(rng, graph, rng.randrange(0, 8)))
        for _ in range(samples)
    ]
    n = len(d.factors)
    sigmas = [list(range(n)), rng.sample(range(n), n)]
    within = list(range(n))
    for cls in d.iso_classes:
        for i, j in zip(cls, rng.sample(cls, len(cls))):
            within[i] = j
    sigmas.append(within)
    for sigma in sigmas:
        for x in xs:
            assert outcome(permute_factors, x, d, sigma) == outcome(
                recomputing_permute_factors, x, d, sigma
            )
    base = graph.induced(d.factors[0]) if d.factors else None
    free = base is not None and not base.edges and not any(base.labels)
    for k in range(1, n + 1):
        if free:
            rank = len(base.vertices)
            f = brooks_homogeneous(random_reduced_word(rng, rank, rng.randrange(1, 4)))
        else:
            f = zero(FreeGroupDomain(2))
        isos = outcome(pipeline_isos, graph, d, k)
        qm = outcome(gp_pipeline_qm, graph, d, f, k)
        if isinstance(isos, str):
            assert qm == isos
            continue
        for x in xs:
            assert qm(x) == (pipeline_value(d, f, isos, x) if free else 0)


class TestCompatibleIsomorphisms:
    def test_decomposition_is_hashable(self):
        d = join_decompose(PIPE)
        assert d.isos == ((1, 2), (1, 2))
        assert hash(d) == hash(join_decompose(PIPE))
        assert len({d, join_decompose(PIPE), join_decompose(C4)}) == 2

    def test_all_small_graphs(self):
        rng = random.Random(37)
        graphs = itertools.chain(all_graphs(5, (0,)), all_graphs(4, (0, 2)))
        for graph in graphs:
            check_against_recomputed_isos(rng, graph, 2)

    def test_random_joins(self):
        rng = random.Random(47)
        for _ in range(150):
            check_against_recomputed_isos(rng, random_join(rng), 6)


def frontier_elements(graph, max_len):
    """The layer-by-layer loop GraphProductDomain.elements used before
    breadth_first."""
    gens = gp_generators(graph)
    seen = {gp_identity(graph)}
    yield gp_identity(graph)
    frontier = [gp_identity(graph)]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for s in gens:
                y = gp_multiply(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    yield y
        frontier = nxt


class TestDomain:
    def test_enumeration_matches_frontier_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=6)
            radius = rng.randrange(0, 4)
            found = [x.syllables for x in GraphProductDomain(graph).elements(radius)]
            assert found == [x.syllables for x in frontier_elements(graph, radius)]

    def test_enumeration_is_lazy(self):
        elements = GraphProductDomain(PATH).elements(10**6)
        assert next(elements) == gp_identity(PATH)
        assert len(next(elements)) == 1

    def test_enumeration_matches_ball(self):
        domain = GraphProductDomain(DIHEDRAL)
        assert len(list(domain.elements(8))) == 17

    def test_zero_qm_on_domain(self):
        z = zero(GraphProductDomain(C4))
        assert z(normal_form(C4, [(0, 1)])) == 0
