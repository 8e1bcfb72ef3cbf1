"""Graph products of cyclic groups: normal forms and the product pipeline.

A finite simple graph with cyclic-order vertex labels presents a group in
which adjacent vertex groups commute.  Elements are normal-form syllable
sequences; the normal form is canonical (identical sequences iff equal
group elements), obtained by full syllable merging followed by the
lexicographically least linearization of the commutation trace.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .quasimorphisms import FreeGroupDomain, Quasimorphism
from .words import Word, breadth_first, components


@dataclass(frozen=True)
class VertexGraph:
    """Finite simple graph with a cyclic-group order per vertex (0 = infinite)."""

    vertices: tuple[int, ...]
    labels: tuple[int, ...]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if len(self.labels) != len(self.vertices):
            raise ValueError("one label per vertex required")
        if list(self.vertices) != sorted(self.vertices):
            raise ValueError("vertex ids must be listed in increasing order")
        for m in self.labels:
            if m < 0 or m == 1:
                raise ValueError(f"vertex order must be 0 or at least 2, got {m}")
        # Lookup tables, not fields: equality, hashing and repr ignore them.
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for e in self.edges:
            if len(e) != 2 or not e <= nbrs.keys():
                raise ValueError(f"bad edge {set(e)}")
            u, v = e
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(self, "_nbrs", nbrs)
        object.__setattr__(self, "_labels", dict(zip(self.vertices, self.labels)))

    @staticmethod
    def build(labels: Sequence[int], edges: Sequence[tuple[int, int]]) -> "VertexGraph":
        n = len(labels)
        return VertexGraph(
            tuple(range(n)), tuple(labels), frozenset(frozenset(e) for e in edges)
        )

    def label(self, v: int) -> int:
        try:
            return self._labels[v]
        except (KeyError, TypeError):
            raise ValueError(f"unknown vertex {v}") from None

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._nbrs.get(u, frozenset())

    def induced(self, subset: Sequence[int]) -> "VertexGraph":
        subset = tuple(sorted(subset))
        labels = tuple(self.label(v) for v in subset)
        edges = frozenset(e for e in self.edges if e <= set(subset))
        return VertexGraph(subset, labels, edges)

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2


def _normalize_exponent(label: int, e: int) -> int:
    return e % label if label > 0 else e


def _merge(
    graph: VertexGraph, sylls: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    # Fully merge same-vertex syllables reachable through commuting
    # separators.  One left-to-right pass suffices: the output is fully
    # merged after every step, and a syllable that cancels commutes with
    # everything after it, so deleting it never lets two others merge.
    # Raw exponents are reduced here; label() rejects unknown vertices.
    out: list[tuple[int, int]] = []
    for v, e in sylls:
        m = graph.label(v)
        e = _normalize_exponent(m, e)
        if not e:
            continue
        # Walk left past commuting syllables; no vertex is adjacent to itself.
        near = graph._nbrs[v]
        i = len(out) - 1
        while i >= 0 and out[i][0] in near:
            i -= 1
        if i >= 0 and out[i][0] == v:
            merged = _normalize_exponent(m, out[i][1] + e)
            if merged:
                out[i] = (v, merged)
            else:
                del out[i]
        else:
            out.append((v, e))
    return out


def _canonical_order(
    graph: VertexGraph, sylls: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    # Lexicographically least linearization of the commutation trace:
    # greedy smallest available vertex in a topological sort of the
    # dependence order (same vertex, or non-adjacent vertices).  Each
    # syllable waits only for the latest earlier syllable at each vertex
    # it depends on: the earlier ones at that vertex precede the latest.
    latest: dict[int, int] = {}
    succs: list[list[int]] = [[] for _ in sylls]
    indeg = [0] * len(sylls)
    for j, (v, _) in enumerate(sylls):
        near = graph._nbrs[v]
        for u, i in latest.items():
            if u not in near:  # true for u == v: no vertex is its own neighbour
                succs[i].append(j)
                indeg[j] += 1
        latest[v] = j
    heap = [(sylls[i][0], i) for i in range(len(sylls)) if indeg[i] == 0]
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


def _normalise(
    graph: VertexGraph, raw: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Normal-form syllables of a raw syllable sequence."""
    return tuple(_canonical_order(graph, _merge(graph, raw)))


@dataclass(frozen=True)
class GPWord:
    """Normal-form element of a graph product.

    The constructor insists on normal form; use normal_form() to build
    from raw syllables; it is the one path that skips the check.
    """

    graph: VertexGraph
    syllables: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "syllables", tuple((v, e) for v, e in self.syllables)
        )
        if _normalise(self.graph, self.syllables) != self.syllables:
            raise ValueError(f"{self.syllables} is not in normal form")

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)


def normal_form(graph: VertexGraph, raw: Sequence[tuple[int, int]]) -> GPWord:
    """Canonical normal form of a raw syllable sequence.

    Two sequences represent the same group element iff their normal forms
    are identical.
    """
    x = object.__new__(GPWord)
    object.__setattr__(x, "graph", graph)  # no __dict__ write: see words._trusted
    object.__setattr__(x, "syllables", _normalise(graph, raw))
    return x


def gp_identity(graph: VertexGraph) -> GPWord:
    return GPWord(graph, ())


def gp_multiply(x: GPWord, y: GPWord) -> GPWord:
    if x.graph != y.graph:
        raise ValueError("elements live on different graphs")
    return normal_form(x.graph, x.syllables + y.syllables)


def gp_invert(x: GPWord) -> GPWord:
    return normal_form(x.graph, [(v, -e) for v, e in reversed(x.syllables)])


def gp_conjugate(x: GPWord, t: GPWord) -> GPWord:
    return gp_multiply(t, gp_multiply(x, gp_invert(t)))


def gp_generators(graph: VertexGraph) -> list[GPWord]:
    gens = []
    for v, m in zip(graph.vertices, graph.labels):
        gens.append(GPWord(graph, ((v, 1),)))
        if m != 2:
            gens.append(GPWord(graph, ((v, _normalize_exponent(m, -1)),)))
    return gens


@dataclass(frozen=True)
class GraphProductDomain:
    """Quasimorphism evaluation domain for a graph product."""

    graph: VertexGraph

    def identity(self):
        return gp_identity(self.graph)

    def multiply(self, g, h):
        return gp_multiply(g, h)

    def elements(self, max_len: int):
        gens = gp_generators(self.graph)
        search = breadth_first(
            gp_identity(self.graph),
            lambda x: ((s, gp_multiply(x, s)) for s in gens),
            radius=max_len,
        )
        for x, *_ in search:
            yield x

    def sort_key(self, g):
        return g.syllables

    def describe(self):
        return ("graphproduct", self.graph.labels, tuple(sorted(tuple(sorted(e)) for e in self.graph.edges)))


@dataclass(frozen=True)
class JoinDecomposition:
    """Maximal join decomposition of a vertex graph.

    gamma0 collects the vertices adjacent to everything (the complete
    part); the factors are the complement-graph components of size at
    least two, which are exactly the join-indecomposable parts.  The
    decomposition is unique up to permuting the factors; iso_classes
    groups factor indices by labelled-graph isomorphism.  isos fixes the
    compatible isomorphisms: isos[i] lists the images of the (sorted)
    vertices of factors[i] under its canonical isomorphism onto the first
    factor of its class, so a class's first factor maps to itself.
    """

    graph: VertexGraph
    gamma0: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]
    iso_classes: tuple[tuple[int, ...], ...]
    isos: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def factor_graphs(self) -> tuple[VertexGraph, ...]:
        """The induced subgraph of each factor, built on first use."""
        return tuple(self.graph.induced(f) for f in self.factors)


def factor_isomorphism(
    graph: VertexGraph, source: Sequence[int], target: Sequence[int]
) -> Optional[dict[int, int]]:
    """Canonical labelled isomorphism between two induced subgraphs.

    Maps sorted source vertices onto a permutation of the target; among
    valid matchings the lexicographically least image tuple wins, making
    the choice of compatible isomorphisms deterministic.
    """
    source = tuple(sorted(source))
    target_sorted = tuple(sorted(target))
    if len(source) != len(target_sorted):
        return None
    for image in itertools.permutations(target_sorted):
        mapping = dict(zip(source, image))
        if any(graph.label(v) != graph.label(mapping[v]) for v in source):
            continue
        ok = True
        for u, v in itertools.combinations(source, 2):
            if graph.adjacent(u, v) != graph.adjacent(mapping[u], mapping[v]):
                ok = False
                break
        if ok:
            return mapping
    return None


def join_decompose(graph: VertexGraph) -> JoinDecomposition:
    def non_neighbours(v: int):
        return (u for u in graph.vertices if u != v and not graph.adjacent(u, v))

    # Complement components come in order of their least vertex.
    parts = components(graph.vertices, non_neighbours)
    gamma0 = tuple(c[0] for c in parts if len(c) == 1)
    factors = tuple(tuple(sorted(c)) for c in parts if len(c) >= 2)
    classes: list[list[int]] = []
    isos: list[tuple[int, ...]] = []
    for idx, factor in enumerate(factors):
        for cls in classes:
            iso = factor_isomorphism(graph, factor, factors[cls[0]])
            if iso is not None:
                cls.append(idx)
                isos.append(tuple(iso[v] for v in factor))
                break
        else:
            classes.append([idx])
            isos.append(factor)
    return JoinDecomposition(
        graph, gamma0, factors, tuple(tuple(c) for c in classes), tuple(isos)
    )


def is_dinfty(graph: VertexGraph, factor: Sequence[int]) -> bool:
    """True iff the factor is a pair of distinct non-adjacent order-2 vertices."""
    factor = tuple(sorted(factor))
    if len(factor) != 2 or factor[0] == factor[1]:
        return False
    u, v = factor
    return (
        not graph.adjacent(u, v)
        and graph.label(u) == 2
        and graph.label(v) == 2
    )


def classify_virtually_abelian(graph: VertexGraph) -> bool:
    """Whether the graph product of the (cyclic) vertex groups is virtually abelian.

    True exactly when every join factor is an infinite-dihedral pair; a
    complete graph has no factors and is abelian outright.  Inputs with
    non-cyclic vertex groups must go through refine() first.
    """
    if not isinstance(graph, VertexGraph):
        raise TypeError("labels must be cyclic orders; apply refine() first")
    d = join_decompose(graph)
    return all(is_dinfty(graph, f) for f in d.factors)


def _primary_parts(m: int) -> list[int]:
    parts = []
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            parts.append(q)
        p += 1
    if rest > 1:
        parts.append(rest)
    return sorted(parts)


def refine(
    abelian_labels: Sequence[Sequence[int]], edges: Sequence[tuple[int, int]]
) -> tuple[VertexGraph, tuple[tuple[int, ...], ...]]:
    """Split finitely generated abelian vertex groups into cyclic vertices.

    Each vertex carries a list of cyclic orders (0 for a free factor,
    composite orders allowed); it becomes a complete cluster of vertices
    labelled by primary cyclic orders and zeros, inheriting all outside
    adjacencies.  Returns the refined graph and the cluster of new ids
    for each original vertex.
    """
    clusters: list[list[int]] = []
    labels: list[int] = []
    for spec in abelian_labels:
        spec = list(spec)
        if not spec:
            raise ValueError("vertex groups must be nontrivial")
        cluster = []
        for m in spec:
            if m == 0:
                parts = [0]
            elif m >= 2:
                parts = _primary_parts(m)
            else:
                raise ValueError(f"invalid cyclic order {m}")
            for part in parts:
                cluster.append(len(labels))
                labels.append(part)
        clusters.append(cluster)
    new_edges: set[tuple[int, int]] = set()
    for cluster in clusters:
        for u, v in itertools.combinations(cluster, 2):
            new_edges.add((u, v))
    for u, v in edges:
        for a in clusters[u]:
            for b in clusters[v]:
                new_edges.add((a, b))
    graph = VertexGraph.build(labels, sorted(new_edges))
    return graph, tuple(tuple(c) for c in clusters)


def project_kill_h0(x: GPWord, d: JoinDecomposition) -> tuple[GPWord, ...]:
    """Image of x in the direct product of the join factors.

    Deletes the complete-part syllables and splits the rest by factor;
    distinct factors commute, so this is a homomorphism on normal forms.
    """
    if d.graph != x.graph:
        raise ValueError("decomposition belongs to a different graph")
    return tuple(
        normal_form(sub, [(v, e) for v, e in x.syllables if v in sub._labels])
        for sub in d.factor_graphs
    )


def permute_factors(
    x: GPWord, d: JoinDecomposition, sigma: Sequence[int]
) -> GPWord:
    """Apply the factor-permutation automorphism induced by sigma.

    sigma permutes factor indices within isomorphism classes.  Vertices
    travel through the fixed compatible isomorphisms d.isos, which makes
    the permutation action functorial: composing permutations composes
    the induced maps.  Complete-part syllables stay put.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(len(d.factors))):
        raise ValueError("sigma must permute the factor indices")
    vertex_map: dict[int, int] = {v: v for v in d.gamma0}
    for i, j in enumerate(sigma):
        from_rep = dict(zip(d.isos[j], d.factors[j]))
        # Two factors share a class iff they map onto the same first factor.
        if set(d.isos[i]) != from_rep.keys():
            raise ValueError(f"factors {i} and {j} are not isomorphic")
        for v, image in zip(d.factors[i], d.isos[i]):
            vertex_map[v] = from_rep[image]
    return normal_form(x.graph, [(vertex_map[v], e) for v, e in x.syllables])


def gp_pipeline_qm(
    graph: VertexGraph,
    d: JoinDecomposition,
    f: Quasimorphism,
    k: int,
) -> Quasimorphism:
    """Promote a factor quasimorphism to the whole graph product.

    Kills the complete part, pushes each of the first k (pairwise
    isomorphic) factors onto the first through the canonical compatible
    isomorphisms, and sums the factor values.  Only free factors carry
    unbounded homogeneous evaluators; for any other factor type the zero
    quasimorphism is the only admissible input.
    """
    if d.graph != graph:
        raise ValueError("decomposition belongs to a different graph")
    if not 1 <= k <= len(d.factors):
        raise ValueError(f"need 1 <= k <= {len(d.factors)}, got {k}")
    for i in range(k):
        if i not in d.iso_classes[0]:
            raise ValueError(f"factor {i} is not isomorphic to factor 0")
    base, sub = d.factors[0], d.factor_graphs[0]
    rank = None if sub.edges or any(sub.labels) else len(base)
    if rank is None:
        if f.provenance[0] != "zero":
            raise ValueError(
                "non-free factors admit only the zero quasimorphism"
            )
    else:
        if not isinstance(f.domain, FreeGroupDomain) or f.domain.rank != rank:
            raise ValueError(
                f"the evaluator must live on the free factor of rank {rank}"
            )
    isos = [dict(zip(d.factors[i], d.isos[i])) for i in range(k)]

    def embed(component: GPWord, iso: dict[int, int]) -> Word:
        letters = []
        for v, e in component.syllables:
            index = base.index(iso[v]) + 1
            letters.extend([index if e > 0 else -index] * abs(e))
        return Word(rank, tuple(letters))

    def evaluate(x: GPWord) -> Fraction:
        parts = project_kill_h0(x, d)
        if rank is None:
            return Fraction(0)
        return sum(
            (f(embed(parts[i], isos[i])) for i in range(k)), Fraction(0)
        )

    return Quasimorphism(
        domain=GraphProductDomain(graph),
        evaluate=evaluate,
        defect_bound=None if f.defect_bound is None else k * f.defect_bound,
        homogeneous=f.homogeneous,
        provenance=(
            "gp_pipeline",
            GraphProductDomain(graph).describe(),
            f.provenance,
            k,
        ),
    )
