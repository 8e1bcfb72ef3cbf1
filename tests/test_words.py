import random

import pytest
from hypothesis import given, strategies as st

from autqm.words import (
    CyclicWord,
    _inverse,
    _join,
    Word,
    breadth_first,
    components,
    conjugate,
    cyclic_reduce,
    enumerate_reduced_words,
    identity,
    invert,
    is_conjugate,
    multiply,
    power,
    primitive_root,
    random_reduced_word,
    reduce,
    letter_key,
    word_key,
)


def w(letters, rank=2):
    return reduce(letters, rank)


raw_letters = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=40
)


def reduced_words(max_len=12, rank=2):
    return raw_letters.map(lambda ls: reduce(ls[: max_len * 2], rank))


class TestReduce:
    def test_cancellation_to_identity(self):
        assert reduce([1, -1], 2) == identity(2)

    def test_nested_cancellation(self):
        assert reduce([1, 2, -2, -1, 1], 2).letters == (1,)

    def test_already_reduced_fixed_point(self):
        assert reduce([1, 2, 1], 2).letters == (1, 2, 1)

    def test_rejects_zero_letter(self):
        with pytest.raises(ValueError):
            reduce([1, 0], 2)

    def test_rejects_out_of_range_letter(self):
        with pytest.raises(ValueError):
            reduce([3], 2)

    @given(raw_letters)
    def test_idempotent(self, letters):
        once = reduce(letters, 2)
        assert reduce(once.letters, 2) == once


class TestMultiply:
    def test_inverse_pair(self):
        assert multiply(w([1, 2]), w([-2, -1])) == identity(2)

    def test_no_cancellation(self):
        assert multiply(w([1, 2]), w([2, 1])).letters == (1, 2, 2, 1)

    def test_partial_cancellation(self):
        # (aba^-1) * (ab^-1a^-1): the factors are mutual inverses, so the
        # concatenate-and-cancel oracle collapses everything.
        u, v = w([1, 2, -1]), w([1, -2, -1])
        oracle = reduce(u.letters + v.letters, 2)
        assert multiply(u, v) == oracle
        assert oracle == identity(2)

    def test_partial_cancellation_proper(self):
        # (ab, b^-1ab) cancels one letter pair on each side of the seam.
        u, v = w([1, 2]), w([-2, 1, 2])
        oracle = reduce(u.letters + v.letters, 2)
        assert multiply(u, v) == oracle
        assert oracle.letters == (1, 1, 2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            multiply(identity(2), identity(3))

    @given(raw_letters, raw_letters, raw_letters)
    def test_associative(self, a, b, c):
        u, v, x = reduce(a, 2), reduce(b, 2), reduce(c, 2)
        assert multiply(multiply(u, v), x) == multiply(u, multiply(v, x))

    @given(raw_letters)
    def test_inverse_law(self, a):
        u = reduce(a, 2)
        assert multiply(u, invert(u)) == identity(2)
        assert multiply(invert(u), u) == identity(2)


@st.composite
def seam_pairs(draw):
    """Reduced (u, v) where v starts by undoing a drawn suffix of u: none,
    part or all of u cancels, and then part of v may cancel too."""
    u = draw(reduced_words()).letters
    cut = draw(st.integers(0, len(u)))
    tail = draw(reduced_words()).letters
    v = reduce(tuple(-l for l in reversed(u[len(u) - cut :])) + tail, 2).letters
    return u, v


class TestJoin:
    """The junction-only join against reducing the whole concatenation."""

    @given(seam_pairs())
    def test_join_matches_reduce_of_concatenation(self, pair):
        u, v = pair
        oracle = reduce(u + v, 2).letters
        assert _join(u, v) == oracle
        assert multiply(Word(2, u), Word(2, v)).letters == oracle

    @given(reduced_words(), reduced_words())
    def test_full_and_partial_cancellation(self, x, y):
        u, v, uv = x.letters, y.letters, reduce(x.letters + y.letters, 2).letters
        assert _join(u, _inverse(u)) == ()
        assert _join(uv, _inverse(v)) == u
        assert _join(_inverse(u), uv) == v


class TestInvert:
    def test_identity(self):
        assert invert(identity(2)) == identity(2)

    def test_two_letters(self):
        assert invert(w([1, 2])).letters == (-2, -1)

    def test_commutator(self):
        # Reverse-and-negate oracle on aba^-1b^-1.
        u = w([1, 2, -1, -2])
        oracle = reduce([-l for l in reversed(u.letters)], 2)
        assert invert(u) == oracle
        assert oracle.letters == (2, 1, -2, -1)


class TestPower:
    def test_positive(self):
        assert power(w([1, 2]), 3).letters == (1, 2) * 3

    def test_conjugated_core(self):
        # (aba^-1)^2 = ab^2a^-1 via the repeated-multiply oracle.
        u = w([1, 2, -1])
        oracle = multiply(u, u)
        assert power(u, 2) == oracle
        assert oracle.letters == (1, 2, 2, -1)

    def test_negative(self):
        assert power(w([1]), -2).letters == (-1, -1)

    def test_zero(self):
        assert power(w([1, 2]), 0) == identity(2)

    @given(reduced_words(max_len=8), st.integers(min_value=-5, max_value=5))
    def test_matches_repeated_multiplication(self, u, k):
        expected = identity(2)
        step = u if k >= 0 else invert(u)
        for _ in range(abs(k)):
            expected = multiply(expected, step)
        assert power(u, k) == expected


class TestCyclicReduce:
    def test_single_conjugation_layer(self):
        core, t = cyclic_reduce(w([1, 2, -1]))
        assert core.letters == (2,)
        assert t.letters == (1,)

    def test_already_cyclically_reduced(self):
        core, t = cyclic_reduce(w([1, 2, -1, -2]))
        assert core == CyclicWord(2, (1, 2, -1, -2))
        assert t == identity(2)

    def test_strip_matching_ends(self):
        core, t = cyclic_reduce(w([2, 1, 1, -2]))
        assert core.letters == (1, 1)
        assert t.letters == (2,)

    @given(raw_letters)
    def test_replay(self, letters):
        u = reduce(letters, 2)
        core, t = cyclic_reduce(u)
        assert conjugate(core.as_word(), t) == u

    def test_matches_brute_force_oracle(self):
        rng = random.Random(5)
        words = [w([1, 2, 1, 2]), w([-2, 1, -2, 1, -2, 1]), w([2, 1, 2, 1, -2])]
        for _ in range(3000):
            rank = rng.randrange(2, 5)
            words.append(random_reduced_word(rng, rank, rng.randrange(0, 15)))
        for _ in range(500):
            # Periodic cores, conjugated: every rotation ties with others.
            rank = rng.randrange(2, 5)
            base = random_reduced_word(rng, rank, rng.randrange(1, 5)).letters
            if base[0] == -base[-1]:
                continue
            t = random_reduced_word(rng, rank, rng.randrange(0, 4)).letters
            inv_t = tuple(-l for l in reversed(t))
            words.append(reduce(t + base * rng.randrange(2, 5) + inv_t, rank))
        for u in words:
            core, t = cyclic_reduce(u)
            assert (core.letters, t.letters) == brute_cyclic_reduce(u.letters)
            assert conjugate(core.as_word(), t) == u


def brute_cyclic_reduce(letters):
    """Core and conjugator by trying every rotation; the first least on ties."""
    t, core = [], list(letters)
    while len(core) >= 2 and core[0] == -core[-1]:
        t.append(core.pop(0))
        core.pop()
    rotations = [core[r:] + core[:r] for r in range(len(core))] or [[]]
    keys = [tuple(letter_key(l) for l in rot) for rot in rotations]
    r = keys.index(min(keys))
    return tuple(rotations[r]), tuple(t + core[:r])


class TestConjugacy:
    def test_conjugate_of_generator(self):
        assert is_conjugate(w([1, 2, -1]), w([2]))

    def test_rotation(self):
        assert is_conjugate(w([1, 2]), w([2, 1]))

    def test_distinct_squares(self):
        # Rotation-set oracle: no rotation of aa equals bb.
        u, v = w([1, 1]), w([2, 2])
        rotations = {u.letters, (u.letters[1:] + u.letters[:1])}
        assert v.letters not in rotations
        assert not is_conjugate(u, v)

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            u = random_reduced_word(rng, 2, rng.randrange(0, 10))
            t = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert is_conjugate(u, conjugate(u, t))

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(11)
        words = [random_reduced_word(rng, 2, rng.randrange(0, 8)) for _ in range(12)]
        for u in words:
            assert is_conjugate(u, u)
            for v in words:
                assert is_conjugate(u, v) == is_conjugate(v, u)
                for x in words:
                    if is_conjugate(u, v) and is_conjugate(v, x):
                        assert is_conjugate(u, x)


class TestCyclicWord:
    def test_canonical_rotation_is_least(self):
        c = CyclicWord(2, (2, 1))
        assert c.letters == (1, 2)

    def test_rejects_non_cyclically_reduced(self):
        with pytest.raises(ValueError):
            CyclicWord(2, (1, 2, -1))

    def test_empty_allowed(self):
        assert CyclicWord(2, ()).letters == ()


class TestPrimitiveRoot:
    def test_power_detection(self):
        c, m, t = primitive_root(power(w([1, 2]), 5))
        assert (c.letters, m, t) == ((1, 2), 5, identity(2))

    def test_conjugated_power(self):
        u = conjugate(power(w([1, 1, 2]), 3), w([2, 2]))
        c, m, t = primitive_root(u)
        assert m == 3
        assert conjugate(power(c, 3), t) == u

    def test_primitive_word(self):
        c, m, t = primitive_root(w([1, 2, -1, -2]))
        assert m == 1


def test_group_laws_bulk_trials():
    # High-volume seeded sweep at the documented scale: associativity and
    # the inverse law on words up to length 40.
    rng = random.Random(2024)
    for _ in range(1000):
        u, v, x = (
            random_reduced_word(rng, 2, rng.randrange(0, 41)) for _ in range(3)
        )
        assert multiply(multiply(u, v), x) == multiply(u, multiply(v, x))
        assert multiply(u, invert(u)) == identity(2)


def test_doctests():
    import doctest

    import autqm.words

    failures, _ = doctest.testmod(autqm.words)
    assert failures == 0


def test_enumeration_order_and_count():
    words = list(enumerate_reduced_words(2, 3))
    assert len(words) == 1 + 4 + 12 + 36
    keys = [word_key(x.letters) for x in words]
    assert keys == sorted(keys)
    assert words[0] == identity(2)
    assert [x.letters for x in words[1:5]] == [(1,), (-1,), (2,), (-2,)]


class TestBreadthFirst:
    # A small directed graph whose second layer depends on the layer order.
    GRAPH = {0: [1, 2], 1: [3], 2: [3, 4], 3: [0], 4: []}

    def neighbours(self, v):
        return ((f"{v}->{u}", u) for u in self.GRAPH[v])

    def test_discovery_order(self):
        assert list(breadth_first(0, self.neighbours)) == [
            (0, None, None, 0),
            (1, 0, "0->1", 1),
            (2, 0, "0->2", 1),
            (3, 1, "1->3", 2),
            (4, 2, "2->4", 2),
        ]

    def test_order_sorts_each_layer(self):
        found = list(breadth_first(0, self.neighbours, order=lambda v: -v))
        assert found[3:] == [(3, 2, "2->3", 2), (4, 2, "2->4", 2)]

    def test_radius(self):
        assert list(breadth_first(0, self.neighbours, radius=0)) == [
            (0, None, None, 0)
        ]
        assert [v for v, *_ in breadth_first(0, self.neighbours, 1)] == [0, 1, 2]

    def test_random_graphs(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(1, 12)
            graph = {
                v: [rng.randrange(n) for _ in range(rng.randrange(0, 4))]
                for v in range(n)
            }

            def neighbours(v):
                return enumerate(graph[v])

            radius = rng.choice([None, 0, 1, 2, 3])
            order = rng.choice([None, lambda v: -v, lambda v: v % 3])
            found = list(breadth_first(0, neighbours, radius, order))
            assert found[0] == (0, None, None, 0)
            nodes = [v for v, *_ in found]
            assert len(nodes) == len(set(nodes))
            # Every node within the radius, at its distance from the root.
            distance = {}
            layer, d = [0], 0
            while layer:
                for v in layer:
                    distance.setdefault(v, d)
                layer = [u for v in layer for u in graph[v] if u not in distance]
                d += 1
            assert {v: d for v, _, _, d in found} == {
                v: d for v, d in distance.items() if radius is None or d <= radius
            }
            depths = [d for *_, d in found]
            assert depths == sorted(depths)
            for v, parent, step, d in found[1:]:
                assert graph[parent][step] == v
                assert distance[parent] == d - 1
            # Each layer is expanded in `order` (discovery order without
            # one), so the parents of the next layer come in that order.
            key = order or nodes.index
            for d in set(depths) - {0}:
                parents = [p for _, p, _, pd in found if pd == d]
                assert parents == sorted(parents, key=key)


def union_find_components(vertices, edges):
    """Component sets by union-find, in order of their first vertex."""
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    groups = {}
    for v in vertices:
        groups.setdefault(root(v), []).append(v)
    return [set(g) for g in groups.values()]


class TestComponents:
    def test_small_graph(self):
        adjacency = {3: [1], 1: [3, 4], 4: [1], 0: [], 2: [5], 5: [2]}
        assert components([3, 0, 5, 1, 2, 4], adjacency.__getitem__) == [
            [3, 1, 4],
            [0],
            [5, 2],
        ]

    def test_matches_union_find_oracle(self):
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randrange(0, 12)
            vertices = list(range(n))
            rng.shuffle(vertices)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.05, 0.15, 0.4])
            ]
            adjacency = {v: [] for v in vertices}
            for u, v in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
            found = components(vertices, adjacency.__getitem__)
            assert [set(c) for c in found] == union_find_components(vertices, edges)
            # Each component starts at its first vertex and lists every
            # vertex once, in breadth-first order: distances never fall.
            position = {v: i for i, v in enumerate(vertices)}
            for c in found:
                assert c[0] == min(c, key=position.__getitem__)
                assert len(c) == len(set(c))
                distance = {c[0]: 0}
                for _ in c:
                    for a, b in edges + [(v, u) for u, v in edges]:
                        if a in distance and distance.get(b, n) > distance[a] + 1:
                            distance[b] = distance[a] + 1
                depths = [distance[v] for v in c]
                assert depths == sorted(depths)
