import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import pytest

from autqm.automorphisms import (
    apply,
    compose_all,
    elementary,
    elementary_automorphisms,
    equal,
    identity_automorphism,
    inverse,
    random_composite,
    signed_permutations,
)
from autqm import whitehead
from autqm.cli import parse_word
from autqm.whitehead import (
    in_proper_free_factor,
    is_primitive,
    minimize,
    whitehead_graph,
)
from autqm.words import (
    CutoffExceeded,
    CyclicWord,
    Word,
    breadth_first,
    cyclic_reduce,
    enumerate_reduced,
    enumerate_reduced_words,
    random_reduced_word,
    reduce,
    signed_letters,
)


def w(letters, rank=2):
    return reduce(letters, rank)


def orbit_min_length_oracle(word, slack=3):
    """Minimal cyclic length in the Aut-orbit, by brute BFS over Nielsen moves.

    Independent of the Whitehead machinery: applies elementary
    automorphisms only, never Whitehead moves, with a hard length cap.
    """
    elems = elementary_automorphisms(word.rank)
    start = cyclic_reduce(word)[0]
    cap = len(start) + slack
    seen = {start}
    queue = deque([start])
    best = len(start)
    while queue:
        c = queue.popleft()
        for phi in elems:
            image = cyclic_reduce(apply(phi, c.as_word()))[0]
            if len(image) > cap or image in seen:
                continue
            seen.add(image)
            best = min(best, len(image))
            queue.append(image)
    return best


@functools.cache
def type_two_autos(rank):
    """Whitehead automorphisms of the second kind, composed and validated.

    For a multiplier letter a and a cut set Y containing a but not a^-1,
    the automorphism fixes a and sends every other generator x to
    a^{-[x^-1 in Y]} * x * a^{[x in Y]}.  Each is assembled from letter
    transvections and checked by the Automorphism round trip; the move
    table in src/ is built from the formula and must agree, in order.
    """
    letters = signed_letters(rank)
    autos = []
    for a in letters:
        others = [x for x in range(1, rank + 1) if x != abs(a)]
        rest = [l for l in letters if abs(l) != abs(a)]
        for member in itertools.product((False, True), repeat=len(rest)):
            pieces = []
            chosen = {l for l, m in zip(rest, member) if m}
            for x in others:
                if x in chosen:
                    pieces.append(_right_mult(a, x, rank))
                if -x in chosen:
                    pieces.append(_left_mult(a, x, rank))
            autos.append(compose_all(pieces, rank))
    return autos


def _right_mult(a, x, rank):
    # x -> x * a for a signed letter a with |a| != x.
    base = elementary("transvection", (abs(a), x, "right"), rank)
    return base if a > 0 else inverse(base)


def _left_mult(a, x, rank):
    # x -> a^-1 * x for a signed letter a with |a| != x.
    base = elementary("transvection", (abs(a), x, "left"), rank)
    return inverse(base) if a > 0 else base


def _cyclic_image(phi, c):
    return cyclic_reduce(apply(phi, c.as_word()))[0]


def _descend(autos, w):
    """Steepest descent that applies every Automorphism of autos to the
    current word at each step; the least index wins ties."""
    current = cyclic_reduce(w)[0]
    trace = []
    while len(current) > 0:
        best = None
        for idx, phi in enumerate(autos):
            image = _cyclic_image(phi, current)
            if len(image) < len(current) and (best is None or len(image) < best[0]):
                best = (len(image), idx, image)
        if best is None:
            break
        _, idx, image = best
        trace.append((autos[idx], image.as_word()))
        current = image
    return current, trace


@functools.cache
def whitehead_autos(rank):
    """The full finite set of Whitehead automorphisms, deduplicated.

    Deterministic order: type I first (signed permutations in canonical
    order), then type II by multiplier letter and cut set.  The descent in
    src/ skips type I, which never changes cyclic length; the level sets
    below need it to stay closed.
    """
    seen = {}
    for phi in signed_permutations(rank) + type_two_autos(rank):
        if phi.images not in seen:
            seen[phi.images] = phi
    return tuple(seen.values())


@dataclass(frozen=True)
class OrbitLevel:
    """All minimal-length cyclic words connected by length-preserving moves."""

    words: frozenset[CyclicWord]

    def length(self) -> int:
        return len(next(iter(self.words))) if self.words else 0


def min_orbit_level(w: Word, max_size: int = 20000) -> OrbitLevel:
    """BFS closure of the minimal level set under Whitehead moves.

    Raises CutoffExceeded if the level set would exceed max_size; a
    truncated set must never be used for the predicates below.
    """
    autos = whitehead_autos(w.rank)
    start = _descend(autos, w)[0]

    def moves(c: CyclicWord):
        for phi in autos:
            image = _cyclic_image(phi, c)
            if len(image) == len(start):
                yield phi, image

    level = []
    for c, *_ in breadth_first(start, moves, order=lambda c: c.letters):
        level.append(c)
        if len(level) > max_size:
            raise CutoffExceeded(
                f"orbit level set exceeded {max_size} words", len(level)
            )
    return OrbitLevel(frozenset(level))


def cyclic_classes(rank, max_len):
    """Every nontrivial conjugacy class up to max_len, once each."""
    classes = {}
    for letters in enumerate_reduced(rank, max_len):
        if letters and letters[0] != -letters[-1]:
            classes.setdefault(CyclicWord(rank, letters), None)
    return list(classes)


@functools.cache
def level_set_answers(rank, max_len):
    """Each orbit-minimal class up to max_len, mapped to the oracle's answer.

    A class is orbit-minimal when no Whitehead move shortens it; these
    are exactly the words that _descend reaches from the classes up to
    max_len.  The answer is the level-set criterion: some word of the
    minimal level set omits a basis generator in both signs.  Each level
    set is searched once and answers for all of its words.
    """
    autos = whitehead_autos(rank)
    answers = {}
    for c in cyclic_classes(rank, max_len):
        if c in answers or any(
            len(_cyclic_image(phi, c)) < len(c) for phi in autos
        ):
            continue
        level = min_orbit_level(c.as_word()).words
        omits = any(len({abs(l) for l in x.letters}) < rank for x in level)
        answers.update(dict.fromkeys(level, omits))
    return answers


class TestWhiteheadAutos:
    def test_type_one_count_rank_two(self):
        assert len(signed_permutations(2)) == 8

    def test_identity_appears_once(self):
        autos = whitehead_autos(2)
        assert sum(1 for a in autos if equal(a, identity_automorphism(2))) == 1

    def test_round_trip_witnesses(self):
        for phi in whitehead_autos(2):
            assert equal(phi.witness.build(2), phi)

    def test_type_two_shape(self):
        # One automorphism per (multiplier, cut) pair before deduplication.
        assert len(type_two_autos(2)) == 4 * 4
        assert len(type_two_autos(3)) == 6 * 16

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_move_table_matches_oracle(self, rank):
        # The images come from the defining formula, the oracle from
        # validated compositions: same moves in the same order.
        oracle = type_two_autos(rank)
        assert list(whitehead._type_two_images(rank)) == [
            phi.images for phi in oracle
        ]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_chosen_move_matches_oracle(self, rank):
        # The automorphism built for a chosen move is the oracle's entry at
        # the same index, witness and inverse images included.
        oracle = type_two_autos(rank)
        moves = whitehead._type_two_moves(rank)
        assert len(moves) == len(oracle)
        for key, expected in zip(moves, oracle):
            phi = whitehead._type_two_auto(rank, *key)
            assert phi.images == expected.images, key
            assert phi.inverse_images == expected.inverse_images, key
            assert phi.witness == expected.witness, key

    def test_table_built_once_per_rank(self):
        whitehead._type_two_images.cache_clear()
        for letters in ([1, 2, 2], [1, -2, 3, 3], [3, 1, 2, -1]):
            minimize(w(letters, rank=3))
        info = whitehead._type_two_images.cache_info()
        assert info.misses == 1 and info.hits >= 2

    def test_descent_matches_full_table(self):
        # Skipping type I must not move a trace: same moves, witnesses and
        # results as the descent over the full deduplicated table.

        def moves(trace):
            return [(phi.images, phi.witness, result) for phi, result in trace]

        for rank, max_len in ((2, 30), (3, 16), (4, 10)):
            rng = random.Random(rank)
            for _ in range(40):
                word = random_reduced_word(rng, rank, rng.randrange(1, max_len + 1))
                minimal, trace = minimize(word)
                expected, expected_trace = _descend(whitehead_autos(rank), word)
                assert minimal == expected.as_word(), word
                assert moves(trace) == moves(expected_trace), word


class TestMinimize:
    def test_primitive_with_exponent(self):
        minimal, trace = minimize(w([1, 2, 2]))
        assert len(minimal) == 1
        assert trace

    def test_commutator_already_minimal(self):
        minimal, trace = minimize(w([1, 2, -1, -2]))
        assert len(minimal) == 4
        assert trace == []

    def test_single_letter(self):
        assert minimize(w([1]))[0].letters == (1,)

    def test_trace_replays(self):
        rng = random.Random(3)
        for _ in range(20):
            word = random_reduced_word(rng, 2, rng.randrange(1, 10))
            minimal, trace = minimize(word)
            current = cyclic_reduce(word)[0]
            for phi, result in trace:
                current = cyclic_reduce(apply(phi, current.as_word()))[0]
                assert current.as_word() == result
            assert current.as_word() == minimal

    def test_matches_brute_force_orbit_minimum(self):
        for word in enumerate_reduced_words(2, 5):
            if not word:
                continue
            assert len(minimize(word)[0]) == orbit_min_length_oracle(word)

    def test_aut_invariance_of_minimal_length(self):
        rng = random.Random(5)
        for rank in (2, 3):
            for _ in range(50):
                word = random_reduced_word(rng, rank, rng.randrange(1, 13))
                phi = random_composite(rng, rank, rng.randrange(0, 4))
                assert len(minimize(word)[0]) == len(minimize(apply(phi, word))[0])


class TestOrbitLevel:
    def test_basis_letter_level(self):
        level = min_orbit_level(w([1]))
        assert CyclicWord(2, (1,)) in level.words
        assert level.words == {
            CyclicWord(2, (1,)),
            CyclicWord(2, (-1,)),
            CyclicWord(2, (2,)),
            CyclicWord(2, (-2,)),
        }

    def test_commutator_level_contains_both_orientations(self):
        level = min_orbit_level(w([1, 2, -1, -2]))
        assert CyclicWord(2, (1, 2, -1, -2)) in level.words
        assert CyclicWord(2, (2, 1, -2, -1)) in level.words

    def test_level_is_closed_under_moves(self):
        level = min_orbit_level(w([1, 1, 2, 2]))
        autos = whitehead_autos(2)
        length = level.length()
        for c in level.words:
            for phi in autos:
                image = cyclic_reduce(apply(phi, c.as_word()))[0]
                if len(image) == length:
                    assert image in level.words


class TestPredicates:
    def test_primitive_examples(self):
        assert is_primitive(w([1]))
        assert is_primitive(w([1, 2, 2]))
        assert not is_primitive(w([1, 1]))
        assert not is_primitive(w([1, 2, -1, -2]))

    def test_primitive_rejects_identity(self):
        with pytest.raises(ValueError):
            is_primitive(w([]))

    def test_free_factor_examples(self):
        assert in_proper_free_factor(w([2]))
        assert not in_proper_free_factor(w([1, 2, -1, -2]))
        assert in_proper_free_factor(w([1, 1, 2], rank=3))

    def test_primitive_implies_free_factor_membership(self):
        for word in [w([1]), w([1, 2]), w([1, 2, 2])]:
            assert is_primitive(word)
            assert in_proper_free_factor(word)


def exponent_sums(letters):
    return tuple(sum((l == x) - (l == -x) for l in letters) for x in (1, 2))


def christoffel_primitive(word):
    """Rank-2 primitivity by Christoffel words, with no Whitehead move.

    Primitive elements of F(a, b) with exponent sums (p, q) exist iff p
    and q are coprime, and then they form one conjugacy class: that of the
    Christoffel word with |p| letters a^sign(p) and |q| letters b^sign(q),
    whose i-th letter is b exactly when floor(i |q| / n) steps up (Osborne
    and Zieschang, "Primitives in the free group on two generators",
    Invent. Math. 1981).  So the cyclically reduced core must be a
    rotation of that word.
    """
    core = cyclic_reduce(word)[0].letters
    p, q = exponent_sums(core)
    n = abs(p) + abs(q)
    if math.gcd(p, q) != 1 or len(core) != n:
        return False
    a, b = (1 if p > 0 else -1), (2 if q > 0 else -2)
    steps = (i * abs(q) // n > (i - 1) * abs(q) // n for i in range(1, n + 1))
    christoffel = tuple(b if step else a for step in steps)
    return any(core[r:] + core[:r] == christoffel for r in range(n))


def nielsen_primitive(rng, low, high):
    """A random word of length low..high in the orbit of a, conjugated."""
    moves = elementary_automorphisms(2)
    while True:
        word = w([rng.choice([1, 2])])
        while len(word) < low:
            word = apply(rng.choice(moves), word)
        if len(word) <= high:
            t = random_reduced_word(rng, 2, rng.randrange(3))
            return reduce(t.letters + word.letters + tuple(-l for l in reversed(t.letters)), 2)


class TestChristoffelOracle:
    """is_primitive at rank 2 against the Christoffel-word criterion."""

    def test_every_word_up_to_length_7(self):
        words = [Word(2, letters) for letters in enumerate_reduced(2, 7) if letters]
        assert sum(christoffel_primitive(u) for u in words) > 100
        for u in words:
            assert is_primitive(u) == christoffel_primitive(u), u

    def test_seeded_long_words(self):
        rng = random.Random(61)
        words = [nielsen_primitive(rng, 20, 60) for _ in range(100)]
        words += [random_reduced_word(rng, 2, rng.randrange(20, 61)) for _ in range(100)]
        # Coprime exponent sums alone do not make a word primitive.
        assert sum(math.gcd(*exponent_sums(u.letters)) == 1 for u in words[100:]) > 30
        for u in words:
            assert is_primitive(u) == christoffel_primitive(u), u
        assert all(map(christoffel_primitive, words[:100]))


class TestFreeFactorRule:
    """The graph rule against the level-set oracle, class by class."""

    def test_rank_two_matches_oracle(self):
        answers = level_set_answers(2, 8)
        autos = whitehead_autos(2)
        classes = cyclic_classes(2, 8)
        assert len(classes) == 1386
        for c in classes:
            minimal = _descend(autos, c.as_word())[0]
            assert in_proper_free_factor(c.as_word()) == answers[minimal], c

    @pytest.mark.parametrize(
        "rank, max_len, count", [(2, 8, 750), (3, 6, 706), (4, 3, 24)]
    )
    def test_minimal_graph_decides(self, rank, max_len, count):
        answers = level_set_answers(rank, max_len)
        assert len(answers) == count
        for minimal, expected in answers.items():
            graph = whitehead_graph(minimal.as_word())
            assert (not graph.connected) == expected, minimal
            assert not (graph.connected and graph.has_cut_vertex), minimal

    def test_word_with_a_large_level_set(self):
        # Its minimal level set has 15 840 words; the rule needs one descent.
        assert not in_proper_free_factor(parse_word("aaabCCacaabAACCC", 3))


class TestWhiteheadGraph:
    def test_commutator_certificate(self):
        graph = whitehead_graph(w([1, 2, -1, -2]))
        assert graph.connected
        assert not graph.has_cut_vertex

    def test_square_graph(self):
        graph = whitehead_graph(w([1, 1]))
        assert graph.edges == ((1, -1), (1, -1))
        assert not graph.connected

    def test_two_letter_word_graph(self):
        # Direct construction: the cyclic word ab contributes the two
        # edges {a^-1, b} and {a, b^-1}, which leave the graph on all four
        # letters disconnected.
        graph = whitehead_graph(w([1, 2]))
        assert graph.edges == ((1, -2), (-1, 2))
        assert not graph.connected

    def test_every_rotation_gives_the_same_graph(self):
        for letters in ((1, 2), (1, 2, -1, -2), (1, 1, 2), (1, 2, 2, -1, -2, 3)):
            graphs = {
                whitehead_graph(Word(3, letters[i:] + letters[:i]))
                for i in range(len(letters))
            }
            assert len(graphs) == 1

    def test_rejects_non_cyclically_reduced(self):
        with pytest.raises(ValueError):
            whitehead_graph(w([1, 2, -1]))

    def test_certificate_consistency(self):
        # Whenever the graph of the minimal word is connected without a
        # cut vertex, the free-factor predicate must say "no".
        for word in enumerate_reduced_words(2, 5):
            if not word:
                continue
            minimal = minimize(word)[0]
            if not minimal:
                continue
            graph = whitehead_graph(minimal)
            if graph.connected and not graph.has_cut_vertex:
                assert not in_proper_free_factor(word)
