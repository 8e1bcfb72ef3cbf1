"""Results built without the public checks must pass them unchanged.

Word, CyclicWord and Automorphism operations build their results through
private constructors that skip validation.  Each such result must equal,
hash like and print like its public re-construction.  (The GPWord
counterpart is TestTrustedNormalForm in test_graphprod.py.)
"""

import random

import pytest
from hypothesis import given, strategies as st

from autqm.automorphisms import (
    Automorphism,
    ad,
    apply,
    compose,
    elementary_automorphisms,
    identity_automorphism,
    inverse,
    random_composite,
    signed_permutations,
    word_transvection,
)
from autqm.words import (
    CyclicWord,
    Word,
    cyclic_reduce,
    invert,
    letter_key,
    multiply,
    power,
    primitive_root,
    reduce,
    signed_letters,
    substitute,
    word_key,
)


def assert_passes_public_check(x):
    if isinstance(x, Automorphism):
        assert type(x.images) is tuple and type(x.inverse_images) is tuple
        for w in x.images + x.inverse_images:
            assert_passes_public_check(w)
        checked = Automorphism(x.rank, x.images, x.inverse_images, x.witness)
    else:
        assert type(x.letters) is tuple
        checked = type(x)(x.rank, x.letters)
        assert checked.letters == x.letters
    assert checked == x and hash(checked) == hash(x) and repr(checked) == repr(x)


@st.composite
def rank_and_words(draw, count, max_len=12):
    rank = draw(st.integers(min_value=1, max_value=4))
    letters = st.lists(st.sampled_from(signed_letters(rank)), max_size=2 * max_len)
    return rank, [reduce(draw(letters), rank) for _ in range(count)]


class TestTrustedWords:
    @given(rank_and_words(2), st.integers(min_value=-4, max_value=4))
    def test_word_operations(self, drawn, k):
        rank, (u, v) = drawn
        core, t = cyclic_reduce(u)
        root, m, s = primitive_root(u)
        for x in (multiply(u, v), invert(u), power(u, k), core, t, core.as_word(), root, s):
            assert_passes_public_check(x)
        assert multiply(t, multiply(core.as_word(), invert(t))) == u
        assert power(root, m) == core.as_word() or not u

    @given(rank_and_words(1), st.integers(min_value=0, max_value=2**32))
    def test_substitute_and_apply(self, drawn, seed):
        rank, (w,) = drawn
        rng = random.Random(seed)
        images = [reduce(rng.choices(signed_letters(rank), k=6), rank) for _ in range(rank)]
        phi = random_composite(rng, rank, 3)
        assert_passes_public_check(substitute(images, w, rank))
        assert_passes_public_check(apply(phi, w))

    @given(st.lists(st.integers(min_value=-6, max_value=6).filter(bool), max_size=30))
    def test_word_key_matches_the_letter_key_oracle(self, letters):
        assert word_key(letters) == (len(letters), tuple(letter_key(l) for l in letters))

    def test_reduce(self):
        rng = random.Random(3)
        for _ in range(200):
            rank = rng.randint(1, 4)
            letters = rng.choices(signed_letters(rank), k=rng.randrange(30))
            assert_passes_public_check(reduce(letters, rank))


class TestTrustedAutomorphisms:
    @given(rank_and_words(2, max_len=5), st.integers(min_value=0, max_value=2**32))
    def test_automorphism_operations(self, drawn, seed):
        rank, (u, v) = drawn
        rng = random.Random(seed)
        phi, psi = (random_composite(rng, rank, rng.randrange(4)) for _ in range(2))
        j = rng.randint(1, rank)
        # A transvection multiplier must omit x_j.
        free = reduce([l for l in v.letters if abs(l) != j], rank)
        built = (compose(phi, psi), inverse(phi), ad(u), identity_automorphism(rank))
        for x in built:
            assert_passes_public_check(x)
            assert x.witness.build(rank) == x
        for side in ("left", "right"):
            x = word_transvection(free, j, side)
            assert_passes_public_check(x)
            assert x.witness.build(rank) == x

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_named_generators_and_signed_permutations(self, rank):
        for x in elementary_automorphisms(rank) + signed_permutations(rank):
            assert_passes_public_check(x)
            assert x.witness.build(rank) == x


class TestPublicConstructorsStillCheck:
    @pytest.mark.parametrize(
        "rank, letters",
        [(2, (3,)), (2, (0,)), (2, (1, -1)), (2, (1, 2, -2)), (0, ()), (1, (-2,))],
    )
    def test_word(self, rank, letters):
        with pytest.raises(ValueError):
            Word(rank, letters)
        with pytest.raises(ValueError):
            CyclicWord(rank, letters)

    @pytest.mark.parametrize("letters", [(1, 2, -1), (-2, 1, 2), (1, -1)])
    def test_cyclic_word_not_cyclically_reduced(self, letters):
        with pytest.raises(ValueError):
            CyclicWord(2, letters)

    def test_reduce(self):
        for rank, letters in [(2, (3,)), (2, (1, 0)), (0, ()), (2, (3, -3))]:
            with pytest.raises(ValueError):
                reduce(letters, rank)

    def test_automorphism_tables(self):
        a, b, ab, aB = (Word(2, ls) for ls in [(1,), (2,), (1, 2), (1, -2)])
        # x_1 -> ab, x_2 -> b is undone by x_1 -> aB, x_2 -> b.
        assert Automorphism(2, (ab, b), (aB, b)).images == (ab, b)
        for images, inverse_images in [
            ((ab, b), (ab, b)),
            ((a, a), (a, a)),
            ((a, b), (b, a)),
            ((a,), (a,)),
            ((a, b), (Word(3, (1,)), b)),
        ]:
            with pytest.raises(ValueError):
                Automorphism(2, images, inverse_images)
