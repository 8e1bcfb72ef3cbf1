import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from autqm.automorphisms import (
    Automorphism,
    AutoWitness,
    achirality_search,
    ad,
    apply,
    autocommutator,
    compose,
    compose_all,
    composite_pool,
    elementary,
    elementary_automorphisms,
    equal,
    identity_automorphism,
    inverse,
    is_finite_group,
    random_composite,
    signed_permutations,
    word_transvection,
)
from autqm.words import (
    Word,
    identity,
    invert,
    is_conjugate,
    multiply,
    power,
    random_reduced_word,
    reduce,
)


def w(letters, rank=2):
    return reduce(letters, rank)


SWAP = elementary("permutation", (2, 1), 2)
INV1 = elementary("inversion", (1,), 2)
TRANSV = elementary("transvection", (1, 2, "left"), 2)  # b -> ab


class TestElementary:
    def test_transvection_images(self):
        assert apply(TRANSV, w([2])).letters == (1, 2)
        assert apply(TRANSV, w([1])).letters == (1,)

    def test_inversion_is_involution(self):
        assert equal(compose(INV1, INV1), identity_automorphism(2))
        assert apply(INV1, w([1])).letters == (-1,)

    def test_swap_is_involution(self):
        assert apply(SWAP, w([1])).letters == (2,)
        assert equal(compose(SWAP, SWAP), identity_automorphism(2))

    def test_rejects_equal_transvection_indices(self):
        with pytest.raises(ValueError):
            elementary("transvection", (1, 1, "left"), 2)

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValueError):
            elementary("permutation", (1, 1), 2)

    def test_invalid_table_rejected(self):
        a = Word(2, (1,))
        with pytest.raises(ValueError):
            Automorphism(2, (a, a), (a, a))


class TestApply:
    def test_swap_on_commutator(self):
        # Substitute-and-reduce oracle: swap sends [a,b] to [b,a] = [a,b]^-1.
        g = w([1, 2, -1, -2])
        image = apply(SWAP, g)
        assert image.letters == (2, 1, -2, -1)
        assert image == invert(g)

    def test_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_reduced_word(rng, 2, rng.randrange(0, 15))
            assert apply(identity_automorphism(2), g) == g

    def test_transvection_on_moved_generator(self):
        assert apply(TRANSV, w([2])).letters == (1, 2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            apply(SWAP, identity(3))


class TestCompose:
    def test_compose_with_inverse_is_identity(self):
        rng = random.Random(5)
        for phi in elementary_automorphisms(2):
            assert equal(compose(phi, inverse(phi)), identity_automorphism(2))
            assert equal(compose(inverse(phi), phi), identity_automorphism(2))

    def test_double_transvection(self):
        # Apply-to-images oracle: composing b -> ab with itself gives b -> a^2 b.
        c = compose(TRANSV, TRANSV)
        assert apply(c, w([2])) == apply(TRANSV, apply(TRANSV, w([2])))
        assert apply(c, w([2])).letters == (1, 1, 2)

    def test_associativity_on_samples(self):
        rng = random.Random(9)
        for _ in range(20):
            a, b, c = (random_composite(rng, 2, 3) for _ in range(3))
            assert equal(compose(compose(a, b), c), compose(a, compose(b, c)))


class TestInverse:
    def test_identity(self):
        assert equal(inverse(identity_automorphism(2)), identity_automorphism(2))

    def test_transvection_inverse(self):
        inv = inverse(TRANSV)
        assert apply(inv, w([2])).letters == (-1, 2)
        assert equal(compose(TRANSV, inv), identity_automorphism(2))

    def test_involution_of_operation(self):
        rng = random.Random(13)
        for _ in range(20):
            phi = random_composite(rng, 2, 4)
            assert equal(inverse(inverse(phi)), phi)


class TestAd:
    def test_ad_of_identity_word(self):
        assert equal(ad(identity(2)), identity_automorphism(2))

    def test_ad_fixes_conjugator(self):
        phi = ad(w([1]))
        assert apply(phi, w([1])).letters == (1,)
        assert apply(phi, w([2])).letters == (1, 2, -1)

    def test_ad_is_homomorphism(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_reduced_word(rng, 2, rng.randrange(0, 10))
            h = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert equal(ad(multiply(g, h)), compose(ad(g), ad(h)))

    def test_conjugation_transport(self):
        # ad of an image equals the conjugated inner automorphism.
        rng = random.Random(19)
        for rank in (2, 3):
            for _ in range(100):
                phi = random_composite(rng, rank, rng.randrange(0, 7))
                g = random_reduced_word(rng, rank, rng.randrange(0, 21))
                lhs = ad(apply(phi, g))
                rhs = compose(compose(phi, ad(g)), inverse(phi))
                assert equal(lhs, rhs)


class TestAutocommutator:
    def test_transvection_witness(self):
        assert autocommutator(TRANSV, w([2])).letters == (1,)

    def test_identity_automorphism(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_reduced_word(rng, 2, rng.randrange(0, 12))
            assert autocommutator(identity_automorphism(2), g) == identity(2)

    def test_swap_on_commutator_powers(self):
        g = w([1, 2, -1, -2])
        for n in range(1, 9):
            assert autocommutator(SWAP, power(g, -n)) == power(g, 2 * n)

    def test_equivariance(self):
        # psi([phi, g]) = [psi phi psi^-1, psi(g)] on random triples.
        rng = random.Random(29)
        for rank in (2, 3):
            for _ in range(100):
                phi = random_composite(rng, rank, rng.randrange(0, 5))
                psi = random_composite(rng, rank, rng.randrange(0, 5))
                g = random_reduced_word(rng, rank, rng.randrange(0, 15))
                lhs = apply(psi, autocommutator(phi, g))
                rhs = autocommutator(
                    compose(compose(psi, phi), inverse(psi)), apply(psi, g)
                )
                assert lhs == rhs


class TestWitness:
    def test_elementary_round_trip(self):
        for phi in elementary_automorphisms(3):
            rebuilt = phi.witness.build(3)
            assert equal(rebuilt, phi)

    def test_composite_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            phi = random_composite(rng, 2, 4)
            assert equal(phi.witness.build(2), phi)

    def test_inverse_round_trip(self):
        rng = random.Random(37)
        for _ in range(20):
            phi = random_composite(rng, 3, 3)
            assert equal(inverse(phi).witness.build(3), inverse(phi))

    def test_serialization_round_trip(self):
        phi = compose(TRANSV, ad(w([1, 2])))
        again = AutoWitness.from_obj(phi.witness.to_obj()).build(2)
        assert equal(again, phi)


class TestWordTransvection:
    def test_left_multiplier(self):
        phi = word_transvection(w([1, 1, 1]), 2)
        assert autocommutator(phi, w([2])).letters == (1, 1, 1)
        assert equal(phi.witness.build(2), phi)

    def test_rejects_overlapping_support(self):
        with pytest.raises(ValueError):
            word_transvection(w([2]), 2)

    def test_right_side(self):
        phi = word_transvection(w([1, -1, 1], 3), 2, side="right")
        assert apply(phi, w([2], 3)).letters == (2, 1)
        assert equal(phi.witness.build(3), phi)


class TestAchiralitySearch:
    def test_commutator_found_via_swap(self):
        result = achirality_search(w([1, 2, -1, -2]), k_max=2, depth=1)
        assert result is not None
        phi, k = result
        assert k == 1
        assert equal(phi, SWAP)

    def test_generator_found_via_inversion(self):
        result = achirality_search(w([1]), k_max=2, depth=1)
        assert result is not None
        phi, k = result
        assert k == 1
        assert equal(phi, INV1)

    def test_depth_zero_is_empty_search(self):
        assert achirality_search(w([1]), k_max=3, depth=0) is None

    def test_witness_replays(self):
        g = w([1, 2, -1, -2])
        phi, k = achirality_search(g, k_max=2, depth=1)
        assert is_conjugate(apply(phi, power(g, k)), power(g, -k))


def power_loop_achirality(g, k_max, depth):
    """The search achirality_search ran before it tested k = 1 only: every
    composite against g^k and g^-k for each k <= k_max."""
    powers = {k: (power(g, k), power(g, -k)) for k in range(1, k_max + 1)}
    for phi in composite_pool(g.rank, depth):
        for k in range(1, k_max + 1):
            pos, neg = powers[k]
            if is_conjugate(apply(phi, pos), neg):
                return phi, k
    return None


@st.composite
def achirality_args(draw):
    rank = draw(st.sampled_from([2, 3]))
    letters = st.sampled_from([l for i in range(1, rank + 1) for l in (i, -i)])
    g = w(draw(st.lists(letters, min_size=1, max_size=8)), rank)
    depth = draw(st.integers(0, 2 if rank == 2 else 1))
    return g, draw(st.integers(1, 4)), depth


@settings(max_examples=300, deadline=None)
@given(achirality_args())
def test_achirality_agrees_with_the_power_loop(args):
    # Roots are unique in a free group, so the first composite that passes
    # any k passes k = 1, which the power loop tries first.
    g, k_max, depth = args
    assume(g)
    expected, found = power_loop_achirality(g, k_max, depth), achirality_search(g, k_max, depth)
    assert (found is None) == (expected is None)
    if found is not None:
        (phi, k), (oracle, oracle_k) = found, expected
        assert k == oracle_k == 1
        assert phi.images == oracle.images
        assert phi.witness.to_obj() == oracle.witness.to_obj()


def frontier_composite_pool(rank, depth):
    """The layer-by-layer loop composite_pool used before breadth_first."""
    elems = elementary_automorphisms(rank)
    ident = identity_automorphism(rank)
    seen = {ident.images: ident}
    pool = [ident]
    frontier = [ident]
    for _ in range(depth):
        nxt = []
        for a in frontier:
            for e in elems:
                c = compose(a, e)
                if c.images not in seen:
                    seen[c.images] = c
                    nxt.append(c)
        pool.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return pool


def oracle_is_finite_group(autos):
    """The group check before it worked on image tables: it built the
    inverse and every product as a validated Automorphism."""
    if not autos:
        return False
    rank = autos[0].rank
    table = {a.images for a in autos}
    if identity_automorphism(rank).images not in table:
        return False
    for a in autos:
        if inverse(a).images not in table:
            return False
        for b in autos:
            if compose(a, b).images not in table:
                return False
    return True


def composed_signed_permutations(rank):
    """signed_permutations as built before it wrote the image tables
    directly: each element composed from validated elementary
    automorphisms."""
    autos = []
    for perm in itertools.permutations(range(1, rank + 1)):
        base = elementary("permutation", perm, rank)
        for signs in itertools.product((1, -1), repeat=rank):
            phi = base
            for i, s in enumerate(signs, start=1):
                if s < 0:
                    phi = compose(elementary("inversion", (i,), rank), phi)
            autos.append(phi)
    return autos


class TestPools:
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_pool_matches_frontier_oracle(self, rank, depth):
        pool = composite_pool(rank, depth)
        oracle = frontier_composite_pool(rank, depth)
        assert [(a.images, a.witness) for a in pool] == [
            (a.images, a.witness) for a in oracle
        ]

    def test_pool_contains_identity_once(self):
        pool = composite_pool(2, 2)
        ident_count = sum(1 for a in pool if equal(a, identity_automorphism(2)))
        assert ident_count == 1

    def test_pool_growth_and_dedup(self):
        shallow = composite_pool(2, 1)
        assert len(shallow) == 8  # identity + 7 elementary
        keys = {a.images for a in composite_pool(2, 2)}
        assert len(keys) == len(composite_pool(2, 2))

    def test_is_finite_group(self):
        signed = signed_permutations(2)
        assert len(signed) == 8
        assert len({a.images for a in signed}) == 8
        assert is_finite_group(signed)
        assert not is_finite_group([SWAP])

    def test_is_finite_group_matches_oracle(self):
        # Groups, groups with one element dropped, a group with a
        # transvection added, and lists with a duplicate element.
        groups = [signed_permutations(r) for r in (1, 2, 3)]
        groups += [[identity_automorphism(2)], [identity_automorphism(2), SWAP]]
        cases = [(g, True) for g in groups]
        for group in groups:
            for i in range(0, len(group), 5):
                cases.append((group[:i] + group[i + 1 :], False))
            cases.append((group + [group[-1]], True))
        for rank in (2, 3):
            extra = elementary("transvection", (1, 2, "left"), rank)
            cases.append((signed_permutations(rank) + [extra], False))
        cases.append(([SWAP, SWAP], False))
        # Rank 3: every element dropped in turn, and transvections added
        # first, in the middle or last, alone or with their inverse.
        signed3 = signed_permutations(3)
        for i in range(len(signed3)):
            cases.append((signed3[:i] + signed3[i + 1 :], False))
        for params in ((1, 2, "left"), (3, 1, "right"), (2, 3, "left")):
            t = elementary("transvection", params, 3)
            cases.append(([t] + signed3, False))
            cases.append((signed3[:20] + [t] + signed3[20:], False))
            cases.append((signed3 + [t, inverse(t)], False))
        for autos, expected in cases:
            assert oracle_is_finite_group(autos) == expected
            assert is_finite_group(autos) == expected

    def test_rank_four_signed_permutations_are_a_group(self):
        signed4 = signed_permutations(4)
        assert len({a.images for a in signed4}) == 384
        assert is_finite_group(signed4)
        assert not is_finite_group(signed4[:-1])

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_signed_permutations_match_composed_oracle(self, rank):
        fast, oracle = signed_permutations(rank), composed_signed_permutations(rank)
        assert [(a.images, a.inverse_images) for a in fast] == [
            (a.images, a.inverse_images) for a in oracle
        ]
        assert [a.witness for a in fast] == [a.witness for a in oracle]

    def test_is_finite_group_rejects_mixed_ranks(self):
        with pytest.raises(ValueError):
            is_finite_group([identity_automorphism(2), identity_automorphism(3)])

    def test_constructed_autos_satisfy_round_trip(self):
        rng = random.Random(41)
        for _ in range(30):
            phi = random_composite(rng, 2, 5)
            for i in range(1, 3):
                x = Word(2, (i,))
                assert apply(inverse(phi), apply(phi, x)) == x
