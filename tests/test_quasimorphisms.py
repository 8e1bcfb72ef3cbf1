import functools
import random
from fractions import Fraction

import pytest

from autqm.automorphisms import (
    ad,
    apply,
    compose,
    elementary,
    identity_automorphism,
    inverse,
    signed_permutations,
)
from autqm.quasimorphisms import (
    FreeGroupDomain,
    ProductDomain,
    brooks,
    brooks_defect_exact,
    brooks_homogeneous,
    build_quasimorphism,
    check_invariance,
    defect_enumerate,
    finite_average,
    homogenise_numeric,
    linear_combination,
    product_average,
    pullback,
    zero,
    _orbit_table,
    _table_count,
)
from autqm.words import (
    Word,
    conjugate,
    cyclic_reduce,
    enumerate_reduced,
    identity,
    invert,
    multiply,
    power,
    random_reduced_word,
    reduce,
    substitute,
    word_key,
)


def w(letters, rank=2):
    return reduce(letters, rank)


AB = w([1, 2])
COMM = w([1, 2, -1, -2])
SWAP = elementary("permutation", (2, 1), 2)


class TestBrooks:
    def test_overlapping_count(self):
        f = brooks(AB)
        assert f(w([1, 2, 1, 2])) == 2

    def test_inverse_pattern_counts_negatively(self):
        f = brooks(w([1]))
        assert f(w([-1, -1, -1])) == -3

    def test_zero_on_identity(self):
        assert brooks(AB)(identity(2)) == 0

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            brooks(identity(2))

    def test_exponent_sum_is_homomorphism(self):
        cert = defect_enumerate(brooks(w([1])), 3)
        assert cert.value == 0

    def test_rejects_word_of_another_rank(self):
        with pytest.raises(ValueError, match=r"rank mismatch: 2 != 3"):
            brooks(AB)(Word(3, (1, 2, 3)))
        with pytest.raises(ValueError, match=r"rank mismatch: 2 != 1"):
            brooks(AB)(Word(1, (1,)))


class TestBrooksHomogeneous:
    def test_commutator_value(self):
        assert brooks_homogeneous(AB)(COMM) == 1

    def test_vanishes_on_disjoint_generator(self):
        assert brooks_homogeneous(AB)(w([1])) == 0

    def test_antisymmetry(self):
        rng = random.Random(3)
        f = brooks_homogeneous(AB)
        for _ in range(50):
            g = random_reduced_word(rng, 2, rng.randrange(0, 12))
            assert f(invert(g)) == -f(g)

    def test_homogeneity(self):
        rng = random.Random(5)
        f = brooks_homogeneous(w([1, 2, -1]))
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 8))
            for k in (-3, -1, 2, 5):
                assert f(power(g, k)) == k * f(g)

    def test_conjugacy_invariance(self):
        rng = random.Random(7)
        f = brooks_homogeneous(AB)
        for _ in range(100):
            g = random_reduced_word(rng, 2, rng.randrange(0, 10))
            t = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert f(conjugate(g, t)) == f(g)

    def test_rejects_word_of_another_rank(self):
        with pytest.raises(ValueError, match=r"rank mismatch: 2 != 3"):
            brooks_homogeneous(AB)(Word(3, (1, 2, 3)))


class TestHomogeniseNumeric:
    def test_exponent_sum_converges_immediately(self):
        f = brooks(w([1]))
        for n in (1, 4, 16):
            estimate, err = homogenise_numeric(f, w([1]), n)
            assert estimate == 1
            assert err == Fraction(f.defect_bound, n)

    def test_sandwich_for_commutator(self):
        f = brooks(AB)
        fh = brooks_homogeneous(AB)
        for n in (8, 16, 64):
            estimate, err = homogenise_numeric(f, COMM, n)
            assert abs(estimate - fh(COMM)) <= err

    def test_zero_element(self):
        estimate, _ = homogenise_numeric(brooks(AB), identity(2), 8)
        assert estimate == 0

    def test_requires_defect_bound(self):
        f = brooks(AB)
        unbounded = type(f)(
            domain=f.domain,
            evaluate=f.evaluate,
            defect_bound=None,
            homogeneous=False,
            provenance=("brooks", 2, (1, 2)),
        )
        with pytest.raises(ValueError):
            homogenise_numeric(unbounded, AB, 4)


class TestDefect:
    def test_range_zero_sees_only_identity(self):
        cert = defect_enumerate(brooks(AB), 0)
        assert cert.value == 0

    def test_monotone_in_range(self):
        f = brooks(AB)
        values = [defect_enumerate(f, n).value for n in (0, 1, 2, 3)]
        assert values == sorted(values)

    def test_enumerated_witness_replays(self):
        f = brooks(AB)
        cert = defect_enumerate(f, 3)
        g, h = cert.witness
        assert abs(f(g) + f(h) - f(g * h)) == cert.value

    def test_exact_seam_defect_matches_enumeration(self):
        # Pattern of length 2: every witness class is realised by words of
        # length <= 3, so plain enumeration at 3 must agree exactly.
        exact = brooks_defect_exact(AB)
        assert exact.bound_type == "exact"
        assert exact.value == defect_enumerate(brooks(AB), 3).value
        g, h = exact.witness
        f = brooks(AB)
        assert abs(f(g) + f(h) - f(g * h)) == exact.value

    def test_exact_seam_defect_dominates_enumeration(self):
        pattern = w([1, 2, -1, 2])
        exact = brooks_defect_exact(pattern)
        f = brooks(pattern)
        assert defect_enumerate(f, 2).value <= exact.value
        g, h = exact.witness
        assert abs(f(g) + f(h) - f(g * h)) == exact.value

    def test_exact_defect_of_homomorphism_is_zero(self):
        assert brooks_defect_exact(w([1])).value == 0

    def test_seam_equals_naive_enumeration_for_longer_pattern(self):
        # Independent exhaustive check of the seam-locality argument on a
        # mixed-sign pattern: every witness class of a length-3 pattern is
        # realised by words of length <= 5.
        pattern = w([1, 2, -1])
        exact = brooks_defect_exact(pattern)
        naive = defect_enumerate(brooks(pattern), 5)
        assert exact.value == naive.value


def push(images, g, rank):
    """The substitution pullback used before words.substitute: one
    multiply per letter of g."""
    out = Word(rank, ())
    for l in g.letters:
        piece = images[abs(l) - 1]
        out = multiply(out, piece if l > 0 else invert(piece))
    return out


class TestPullback:
    def test_substitution_matches_push_oracle(self):
        rng = random.Random(41)
        for _ in range(400):
            source, target = rng.randrange(1, 5), rng.randrange(1, 5)
            images = [
                random_reduced_word(rng, target, rng.randrange(0, 5))
                for _ in range(source)
            ]
            pattern = random_reduced_word(rng, target, rng.randrange(1, 4))
            f = rng.choice([brooks, brooks_homogeneous])(pattern)
            p = pullback(f, images)
            for _ in range(5):
                g = random_reduced_word(rng, source, rng.randrange(0, 12))
                pushed = push(images, g, target)
                assert substitute(images, g, target) == pushed
                assert p(g) == f(pushed)

    def test_identity_pullback(self):
        rng = random.Random(9)
        f = brooks_homogeneous(AB)
        p = pullback(f, [w([1]), w([2])])
        for _ in range(100):
            g = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert p(g) == f(g)

    def test_kill_last_generator(self):
        f = brooks_homogeneous(w([1]))
        p = pullback(f, [w([1]), w([2]), identity(2)], source_rank=3)
        assert p(w([3], rank=3)) == 0
        assert p(w([1], rank=3)) == 1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            pullback(brooks(AB), [identity(3)])

    def test_rejects_word_of_another_rank(self):
        # A longer word used to index past the image table; a shorter one
        # was evaluated without complaint.
        p = pullback(brooks(AB), [w([1]), w([2])])
        with pytest.raises(ValueError, match=r"rank mismatch: 2 != 3"):
            p(Word(3, (1, 2, 3)))
        q = pullback(brooks(AB), [w([1]), w([2]), AB], source_rank=3)
        with pytest.raises(ValueError, match=r"rank mismatch: 3 != 2"):
            q(AB)


class TestFiniteAverage:
    def test_singleton_group_is_identity_operation(self):
        rng = random.Random(11)
        f = brooks_homogeneous(AB)
        avg = finite_average(f, signed_permutations(2)[:1])
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert avg(g) == f(g)

    def test_signed_permutation_average_vanishes_on_generator(self):
        avg = finite_average(brooks_homogeneous(AB), signed_permutations(2))
        assert avg(w([1])) == 0

    def test_exact_invariance(self):
        rng = random.Random(13)
        group = signed_permutations(2)
        avg = finite_average(brooks_homogeneous(AB), group)
        report = check_invariance(
            avg,
            group,
            [random_reduced_word(rng, 2, rng.randrange(0, 10)) for _ in range(50)],
        )
        assert report.ok()

    def test_idempotence(self):
        rng = random.Random(17)
        group = signed_permutations(2)
        once = finite_average(brooks_homogeneous(AB), group)
        twice = finite_average(once, group)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 8))
            assert once(g) == twice(g)

    def test_swap_average_is_not_identically_zero(self):
        # The order-8 signed-permutation average of this pattern cancels
        # identically, but the order-2 swap average does not.
        from autqm.automorphisms import identity_automorphism

        avg = finite_average(
            brooks_homogeneous(AB), [identity_automorphism(2), SWAP]
        )
        assert avg(w([1, 1, 2])) == 1

    def test_full_signed_average_of_short_pattern_cancels(self):
        # The orbit of a two-letter pattern under all signed permutations
        # is closed under inversion, so the average collapses pointwise;
        # callers needing a nonzero invariant evaluator must use longer
        # patterns or smaller groups.
        rng = random.Random(41)
        avg = finite_average(brooks_homogeneous(AB), signed_permutations(2))
        for _ in range(40):
            g = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert avg(g) == 0

    def test_rejects_non_group(self):
        with pytest.raises(ValueError):
            finite_average(brooks(AB), [SWAP, ad(w([1]))])


class TestProductAverage:
    def test_degenerate_case_is_original(self):
        rng = random.Random(19)
        f = brooks_homogeneous(AB)
        pa = product_average(f, 1, 1)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 8))
            assert pa((g,)) == f(g)

    def test_restriction_identity(self):
        rng = random.Random(23)
        f = brooks_homogeneous(AB)
        pa = product_average(f, 2, 3)
        e = identity(2)
        for _ in range(100):
            g = random_reduced_word(rng, 2, rng.randrange(0, 10))
            assert pa((g, e, e)) == f(g)

    def test_permutation_invariance(self):
        import itertools

        rng = random.Random(29)
        f = brooks_homogeneous(AB)
        pa = product_average(f, 3, 3)
        for _ in range(30):
            t = tuple(
                random_reduced_word(rng, 2, rng.randrange(0, 6)) for _ in range(3)
            )
            base = pa(t)
            for perm in itertools.permutations(range(3)):
                assert pa(tuple(t[i] for i in perm)) == base

    def test_defect_bound_scales(self):
        f = brooks(AB)
        assert product_average(f, 2, 3).defect_bound == 2 * f.defect_bound

    def test_bad_k(self):
        with pytest.raises(ValueError):
            product_average(brooks(AB), 0, 3)


class TestCheckInvariance:
    def test_conjugation_invariance_of_homogenisation(self):
        rng = random.Random(31)
        f = brooks_homogeneous(AB)
        conjugations = [
            ad(random_reduced_word(rng, 2, rng.randrange(0, 8))) for _ in range(10)
        ]
        samples = [random_reduced_word(rng, 2, rng.randrange(0, 10)) for _ in range(30)]
        assert check_invariance(f, conjugations, samples).ok()

    def test_swap_violation_found(self):
        f = brooks_homogeneous(AB)
        report = check_invariance(f, [SWAP], [COMM])
        assert not report.ok()
        assert report.violations[0][2] == -1
        assert report.violations[0][3] == 1


class TestSerialization:
    def test_round_trip_evaluates_identically(self):
        rng = random.Random(37)
        f = finite_average(brooks_homogeneous(AB), signed_permutations(2))
        rebuilt = build_quasimorphism(f.provenance)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 8))
            assert rebuilt(g) == f(g)

    def test_product_round_trip(self):
        f = product_average(brooks(AB), 2, 3)
        rebuilt = build_quasimorphism(f.provenance)
        t = (AB, COMM, identity(2))
        assert rebuilt(t) == f(t)

    def test_linear_combination(self):
        f = linear_combination([(Fraction(1, 2), brooks(AB)), (2, brooks(w([1])))])
        assert f(AB) == Fraction(1, 2) + 2
        rebuilt = build_quasimorphism(f.provenance)
        assert rebuilt(AB) == f(AB)

    def test_coefficient_forms(self):
        # Integers and signed "p" or "p/q" strings; the library writes these.
        sub = brooks(AB).provenance
        f = build_quasimorphism(("linear_combination", ((3, sub), ("-1/2", sub), ("+2", sub))))
        assert f(AB) == Fraction(9, 2) * brooks(AB)(AB)

    @pytest.mark.parametrize(
        "spec",
        [
            ("linear_combination", (("1.5", ("zero", ("free", 2))),)),
            ("linear_combination", (("1e3", ("zero", ("free", 2))),)),
            ("zero", ("free", 0)),
            ("zero", ("free", True)),
            ("zero", ("product", 0, 2)),
            ("zero", ("product", 2, "3")),
        ],
    )
    def test_rejects_bad_coefficients_and_sizes(self, spec):
        with pytest.raises(ValueError):
            build_quasimorphism(spec)


class TestExactness:
    def test_values_are_fractions(self):
        f = finite_average(brooks_homogeneous(AB), signed_permutations(2))
        assert isinstance(f(COMM), Fraction)

    def test_float_evaluators_rejected(self):
        from autqm.quasimorphisms import Quasimorphism

        bad = Quasimorphism(
            domain=FreeGroupDomain(2),
            evaluate=lambda g: 0.5,
            defect_bound=Fraction(1),
            homogeneous=False,
            provenance=("zero", ("free", 2)),
        )
        with pytest.raises(TypeError):
            bad(AB)

    def test_zero_quasimorphism(self):
        z = zero(ProductDomain(2, 3))
        assert z((AB, AB, AB)) == 0
        assert z.aut_invariant


# Oracles: the counting closures and the exact defect as they were before
# counting functions became pattern tables.


def oracle_count(haystack, needle):
    n = len(needle)
    if n == 0 or n > len(haystack):
        return 0
    return sum(
        1 for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle
    )


def oracle_periodic_count(core, pattern):
    if not core:
        return 0
    repeats = 1 + (len(pattern) + len(core) - 1) // len(core)
    window = core * repeats
    return sum(
        1 for p in range(len(core)) if window[p : p + len(pattern)] == pattern
    )


def oracle_brooks(pattern):
    anti = invert(pattern).letters
    return lambda g: oracle_count(g.letters, pattern.letters) - oracle_count(
        g.letters, anti
    )


def oracle_brooks_homogeneous(pattern):
    anti = invert(pattern).letters

    def evaluate(g):
        core = cyclic_reduce(g)[0].letters
        return oracle_periodic_count(core, pattern.letters) - oracle_periodic_count(
            core, anti
        )

    return evaluate


def oracle_average(f, autos):
    weight = Fraction(1, len(autos))
    return lambda g: weight * sum(f(apply(a, g)) for a in autos)


def oracle_defect_exact(w):
    """The seam enumeration with the cancelled part c up to len(w)."""
    pattern, anti = w.letters, invert(w).letters
    rank, ell = w.rank, len(w)
    shorts = list(enumerate_reduced(rank, ell - 1))
    longs = list(enumerate_reduced(rank, ell))

    @functools.cache
    def value(t):
        return oracle_count(t, pattern) - oracle_count(t, anti)

    best, witness, witness_key = 0, ((), ()), None
    for c in longs:
        cinv = tuple(-l for l in reversed(c))
        for u in shorts:
            if u and c and u[-1] == -c[0]:
                continue
            for v in shorts:
                if (c and v and v[0] == c[0]) or (u and v and u[-1] == -v[0]):
                    continue
                d = abs(value(u + c) + value(cinv + v) - value(u + v))
                if d < best:
                    continue
                g, h = u + c, cinv + v
                key = (word_key(g), word_key(h))
                if d > best or (witness_key is not None and key < witness_key):
                    best, witness, witness_key = d, (g, h), key
    return best, (Word(rank, witness[0]), Word(rank, witness[1])), 2 * ell - 1


def small_groups(rank):
    groups = {
        "signed": signed_permutations(rank),
        "trivial": [identity_automorphism(rank)],
    }
    if rank == 2:
        groups["swap"] = [identity_automorphism(2), SWAP]
    return groups


def random_words(rng, rank, count, max_len=12):
    return [Word(rank, ())] + [
        random_reduced_word(rng, rank, rng.randrange(0, max_len)) for _ in range(count)
    ]


class TestPatternTables:
    def test_counting_matches_closures(self):
        rng = random.Random(43)
        for rank in (1, 2, 3):
            for _ in range(40):
                pattern = random_reduced_word(rng, rank, rng.randrange(1, 6))
                count, homog = brooks(pattern), brooks_homogeneous(pattern)
                want_count = oracle_brooks(pattern)
                want_homog = oracle_brooks_homogeneous(pattern)
                # Includes the empty word and words shorter than the pattern.
                for g in random_words(rng, rank, 10, max_len=len(pattern) + 8):
                    assert count(g) == want_count(g)
                    assert homog(g) == want_homog(g)

    def test_letter_permuting_averages_match_closure(self):
        rng = random.Random(47)
        for rank in (1, 2, 3):
            for name, group in small_groups(rank).items():
                for _ in range(6):
                    pattern = random_reduced_word(rng, rank, rng.randrange(1, 5))
                    for build in (brooks, brooks_homogeneous):
                        f = build(pattern)
                        avg, want = finite_average(f, group), oracle_average(f, group)
                        for g in random_words(rng, rank, 8):
                            assert avg(g) == want(g), (rank, name, pattern, g)

    def test_rank_four_signed_average_matches_closure(self):
        rng = random.Random(53)
        group = signed_permutations(4)
        for pattern in (Word(4, (1, 2, -3)), Word(4, (4, 1, 4))):
            for build in (brooks, brooks_homogeneous):
                f = build(pattern)
                avg, want = finite_average(f, group), oracle_average(f, group)
                for g in random_words(rng, 4, 3, max_len=20):
                    assert avg(g) == want(g)

    def test_orbit_table_counts_each_image(self):
        # One automorphism at a time: brooks(p)(a(g)) counts a^-1(p) in g,
        # and rank 3 has signed permutations of order 3 where a != a^-1.
        rng = random.Random(59)
        for rank in (2, 3):
            for a in signed_permutations(rank):
                pattern = random_reduced_word(rng, rank, rng.randrange(1, 4))
                table, m = _orbit_table(pattern, [a]), len(pattern)
                f, fh = brooks(pattern), brooks_homogeneous(pattern)
                for g in random_words(rng, rank, 4):
                    assert _table_count(table, m, g.letters, False) == f(apply(a, g))
                    assert _table_count(table, m, g.letters, True) == fh(apply(a, g))

    def test_other_inputs_keep_the_general_average(self):
        # A group that does not permute letters, and averages of pullbacks,
        # combinations and averages, whose provenance has "brooks" deeper.
        rng = random.Random(61)
        for rank in (2, 3):
            t = elementary("transvection", (1, 2, "left"), rank)
            signed = signed_permutations(rank)
            conjugated = [compose(compose(t, a), inverse(t)) for a in signed]
            for _ in range(4):
                pattern = random_reduced_word(rng, rank, rng.randrange(2, 4))
                images = [
                    random_reduced_word(rng, rank, rng.randrange(1, 4)) for _ in range(rank)
                ]
                inputs = [
                    (brooks(pattern), conjugated),
                    (brooks_homogeneous(pattern), conjugated),
                    (pullback(brooks(pattern), images), signed),
                    (pullback(brooks_homogeneous(pattern), images), signed),
                    (linear_combination([(2, brooks(pattern))]), signed),
                    (finite_average(brooks(pattern), signed), signed),
                ]
                for f, group in inputs:
                    avg, want = finite_average(f, group), oracle_average(f, group)
                    for g in random_words(rng, rank, 6, max_len=8):
                        assert avg(g) == want(g), (f.provenance, g)

    def test_repeated_automorphism_is_rejected(self):
        group = signed_permutations(2)
        with pytest.raises(ValueError, match="twice"):
            finite_average(brooks(AB), group + [group[3]])
        with pytest.raises(ValueError, match="twice"):
            finite_average(pullback(brooks(AB), [AB, w([2])]), group + [group[0]])

    def test_ranks_must_match(self):
        with pytest.raises(ValueError, match="domain"):
            finite_average(brooks(AB), signed_permutations(3))
        for build in (brooks, brooks_homogeneous):
            for group in (signed_permutations(2), [SWAP, identity_automorphism(2)]):
                with pytest.raises(ValueError, match="rank mismatch"):
                    finite_average(build(AB), group)(Word(3, (1, 2, 3)))


class TestExactDefectSeam:
    def check(self, pattern):
        cert = brooks_defect_exact(pattern)
        got = (cert.value, cert.witness, cert.enumeration_range)
        assert got == oracle_defect_exact(pattern)

    def test_rank_two_up_to_length_three(self):
        for letters in enumerate_reduced(2, 3):
            if letters:
                self.check(Word(2, letters))

    def test_rank_three_up_to_length_two(self):
        for letters in enumerate_reduced(3, 2):
            if letters:
                self.check(Word(3, letters))

    def test_sample_of_rank_two_length_four(self):
        rng = random.Random(67)
        for _ in range(10):
            self.check(random_reduced_word(rng, 2, 4))
