import random
from fractions import Fraction

import pytest

from autqm.automorphisms import (
    Automorphism,
    ad,
    apply,
    autocommutator,
    composite_pool,
    elementary,
    equal,
    identity_automorphism,
    signed_permutations,
    word_transvection,
)
from autqm.norms import (
    Factor,
    NormResult,
    _autocommutator_base,
    _autocommutator_pool,
    _ball,
    _commutator_pool,
    _merged,
    _root_powers,
    acl_upper,
    bfs_norm,
    cl_upper,
    duality_lower_bound,
    invariant_norm_lower_bound,
    orbit_closure,
    sacl_estimate,
    transvection_witness,
)
from autqm.quasimorphisms import brooks_homogeneous, finite_average
from autqm.words import (
    Word,
    enumerate_reduced_words,
    identity,
    invert,
    multiply,
    multiply_all,
    power,
    random_reduced_word,
    reduce,
    word_key,
)


def w(letters, rank=2):
    return reduce(letters, rank)


AB = w([1, 2])
COMM = w([1, 2, -1, -2])
SWAP = elementary("permutation", (2, 1), 2)
SIGNED = signed_permutations(2)
LETTERS = orbit_closure([w([1])], SIGNED)


class TestOrbitClosure:
    def test_letter_orbit(self):
        assert {u.letters for u in LETTERS} == {(1,), (-1,), (2,), (-2,)}

    def test_trivial_group(self):
        ident = [identity_automorphism(2)]
        assert orbit_closure([AB], ident) == (AB,)

    def test_closure_is_invariant(self):
        closure = orbit_closure([AB], SIGNED)
        for a in SIGNED:
            assert {apply(a, u) for u in closure} == set(closure)

    def test_rejects_non_group(self):
        with pytest.raises(ValueError):
            orbit_closure([AB], [SWAP])


class TestBfsNorm:
    def test_identity_norm(self):
        assert bfs_norm(identity(2), LETTERS, 4).value == 0

    def test_generator_norm(self):
        result = bfs_norm(w([1]), LETTERS, 4)
        assert result.value == 1
        assert result.witness[0].value == w([1])

    def test_commutator_norm_over_letters(self):
        result = bfs_norm(COMM, LETTERS, 6)
        assert result.value == 4

    def test_letter_norm_is_length(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_reduced_word(rng, 2, rng.randrange(0, 7))
            assert bfs_norm(g, LETTERS, 8).value == len(g)

    def test_witness_replays(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 6))
            result = bfs_norm(g, LETTERS, 6)
            assert result.found()
            product = multiply_all((f.value for f in result.witness), 2)
            assert product == g
            assert len(result.witness) == result.value

    def test_cutoff(self):
        result = bfs_norm(power(w([1]), 9), LETTERS, 4)
        assert result.status == "cutoff"

    def test_unreachable_target_reports_cutoff(self):
        # b is not a power of ab, but the monoid ball of a nonempty word
        # never exhausts in a free group, so the honest answer is a cutoff
        # rather than a certificate of infinity.
        result = bfs_norm(w([2]), [AB, invert(AB)], 12)
        assert result.status == "cutoff"

    def test_infinite_flag_for_trivial_generators(self):
        result = bfs_norm(w([2]), [identity(2)], 12)
        assert result.status == "infinite"

    def test_rank_checked_before_trivial_generators_are_dropped(self):
        with pytest.raises(ValueError, match="share a rank"):
            bfs_norm(w([2]), [identity(3)], 12)

    def test_subadditivity(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 5))
            h = random_reduced_word(rng, 2, rng.randrange(0, 5))
            ng = bfs_norm(g, LETTERS, 10)
            nh = bfs_norm(h, LETTERS, 10)
            ngh = bfs_norm(multiply(g, h), LETTERS, 10)
            assert ngh.value <= ng.value + nh.value

    def test_rank_mismatch_is_rejected(self):
        # The identity target is checked too, not answered before the check.
        for g in (identity(2), w([1])):
            for gens in ([Word(3, (1,))], [w([1]), Word(3, (1,))]):
                with pytest.raises(ValueError, match="share a rank"):
                    bfs_norm(g, gens, 3)

    def test_orbit_norm_is_group_invariant(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randrange(0, 6))
            base = bfs_norm(g, LETTERS, 8).value
            for a in SIGNED:
                assert bfs_norm(apply(a, g), LETTERS, 8).value == base


def frontier_ball(root, gens, radius, step):
    """The layer-by-layer loop norms._ball used before breadth_first."""
    depth = {root: 0}
    parent = {}
    frontier = [root]
    for _ in range(radius):
        nxt = []
        for w in sorted(frontier, key=Word.key):
            for s in gens:
                t = step(w, s)
                if t not in depth:
                    depth[t] = depth[w] + 1
                    parent[t] = (w, s)
                    nxt.append(t)
        frontier = nxt
        if not frontier:
            return depth, parent, True
    return depth, parent, False


class TestBallOracle:
    def test_balls_match_frontier_oracle(self):
        # The two balls bfs_norm grows, on random targets, generating
        # sets and cutoffs, plus a finite ball (prefixes of g) that runs
        # out before its radius; dict order is the discovery order.  A
        # free group is torsion-free, so bfs_norm's balls never run out.
        rng = random.Random(37)
        for _ in range(60):
            rank = rng.choice([1, 2, 3])
            g = random_reduced_word(rng, rank, rng.randrange(0, 6))
            picks = {
                random_reduced_word(rng, rank, rng.randrange(1, 3))
                for _ in range(rng.randrange(1, 5))
            }
            gens = sorted(picks, key=Word.key)
            cutoff = rng.randrange(0, 10)
            for root, radius, step, finite in (
                (identity(rank), (cutoff + 1) // 2, multiply, False),
                (g, cutoff // 2, lambda u, s: multiply(u, invert(s)), False),
                (g, cutoff, lambda u, s: Word(rank, u.letters[:-1]), True),
            ):
                depth, parent = _ball(root, gens, radius, step)
                o_depth, o_parent, o_exhausted = frontier_ball(
                    root, gens, radius, step
                )
                assert list(depth.items()) == list(o_depth.items())
                assert [(u, parent[u]) for u in depth if u != root] == list(
                    o_parent.items()
                )
                assert finite or not o_exhausted
            result = bfs_norm(g, gens, cutoff)
            if result.found():
                product = multiply_all((f.value for f in result.witness), rank)
                assert product == g and len(result.witness) == result.value

    def test_negative_cutoff_is_rejected(self):
        with pytest.raises(ValueError):
            bfs_norm(AB, LETTERS, -1)


class TestAclUpper:
    def test_identity(self):
        assert acl_upper(identity(2)).value == 0

    def test_generator_is_single_autocommutator(self):
        result = acl_upper(w([1]))
        assert result.value == 1
        kind, phi, h = result.witness[0].provenance
        assert kind == "autocommutator"
        assert equal(phi, elementary("transvection", (1, 2, "left"), 2))
        assert h == w([2])
        assert autocommutator(phi, h) == w([1])

    def test_even_commutator_powers_via_swap(self):
        for n in (1, 2, 8):
            target = power(COMM, 2 * n)
            result = acl_upper(target)
            assert result.value == 1
            _, phi, h = result.witness[0].provenance
            assert autocommutator(phi, h) == target

    def test_witness_replays(self):
        rng = random.Random(11)
        for _ in range(15):
            u = random_reduced_word(rng, 2, rng.randrange(1, 3))
            v = random_reduced_word(rng, 2, rng.randrange(1, 3))
            g = multiply(multiply(u, v), multiply(invert(u), invert(v)))
            result = acl_upper(g, k_max=2)
            if not result.found():
                continue
            product = multiply_all((f.value for f in result.witness), 2)
            assert product == g
            for f in result.witness:
                _, phi, h = f.provenance
                assert autocommutator(phi, h) == f.value


def oracle_autocommutator_pool(g, pool_depth, elem_len):
    """The pool loop acl_upper ran on every call before the
    target-independent part was cached."""
    rank = g.rank
    autos = list(composite_pool(rank, pool_depth))
    shorts = [u for u in enumerate_reduced_words(rank, elem_len) if u]
    autos.extend(ad(u) for u in shorts)
    roots = _root_powers(g)
    for u in roots:
        for x in range(1, rank + 1):
            if x not in u.support():
                autos.append(word_transvection(u, x))
    candidates = [identity(rank)] + shorts + [r for r in roots if r not in shorts]
    pool = {}
    for phi in autos:
        for h in candidates:
            value = autocommutator(phi, h)
            if value and value not in pool:
                pool[value] = (phi, h)
    return pool


def oracle_commutator_pool(rank, len_cap):
    """The pool loop cl_upper ran on every call before it was cached."""
    pool = {}
    shorts = list(enumerate_reduced_words(rank, len_cap))
    for u in shorts:
        for v in shorts:
            value = multiply(multiply(u, v), multiply(invert(u), invert(v)))
            if value and value not in pool:
                pool[value] = (u, v)
    return pool


def provenance(entry):
    """A pool entry with each automorphism spelled out in full."""
    return tuple(
        (x.images, x.inverse_images, x.witness) if isinstance(x, Automorphism) else x
        for x in entry
    )


def pool_cases():
    """(target, pool_depth, elem_len): ranks 1-3, proper powers, and
    targets whose root powers are short words."""
    rng = random.Random(43)
    cases = [
        (w([1], rank=1), 1, 3),
        (power(w([1], rank=1), 3), 1, 3),
        (power(w([1], rank=1), -2), 2, 2),
        (power(w([1], rank=1), 5), 1, 2),
        (w([1]), 1, 3),
        (w([2, 1, -2]), 1, 3),
        (power(AB, 2), 1, 3),
        (power(COMM, 2), 1, 3),
        (w([2, 1, 1, 2, 1, 1, -2]), 1, 3),
        (power(w([1, -2, -2]), 3), 2, 2),
        (w([1, 2, 1]), 2, 2),
        (power(AB, 2), 1, 2),
        (w([1, 2], rank=3), 1, 3),
        (power(w([1, 3, -2], rank=3), 2), 1, 3),
        (w([3], rank=3), 2, 2),
        (power(w([2, -3], rank=3), 3), 2, 2),
        (power(w([1, 2], rank=3), 2), 1, 2),
        # ad(u) fixes the root powers that are powers of u: empty values
        (power(w([1]), 4), 1, 3),
        (power(w([1, 2]), 3), 1, 2),
        # transvections by root powers that omit a letter skip the short
        # words without that letter
        (power(w([1, -2], rank=3), 2), 1, 2),
        (power(w([2, 2, 1], rank=3), 2), 2, 2),
    ]
    for rank, pool_depth, elem_len in ((2, 1, 3), (2, 2, 2), (3, 1, 2)):
        for _ in range(6):
            g = random_reduced_word(rng, rank, rng.randrange(1, 5))
            cases.append((power(g, rng.choice([1, 2, 3])), pool_depth, elem_len))
    return cases


class TestPoolOracles:
    def test_autocommutator_pool_matches_oracle(self):
        replaced = 0
        for g, pool_depth, elem_len in pool_cases():
            own, base, order, added = _autocommutator_pool(g, pool_depth, elem_len)
            assert base is _autocommutator_base(g.rank, pool_depth, elem_len)[3]
            pool = {**base, **own}  # own entries are read before the base
            oracle = oracle_autocommutator_pool(g, pool_depth, elem_len)
            oracle = {v.letters: e for v, e in oracle.items()}
            assert pool.keys() == oracle.keys()
            assert {v: provenance(e) for v, e in pool.items()} == {
                v: provenance(e) for v, e in oracle.items()
            }
            assert set(added) == own.keys() - base.keys()
            assert list(_merged(order, added)) == sorted(oracle, key=word_key)
            replaced += sum(v in base and own[v] != base[v] for v in own)
        # Some root-power pairs beat a cached pair to the same value, so
        # the first-wins rule across the two parts is exercised.
        assert replaced > 0

    def test_cases_cover_proper_powers_and_short_roots(self):
        cases = pool_cases()
        assert {g.rank for g, _, _ in cases} == {1, 2, 3}
        assert any(
            _root_powers(g)
            and set(_root_powers(g)) <= set(enumerate_reduced_words(g.rank, e))
            for g, _, e in cases
        )
        for rank in (1, 2, 3):
            assert any(
                g.rank == rank and len(_root_powers(g)) >= 4 for g, _, _ in cases
            )
        # ad(u) sends a root power longer than elem_len to the empty value
        assert any(
            g.rank > 1 and multiply(u, r) == multiply(r, u)
            for g, _, e in cases
            for r in _root_powers(g)
            if len(r) > e
            for u in enumerate_reduced_words(g.rank, e)
            if u
        )
        # a root power omits a letter, so its transvections skip words
        assert any(
            len(_root_powers(g)[0].support()) < g.rank for g, _, _ in cases if _root_powers(g)
        )

    @pytest.mark.parametrize("rank, len_cap", [(1, 3), (2, 1), (2, 3), (3, 2)])
    def test_commutator_pool_matches_oracle(self, rank, len_cap):
        pool, order = _commutator_pool(rank, len_cap)
        oracle = {v.letters: e for v, e in oracle_commutator_pool(rank, len_cap).items()}
        assert pool == oracle
        assert list(order) == sorted(oracle, key=word_key)


def oracle_product_search(pool, g, k_max, kind):
    """The search over one eager Word.key order of the whole pool: k <= 2
    walks all of it, deeper levels only its first 256 values."""
    order = sorted(pool, key=Word.key)

    def peel(sub, g, k):
        if k == 1:
            return (g,) if g in pool else None
        for t in sub:
            tail = peel(sub, multiply(invert(t), g), k - 1)
            if tail is not None:
                return (t,) + tail
        return None

    for k in range(1, k_max + 1):
        found = peel(order if k <= 2 else order[:256], g, k)
        if found is not None:
            factors = tuple(Factor(t, (kind, *pool[t])) for t in found)
            return NormResult("exact", k, k_max, factors)
    return NormResult("cutoff", None, k_max, None)


def canonical(result):
    """A NormResult with every automorphism in its witness spelled out."""
    witness = result.witness
    if witness is not None:
        witness = tuple((f.value, provenance(f.provenance)) for f in witness)
    return (result.status, result.value, result.cutoff, witness)


class TestPoolCaches:
    def test_results_do_not_depend_on_cache_state(self):
        rng = random.Random(47)
        words = [w([1]), COMM, power(AB, 2), w([1, 3, -2], rank=3)]
        words += [random_reduced_word(rng, 2, rng.randrange(2, 7)) for _ in range(4)]
        words.append(random_reduced_word(rng, 3, 4))

        def run(g):
            sacl = sacl_estimate(g, 2)
            return (
                canonical(acl_upper(g)),
                canonical(cl_upper(g, len_cap=2)),
                sacl.upper,
                tuple((n, canonical(r)) for n, r in sacl.trace),
            )

        _autocommutator_base.cache_clear()
        _commutator_pool.cache_clear()
        cold = {g: run(g) for g in words}
        warm = {g: run(g) for g in reversed(words)}
        assert cold == warm
        assert _autocommutator_base.cache_info().misses == 2
        assert _autocommutator_base.cache_info().currsize == 2
        assert _commutator_pool.cache_info().misses == 2
        assert _commutator_pool.cache_info().currsize == 2


class TestSubpoolSearch:
    """k_max = 3 draws the leading factors from the first 256 merged values."""

    ACL = [  # rank 2, pool_depth 1, elem_len 2: a pool of about 190 values
        w([-1, 2, 2, -1, -2, -2, 1, -2, 1]),
        w([-2, -2, 1, -2, 1, 1, -2, 1]),
        w([-2, -2, -2, -1, -2, -1]),
        w([2, 2, 2, -1, -2, 1, 2, 2, 1, 2, 2, 2]),
        w([1, 2, 2, 2, 1, 2, 2, 2]),
        w([1, 2, 1, 2, 2, 1]),
    ]
    CL = [  # rank 2, len_cap 3: a pool of 1488 values
        w([2, 1, 2, -1, -2, 1, 1, 2, -1, -2, -2, -2, -1, 2]),
        w([-1, 2, 2, -1, -2, -2, 1, 1, 2, -1, -2, -1, 2, 1, 1, 1, 1, -2, -1, -1]),
    ]

    def test_acl_upper_matches_the_oracle(self):
        leading_added = 0
        for g in self.ACL:
            result = acl_upper(g, pool_depth=1, elem_len=2, k_max=3)
            pool = oracle_autocommutator_pool(g, 1, 2)
            assert canonical(result) == canonical(
                oracle_product_search(pool, g, 3, "autocommutator")
            )
            added = set(_autocommutator_pool(g, 1, 2)[3])
            leading_added += any(f.value.letters in added for f in (result.witness or ())[:-1])
        assert [acl_upper(g, 1, 2, 3).value for g in self.ACL] == [3, 3, 3, None, 3, 3]
        # The subpool holds values added for the target, and witnesses lead
        # with them.
        assert leading_added >= 1

    def test_cl_upper_matches_the_oracle(self):
        pool = oracle_commutator_pool(2, 3)
        assert len(pool) > 256
        for g in self.CL:
            result = cl_upper(g, len_cap=3, k_max=3)
            assert result.value == 3
            assert canonical(result) == canonical(
                oracle_product_search(pool, g, 3, "commutator")
            )


class TestClUpper:
    def test_commutator(self):
        result = cl_upper(COMM, len_cap=1, k_max=2)
        assert result.value == 1

    def test_identity(self):
        assert cl_upper(identity(2)).value == 0

    def test_rank_one_has_no_commutators_at_any_depth(self):
        # The pool is empty, so the search stops at level 3, not at k_max.
        result = cl_upper(Word(1, (1,)), len_cap=1, k_max=10**12)
        assert (result.status, result.cutoff) == ("cutoff", 10**12)

    def test_ordering_against_acl(self):
        rng = random.Random(13)
        done = 0
        while done < 30:
            parts = []
            for _ in range(rng.randrange(1, 3)):
                u = random_reduced_word(rng, 2, rng.randrange(1, 3))
                v = random_reduced_word(rng, 2, rng.randrange(1, 3))
                parts.append(
                    multiply(multiply(u, v), multiply(invert(u), invert(v)))
                )
            g = multiply_all(parts, 2)
            cl = cl_upper(g, len_cap=2, k_max=2)
            acl = acl_upper(g, pool_depth=1, elem_len=2, k_max=2)
            if cl.found() and acl.found():
                assert acl.value <= cl.value
                done += 1


class TestTransvectionWitness:
    def test_basic_replay(self):
        phi, word = transvection_witness(w([1]), 2, 3)
        assert autocommutator(phi, word) == power(w([1]), 3)

    def test_zero_power(self):
        phi, word = transvection_witness(w([1]), 2, 0)
        assert equal(phi, identity_automorphism(2))
        assert autocommutator(phi, word) == identity(2)

    def test_rank_three(self):
        phi, word = transvection_witness(w([1, 2], rank=3), 3, 2)
        assert autocommutator(phi, word) == power(w([1, 2], rank=3), 2)

    def test_rejects_overlapping_generator(self):
        with pytest.raises(ValueError):
            transvection_witness(w([1, 2]), 2, 1)

    def test_witness_rebuilds(self):
        phi, _ = transvection_witness(w([1]), 2, 4)
        assert equal(phi.witness.build(2), phi)


class TestSacl:
    def test_identity(self):
        estimate = sacl_estimate(identity(2), 4)
        assert estimate.upper == 0
        assert estimate.lower == 0

    def test_commutator_upper_shrinks(self):
        estimate = sacl_estimate(COMM, 16)
        assert estimate.upper is not None
        assert estimate.upper <= Fraction(1, 16)

    def test_free_factor_element_upper_shrinks(self):
        estimate = sacl_estimate(w([1]), 16)
        assert estimate.upper <= Fraction(1, 16)

    def test_lower_not_merged_for_restricted_invariance(self):
        avg = finite_average(brooks_homogeneous(AB), SIGNED)
        estimate = sacl_estimate(w([1, 1, 2]), 2, family=[avg])
        assert estimate.lower == 0
        assert estimate.restricted_lower == duality_lower_bound(avg, w([1, 1, 2]))

    def test_lower_le_upper_on_samples(self):
        rng = random.Random(17)
        avg = finite_average(brooks_homogeneous(AB), SIGNED)
        for _ in range(10):
            g = random_reduced_word(rng, 2, rng.randrange(1, 5))
            estimate = sacl_estimate(g, 6, family=[avg])
            if estimate.upper is not None:
                assert estimate.lower <= estimate.upper

    def test_trace_records_every_power(self):
        estimate = sacl_estimate(COMM, 5)
        assert [n for n, _ in estimate.trace] == [1, 2, 3, 4, 5]


class TestInvariantNormBound:
    def test_zero_evaluator_rejected_when_defectless(self):
        from autqm.quasimorphisms import zero, FreeGroupDomain

        z = zero(FreeGroupDomain(2))
        with pytest.raises(ValueError):
            invariant_norm_lower_bound(z, [w([1])], AB)

    def test_bound_holds_against_exact_norm(self):
        rng = random.Random(19)
        avg = finite_average(brooks_homogeneous(AB), SIGNED)
        gens = [w([1]), w([2])]
        closure = orbit_closure(gens, SIGNED)
        for _ in range(50):
            g = random_reduced_word(rng, 2, rng.randrange(0, 7))
            norm = bfs_norm(g, closure, 8)
            bound = invariant_norm_lower_bound(avg, gens, g)
            assert bound <= norm.value

    def test_requires_certificate(self):
        with pytest.raises(ValueError):
            invariant_norm_lower_bound(brooks_homogeneous(AB), [w([1])], AB)

    def test_nonzero_bound_grows_linearly(self):
        ident = identity_automorphism(2)
        avg = finite_average(brooks_homogeneous(AB), [ident, SWAP])
        base = w([1, 1, 2])
        gens = [w([1]), w([2])]
        bounds = [invariant_norm_lower_bound(avg, gens, power(base, m)) for m in (1, 2, 4)]
        assert bounds[0] > 0
        assert bounds[1] == 2 * bounds[0]
        assert bounds[2] == 4 * bounds[0]
        closure = orbit_closure(gens, [ident, SWAP])
        for m, bound in zip((1, 2, 4), bounds):
            norm = bfs_norm(power(base, m), closure, 3 * 4 + 1)
            assert bound <= norm.value
