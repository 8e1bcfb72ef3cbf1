"""Each bounded search counts its own size from its arguments.

With the cap set to a search's size, the search runs; one below it, the
search raises CutoffExceeded before building anything.  The counts do not
depend on the cached pools, so a cold and a warm call end the same way;
the Whitehead move table is checked once per rank, when it is built.
"""

from unittest import mock

import pytest

import time

from autqm import words
from autqm.automorphisms import achirality_search, composite_pool, signed_permutations
from autqm.cli import main
from autqm.graphprod import GraphProductDomain, VertexGraph
from autqm.norms import (
    _autocommutator_base,
    _commutator_pool,
    acl_upper,
    bfs_norm,
    cl_upper,
    sacl_estimate,
)
from autqm.quasimorphisms import brooks, brooks_defect_exact, defect_enumerate, zero
from autqm.whitehead import _type_two_images, _type_two_moves, is_primitive
from autqm.words import CutoffExceeded, Word, power

A, B, AB = Word(2, (1,)), Word(2, (2,)), Word(2, (1, 2))
A40 = power(A, 40)
AAB = Word(2, (1, 1, 2))
EMPTY = Word(2, ())
DIHEDRAL = GraphProductDomain(VertexGraph.build([2, 2], []))  # its ball of radius 8 has 17 elements

# (cap, size, call).  At rank 2, composite_count(2, 1) is 7 + 7 = 14 and
# count_reduced(2, 1) is 5.  The base pool of depth 1 and short words of
# length 1 pairs 14 + 4 automorphisms with 4 words, 72 pairs; a target
# adds 2m root powers with each of the 18 automorphisms, and for each
# letter it omits, 2m transvections with the 2 short words using it.
SEARCHES = {
    "power": ("MAX_POWER_LETTERS", 6, lambda: power(AB, -3)),
    "composite_pool": ("MAX_SEARCH_SIZE", 14, lambda: composite_pool(2, 1)),
    # One conjugacy test per composite, whatever k_max is.
    "achirality_tests": ("MAX_SEARCH_SIZE", 14, lambda: achirality_search(AB, 2, 1)),
    # The 2n 4^(n-1) Whitehead moves of the second kind at rank 2.
    "type_two_moves": ("MAX_SEARCH_SIZE", 2 * 2 * 4, lambda: is_primitive(AB)),
    "autocommutator_base": ("MAX_SEARCH_SIZE", 72, lambda: acl_upper(AB, 1, 1)),
    # a^40: 80 root powers with 18 automorphisms, 80 transvections with 2 words.
    "autocommutator_pool": ("MAX_SEARCH_SIZE", 80 * 18 + 80 * 2, lambda: acl_upper(A40, 1, 1)),
    "commutator_pool": ("MAX_SEARCH_SIZE", 5 * 5, lambda: cl_upper(AB, 1)),
    # The forward ball of radius 2 over two generators: 1 + 2 + 4 words.
    "bfs_norm": ("MAX_SEARCH_SIZE", 7, lambda: bfs_norm(AB, [A, B], 4)),
    # Over ab alone: 3 words of at most 2 generators' 2 letters each.
    "bfs_norm_letters": ("MAX_POWER_LETTERS", 3 * 2 * 2, lambda: bfs_norm(B, [AB], 4)),
    "signed_permutations": ("MAX_SEARCH_SIZE", 2**3 * 6, lambda: signed_permutations(3)),
    # a is no product of commutators, so level 3 runs: it peels the 8
    # commutators of letters, then the 8 again (the pool's 25 pairs pass).
    "product_search_level": ("MAX_SEARCH_SIZE", 8**2, lambda: cl_upper(A, 1, 3)),
    # The base once, then (1 + 2) times ab's 2 root powers with 18 automorphisms.
    "sacl_powers": ("MAX_SEARCH_SIZE", 72 + 3 * 36, lambda: sacl_estimate(AB, 2, 1, 1)),
    # a^40's one power: its search and its own pairs count the most.
    "sacl_last_power": ("MAX_SEARCH_SIZE", 1 + 1600, lambda: sacl_estimate(A40, 1, 1, 1)),
    # The empty word has no pairs of its own, but each power is a search.
    "sacl_searches": ("MAX_SEARCH_SIZE", 100, lambda: sacl_estimate(EMPTY, 100, 1, 1)),
    # Every pair of the 17 words of length at most 2.
    "defect_enumerate": ("MAX_SEARCH_SIZE", 17**2, lambda: defect_enumerate(brooks(AB), 2)),
    "defect_enumerate_gp": ("MAX_SEARCH_SIZE", 17**2, lambda: defect_enumerate(zero(DIHEDRAL), 8)),
    # The (u, v) table over the 17 words of length at most len("aab") - 1.
    "brooks_defect_exact": ("MAX_SEARCH_SIZE", 17**2, lambda: brooks_defect_exact(AAB)),
}


def outcome(call):
    try:
        return call()
    except CutoffExceeded:
        return CutoffExceeded


CACHES = (_autocommutator_base, _commutator_pool, _type_two_moves, _type_two_images)


def cold(call):
    for cache in CACHES:
        cache.cache_clear()
    return outcome(call)


@pytest.fixture(autouse=True)
def clear_pools():
    yield
    for cache in CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_a_search_of_the_cap_runs_and_one_past_it_is_a_cutoff(monkeypatch, name):
    cap, size, call = SEARCHES[name]
    monkeypatch.setattr(words, cap, size)
    first = cold(call)
    assert first is not CutoffExceeded
    assert outcome(call) == first  # warm
    monkeypatch.setattr(words, cap, size - 1)
    assert cold(call) is CutoffExceeded
    assert outcome(call) is CutoffExceeded


def test_a_warm_base_pool_does_not_skip_the_check(monkeypatch):
    acl_upper(AB, 1, 1)  # built under the real cap
    monkeypatch.setattr(words, "MAX_SEARCH_SIZE", 71)
    with pytest.raises(CutoffExceeded):
        acl_upper(AB, 1, 1)


def test_the_empty_word_counts_its_pools_too(monkeypatch):
    monkeypatch.setattr(words, "MAX_SEARCH_SIZE", 71)
    for call in (lambda: acl_upper(EMPTY, 1, 1), lambda: sacl_estimate(EMPTY, 3, 1, 1)):
        assert cold(call) is CutoffExceeded
    monkeypatch.setattr(words, "MAX_SEARCH_SIZE", 72)
    assert acl_upper(EMPTY, 1, 1).value == 0


@pytest.mark.parametrize(
    "step, size, call",
    [
        ("_autocommutator_base", 1600, lambda: acl_upper(A40, 1, 1)),
        # a^40's one power has 1600 pairs of its own, more than 72 + 1440.
        ("acl_upper", 1 + 1600, lambda: sacl_estimate(A40, 1, 1, 1)),
    ],
    ids=["autocommutator_pool", "sacl_estimate"],
)
def test_the_check_comes_before_the_first_step(monkeypatch, step, size, call):
    monkeypatch.setattr(words, "MAX_SEARCH_SIZE", size - 1)
    with mock.patch(f"autqm.norms.{step}", side_effect=AssertionError):
        with pytest.raises(CutoffExceeded):
            call()


def test_an_endless_domain_is_cut_off_after_the_cap_root(monkeypatch):
    # The ball of radius 10^6 is never listed: the enumeration stops one
    # element past the square root of the cap.
    path = GraphProductDomain(VertexGraph.build([0, 0, 0], [(0, 1), (1, 2)]))
    listed = []
    ball = GraphProductDomain.elements

    def listing(domain, radius):
        for x in ball(domain, radius):
            listed.append(x)
            yield x

    monkeypatch.setattr(GraphProductDomain, "elements", listing)
    with pytest.raises(CutoffExceeded):
        defect_enumerate(zero(path), 10**6)
    assert len(listed) == 548  # isqrt(3 * 10**5) + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["qm", "defect", "--pattern", "ab", "--max-len", "6"],
        ["qm", "defect", "--pattern", "abcab", "--exact"],
        ["qm", "defect", "--pattern", "ab", "--homog", "--max-len", "40"],
    ],
)
def test_oversized_defects_exit_3_at_once(capsys, argv):
    # Each ran past 30 s before its size was checked.
    started = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - started < 1
    assert '"cutoff": true' in capsys.readouterr().err


class Reached(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ["qm", "defect", "--pattern", "ab", "--max-len", "5"],
        ["qm", "defect", "--pattern", "aabab", "--exact"],
        ["qm", "defect", "--pattern", "abbab", "--exact"],
    ],
)
def test_defects_within_the_bound_pass_their_check(monkeypatch, argv):
    # The largest sizes under the cap; stopped right after the check.
    check = words.check_size

    def check_then_stop(size):
        check(size)
        raise Reached

    monkeypatch.setattr(words, "check_size", check_then_stop)
    with pytest.raises(Reached):
        main(argv)


def test_a_huge_rank_is_a_cutoff_before_its_move_count_is_built():
    # 4^(n-1) for n = 10^9 would be a 250 MB integer.
    started = time.perf_counter()
    with pytest.raises(CutoffExceeded):
        is_primitive(Word(10**9, (1,)))
    assert time.perf_counter() - started < 1
