"""Word norms, autocommutator length search, and duality lower bounds.

Exact norms are computed by bidirectional breadth-first search over
finite generating sets.  Autocommutator and commutator length searches
return upper bounds with replayable witnesses: their generating sets are
infinite, so a finite search can fail to find the optimum but can never
undershoot it.  The only unconditional lower bounds are 0 and 1, plus the
duality bounds derived from invariant quasimorphisms.  Each search counts
its pairs or ball words from its arguments first (words.check_size).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .automorphisms import (
    Automorphism,
    ad,
    apply,
    composite_count,
    composite_pool,
    identity_automorphism,
    is_finite_group,
    word_transvection,
)
from .quasimorphisms import Quasimorphism
from .words import (
    Word,
    _inverse,
    _join,
    _series,
    breadth_first,
    check_size,
    conjugate,
    count_reduced,
    enumerate_reduced_words,
    identity,
    invert,
    multiply,
    power,
    primitive_root,
    word_key,
)

# Leading factors of products of three or more are drawn from this many
# shortest pool values.
_SUBPOOL_SIZE = 256


@dataclass(frozen=True)
class Factor:
    """One factor of a norm witness: the word used and where it came from."""

    value: Word
    provenance: tuple = ()


@dataclass(frozen=True)
class NormResult:
    """Outcome of a norm computation.

    status 'exact' carries the norm and a witness of exactly that length;
    'cutoff' means the value exceeds the given cutoff; 'infinite' means
    the generators are all trivial, so a nontrivial target is out of reach.
    """

    status: str  # "exact" | "cutoff" | "infinite"
    value: Optional[int] = None
    cutoff: Optional[int] = None
    witness: Optional[tuple[Factor, ...]] = None

    def found(self) -> bool:
        return self.status == "exact"


def orbit_closure(
    words: Sequence[Word], autos: Sequence[Automorphism]
) -> tuple[Word, ...]:
    """Closure of a finite word set under a finite automorphism group."""
    autos = tuple(autos)
    if not is_finite_group(autos):
        raise ValueError("orbit closure needs a finite group of automorphisms")
    out = {apply(a, s) for a in autos for s in words}
    return tuple(sorted(out, key=Word.key))


def bfs_norm(g: Word, gens: Sequence[Word], cutoff: int) -> NormResult:
    """Exact word norm over a finite generating set, up to the cutoff.

    Bidirectional search: forward ball from the identity, backward ball
    from g (peeling generators off the right), meeting in the middle.
    Ties between witnesses of minimal length break lexicographically.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    rank = g.rank
    if any(s.rank != rank for s in gens):
        raise ValueError("generating set and target must share a rank")
    # The forward ball: |gens|^d words of at most d generators' letters at depth d.
    radius = (cutoff + 1) // 2
    words = _series(1, len(set(gens)), radius + 1)
    check_size(words)
    check_size(words * radius * max(map(len, gens), default=0), letters=True)
    gens = sorted({s for s in gens if s}, key=Word.key)
    if not g:
        return NormResult("exact", 0, cutoff, ())
    if not gens:
        return NormResult("infinite", None, cutoff, None)

    # A nontrivial subgroup of a free group is infinite, so neither ball runs
    # out before its radius, and the radii sum to the cutoff.
    df, fparent = _ball(identity(rank), gens, radius, multiply)
    db, bparent = _ball(
        g, gens, cutoff // 2, lambda w, s: multiply(w, invert(s))
    )

    meets = df.keys() & db.keys()
    if not meets:
        return NormResult("cutoff", None, cutoff, None)
    best = min(df[w] + db[w] for w in meets)

    def witness_of(meet: Word) -> tuple[Factor, ...]:
        left = _path(df, fparent, meet)
        left.reverse()
        return tuple(Factor(s) for s in left + _path(db, bparent, meet))

    candidates = sorted(
        (w for w in meets if df[w] + db[w] == best),
        key=Word.key,
    )
    witness = min(
        (witness_of(w) for w in candidates),
        key=lambda ws: tuple(f.value.key() for f in ws),
    )
    return NormResult("exact", best, cutoff, witness)


def _ball(
    root: Word, gens: Sequence[Word], radius: int, step: Callable[[Word, Word], Word]
) -> tuple[dict[Word, int], dict[Word, tuple[Word, Word]]]:
    """Breadth-first ball around root under step(w, s) for s in gens.

    Returns depths and parent links (w, s) ((None, None) at the root).
    """
    depth: dict[Word, int] = {}
    parent: dict[Word, tuple[Word, Word]] = {}
    search = breadth_first(
        root, lambda w: ((s, step(w, s)) for s in gens), radius, Word.key
    )
    for w, up, gen, d in search:
        depth[w] = d
        parent[w] = (up, gen)
    return depth, parent


def _path(depth: dict, parent: dict, w: Word) -> list[Word]:
    """Generators along the parent links from w back to the ball's root."""
    steps = []
    while depth[w]:
        w, s = parent[w]
        steps.append(s)
    return steps


def _root_powers(g: Word) -> list[Word]:
    """Conjugated powers of the primitive root of g, natural witness guesses."""
    root, m, t = primitive_root(g)  # m is 0 for the empty word
    out = []
    for j in range(1, m + 1):
        for sign in (1, -1):
            out.append(conjugate(power(root, sign * j), t))
    return out


@functools.cache
def _autocommutator_base(
    rank: int, pool_depth: int, elem_len: int
) -> tuple[tuple[Automorphism, ...], tuple[tuple, ...], tuple[Word, ...], Mapping, tuple]:
    """The part of the autocommutator pool that does not depend on the target.

    Returns the automorphisms (composites of elementary automorphisms up
    to pool_depth, then inner automorphisms by short words), the composites'
    letter tables, the short words, the values of those pairs keyed by
    letters (the first automorphism, then the first word, wins), read-only,
    and the keys sorted by word_key.  Built once per parameter set.
    """
    shorts = tuple(u for u in enumerate_reduced_words(rank, elem_len) if u)
    autos = tuple(composite_pool(rank, pool_depth)) + tuple(ad(u) for u in shorts)
    tables = tuple(map(_letter_table, autos[: len(autos) - len(shorts)]))
    pool: dict[tuple, tuple[Automorphism, Word]] = {}
    _add_pairs(pool, {}, autos, tables, shorts, shorts)
    return autos, tables, shorts, MappingProxyType(pool), tuple(sorted(pool, key=word_key))


def _letter_table(phi: Automorphism) -> tuple[tuple[int, ...], ...]:
    """The image letters of every signed letter l under phi, at index l."""
    images = [w.letters for w in phi.images]
    return tuple([()] + images + [_inverse(x) for x in reversed(images)])


def _pool_pairs(g: Word, pool_depth: int, elem_len: int) -> tuple[int, int, int]:
    """At most how many pairs the base pool builds, and how many g's pool adds
    to it: g's 2m root powers (g an m-th power) with each automorphism, and
    their transvections of each x outside g with the short words using x."""
    shorts = count_reduced(g.rank, elem_len) - 1
    autos = composite_count(g.rank, pool_depth) + shorts
    using = shorts + 1 - count_reduced(g.rank - 1, elem_len)
    roots = 2 * primitive_root(g)[1]
    return autos * shorts, roots * autos, roots * (g.rank - len(g.support())) * using


def _add_pairs(
    own: dict, base: Mapping, autos: Sequence[Automorphism], tables: Sequence[tuple],
    shorts: Sequence[Word], hs: Sequence[Word],
) -> list[tuple]:
    """Add phi(h) h^-1 for phi in autos, then h in hs, to own on top of base,
    keyed by letters.  A value keeps its first pair; one already held is
    earlier unless it comes from a later phi.  phi(h) folds tables[i] with
    _join; autos ends with ad(u) for u in shorts: u h u^-1 h^-1 is 3 joins."""
    inner = len(autos) - len(shorts)
    position = {id(phi): i for i, phi in enumerate(autos)}
    pairs = [(h, h.letters, _inverse(h.letters)) for h in hs]
    for i, phi in enumerate(autos):
        u = shorts[i - inner].letters if i >= inner else ()
        uinv = _inverse(u)
        for h, letters, inverse in pairs:
            if i < inner:
                image = ()
                for l in letters:
                    image = _join(image, tables[i][l])
                value = _join(image, inverse)
            else:
                value = _join(_join(u, letters), _join(uinv, inverse))
            if not value:
                continue
            held = own.get(value) or base.get(value)
            if held is not None and position.get(id(held[0]), -1) <= i:
                continue
            own[value] = (phi, h)


def _autocommutator_pool(
    g: Word, pool_depth: int, elem_len: int
) -> tuple[dict, Mapping, tuple, list[tuple]]:
    """g's own entries over the cached base, the base's letter keys by
    word_key, and the keys only g's entries hold, by length.

    The pool combines composites of elementary automorphisms up to
    pool_depth, inner automorphisms by short words, and transvections by
    conjugated root powers of the target (the shapes single-factor
    witnesses actually take).  Element candidates are short words plus
    those same root powers (the ones longer than elem_len).  A value keeps
    the first (automorphism, element) pair in that order; only the pairs
    with a root power are computed here, into a dict read before the base.
    """
    base_pairs, *own_pairs = _pool_pairs(g, pool_depth, elem_len)
    check_size(max(base_pairs, sum(own_pairs)))
    autos, tables, shorts, base, base_order = _autocommutator_base(g.rank, pool_depth, elem_len)
    roots = _root_powers(g)
    own: dict[tuple, tuple[Automorphism, Word]] = {}
    _add_pairs(own, base, autos, tables, shorts, [r for r in roots if len(r) > elem_len])
    # Root powers share g's support, so the transvections of a letter x outside
    # it fix them, and only the short words that use x can give a value.
    outside = [x for x in range(1, g.rank + 1) if x not in g.support()]
    uses = {x: [h for h in shorts if x in map(abs, h.letters)] for x in outside}
    for u in roots:
        for x, hs in uses.items():
            phi = word_transvection(u, x)
            _add_pairs(own, base, (phi,), (_letter_table(phi),), (), hs)
    return own, base, base_order, sorted((v for v in own if v not in base), key=len)


@functools.cache
def _commutator_pool(rank: int, len_cap: int) -> tuple[Mapping, tuple]:
    """Commutators [u, v] of words up to len_cap keyed by letters (first
    pair wins), read-only, and the keys sorted by word_key.  Built once per
    parameter set."""
    check_size(count_reduced(rank, len_cap) ** 2)
    pool: dict[tuple, tuple[Word, Word]] = {}
    shorts = [(u, u.letters, _inverse(u.letters)) for u in enumerate_reduced_words(rank, len_cap)]
    for u, ul, uinv in shorts:
        for v, vl, vinv in shorts:
            value = _join(_join(ul, vl), _join(uinv, vinv))
            if value and value not in pool:
                pool[value] = (u, v)
    return MappingProxyType(pool), tuple(sorted(pool, key=word_key))


def _product_search(
    own: Mapping[tuple, tuple], base: Mapping[tuple, tuple], order: Sequence[tuple],
    added: Sequence[tuple], g: Word, k_max: int, kind: str,
) -> NormResult:
    """Least k <= k_max with g a product of k pool values.

    The pool is own over base; its letter keys are order and added, walked
    as _merged.  k = 1 and 2 search the whole pool; deeper levels draw the
    leading factors from a bounded subpool (shortest values first), which
    keeps the upper-bound semantics while staying desk-sized.  Level k >= 3
    peels up to len(sub)^(k-1) leaves, checked before the level starts.
    """
    if not g:
        return NormResult("exact", 0, k_max, ())
    for k in range(1, k_max + 1):
        if k == 3:
            sub = list(itertools.islice(_merged(order, added), _SUBPOOL_SIZE))
            if not sub:  # an empty pool (commutators at rank 1) has no products
                break
        if k >= 3:
            check_size(len(sub) ** (k - 1))
        found = _peel(own, base, _merged(order, added) if k <= 2 else sub, g.letters, k)
        if found is not None:
            factors = (Factor(Word(g.rank, t), (kind, *(own.get(t) or base[t]))) for t in found)
            return NormResult("exact", k, k_max, tuple(factors))
    return NormResult("cutoff", None, k_max, None)


def _merged(order: Sequence[tuple], added: Sequence[tuple]) -> Iterator[tuple]:
    """order (by word_key) and added (other keys, by length) in word_key order.
    A length of added is sorted, and a key of it bisected, only when reached."""
    rest, start = iter(order), 0
    for _, run in itertools.groupby(added, len):
        for value in sorted(run, key=word_key):
            cut = bisect.bisect_left(order, word_key(value), start, key=word_key)
            yield from itertools.islice(rest, cut - start)
            yield value
            start = cut
    yield from rest


def _peel(
    own: Mapping[tuple, tuple],
    base: Mapping[tuple, tuple],
    sub: Iterable[tuple],
    g: tuple,
    k: int,
) -> Optional[tuple[tuple, ...]]:
    if k == 1:
        return (g,) if g in own or g in base else None
    for t in sub:
        tail = _peel(own, base, sub, _join(_inverse(t), g), k - 1)
        if tail is not None:
            return (t,) + tail
    return None


def acl_upper(
    g: Word, pool_depth: int = 1, elem_len: int = 3, k_max: int = 2
) -> NormResult:
    """Upper bound for autocommutator length, with a replayable witness.

    Finds the least k within the configured search space such that g is a
    product of k autocommutators; search incompleteness can only
    overestimate the true length.
    """
    if min(pool_depth, elem_len, k_max) < 1:
        raise ValueError("search parameters must be positive")
    own, base, order, added = _autocommutator_pool(g, pool_depth, elem_len)
    return _product_search(own, base, order, added, g, k_max, "autocommutator")


def cl_upper(g: Word, len_cap: int = 3, k_max: int = 2) -> NormResult:
    """Upper bound for commutator length with both entries capped in length."""
    if min(len_cap, k_max) < 1:
        raise ValueError("search parameters must be positive")
    pool, order = _commutator_pool(g.rank, len_cap)
    return _product_search({}, pool, order, (), g, k_max, "commutator")


def transvection_witness(g: Word, x_index: int, n: int) -> tuple[Automorphism, Word]:
    """The single-autocommutator witness for powers of a free-factor element.

    Returns phi with x -> g^n x (fixing the rest of the basis) and the
    word x, so that the autocommutator of (phi, x) is exactly g^n.  The
    caller asserts that g avoids the chosen basis generator; if it does
    not, there is no such transvection and we refuse.
    """
    if not 1 <= x_index <= g.rank:
        raise ValueError("basis index out of range")
    if x_index in g.support():
        raise ValueError(f"generator {x_index} occurs in the word")
    u = power(g, n)
    if not u:
        return identity_automorphism(g.rank), Word(g.rank, (x_index,))
    return word_transvection(u, x_index), Word(g.rank, (x_index,))


@dataclass(frozen=True)
class SaclEstimate:
    """Two-sided information about stable autocommutator length.

    upper: least found acl-upper(g^n)/n; None when no power factorizes
    within the search budget.  lower: best duality bound from evaluators
    asserted invariant under the full automorphism group.  The analogous
    bound from merely finite-group-invariant evaluators constrains only
    the restricted norm, so it is reported separately and never merged.
    """

    upper: Optional[Fraction]
    lower: Fraction
    restricted_lower: Fraction
    trace: tuple[tuple[int, NormResult], ...]


def duality_lower_bound(f: Quasimorphism, g: Word) -> Fraction:
    """|f(g)| / (2 D(f)): the homogeneous-quasimorphism bound on sacl."""
    if f.defect_bound is None or f.defect_bound == 0:
        raise ValueError("the duality bound needs a positive declared defect")
    if not f.homogeneous:
        raise ValueError("the duality bound is stated for homogeneous evaluators")
    return abs(f(g)) / (2 * f.defect_bound)


def sacl_estimate(
    g: Word,
    n_max: int,
    pool_depth: int = 1,
    elem_len: int = 3,
    k_max: int = 2,
    family: Sequence[Quasimorphism] = (),
) -> SaclEstimate:
    """Bracket stable autocommutator length by power search and duality."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    # g^n has n times g's own pairs: the powers' root pairs share one base, the
    # last power's pool is the largest, and each power is one search at least.
    base, roots, transvections = _pool_pairs(g, pool_depth, elem_len)
    check_size(max(base + n_max * (n_max + 1) // 2 * roots, n_max * (1 + roots + transvections)))
    upper: Optional[Fraction] = None
    trace = []
    for n in range(1, n_max + 1):
        result = acl_upper(power(g, n), pool_depth, elem_len, k_max)
        trace.append((n, result))
        if result.found():
            candidate = Fraction(result.value, n)
            if upper is None or candidate < upper:
                upper = candidate
    lower = Fraction(0)
    restricted = Fraction(0)
    for f in family:
        if f.defect_bound is None or f.defect_bound == 0 or not f.homogeneous:
            continue
        bound = duality_lower_bound(f, g)
        if f.aut_invariant:
            lower = max(lower, bound)
        elif f.invariant_group:
            restricted = max(restricted, bound)
    return SaclEstimate(upper, lower, restricted, tuple(trace))


def invariant_norm_lower_bound(
    f: Quasimorphism, words: Sequence[Word], g: Word
) -> Fraction:
    """Lower bound |f(g)| / (sup_S |f| + D) for the orbit-closure norm.

    Valid for the exact norm over the closure of the word set under the
    group that f is certified invariant for; requires such a certificate
    and a positive denominator.
    """
    if not f.invariant_group and not f.aut_invariant:
        raise ValueError("the bound needs an invariance certificate")
    if f.defect_bound is None:
        raise ValueError("the bound needs a declared defect")
    sup = max((abs(f(s)) for s in words), default=Fraction(0))
    denominator = sup + f.defect_bound
    if denominator == 0:
        raise ValueError("the evaluator is trivial on the set with zero defect")
    return abs(f(g)) / denominator
