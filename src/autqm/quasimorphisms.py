"""Counting quasimorphisms and their calculus, over exact rationals.

Everything here evaluates to fractions.Fraction; no floating point enters
this module.  A Quasimorphism bundles an evaluator with its declared
defect bound, homogeneity flag, and a provenance tree from which the CLI
can rebuild it bit-identically.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import words
from .automorphisms import Automorphism, apply, is_finite_group
from .words import (
    Word,
    _strip_ends,
    enumerate_reduced,
    enumerate_reduced_words,
    invert,
    multiply,
    power,
    substitute,
    word_key,
)

# Declared defect bound for a counting quasimorphism with a pattern of
# length l.  Deliberately loose; the release gate checks that the exact
# defect of every short pattern stays below it.
DEFAULT_BOUND_FACTOR = 6


@dataclass(frozen=True)
class FreeGroupDomain:
    """Evaluation domain: the free group of the given rank."""

    rank: int

    def identity(self):
        return Word(self.rank, ())

    def multiply(self, g, h):
        return multiply(g, h)

    def elements(self, max_len: int):
        return enumerate_reduced_words(self.rank, max_len)

    def sort_key(self, g):
        return g.key()

    def describe(self):
        return ("free", self.rank)


@dataclass(frozen=True)
class ProductDomain:
    """Evaluation domain: n-tuples over a common free factor, componentwise."""

    factor_rank: int
    size: int

    def identity(self):
        return tuple(Word(self.factor_rank, ()) for _ in range(self.size))

    def multiply(self, g, h):
        return tuple(multiply(a, b) for a, b in zip(g, h))

    def elements(self, max_len: int):
        factor = list(enumerate_reduced_words(self.factor_rank, max_len))
        return itertools.product(factor, repeat=self.size)

    def sort_key(self, g):
        return tuple(a.key() for a in g)

    def describe(self):
        return ("product", self.factor_rank, self.size)


@dataclass(frozen=True)
class Quasimorphism:
    """An evaluator with declared defect bound and homogeneity flag.

    ``invariant_group`` lists a finite automorphism group under which the
    values are exactly invariant (set by finite_average).  The
    ``aut_invariant`` flag is a caller-level assertion of invariance under
    the full automorphism group; nothing in this artifact can certify it.
    """

    domain: object
    evaluate: Callable = field(compare=False)
    defect_bound: Optional[Fraction]
    homogeneous: bool
    provenance: tuple
    invariant_group: tuple[Automorphism, ...] = field(default=(), compare=False)
    aut_invariant: bool = False

    def __call__(self, g) -> Fraction:
        if isinstance(self.domain, FreeGroupDomain) and g.rank != self.domain.rank:
            raise ValueError(f"rank mismatch: {self.domain.rank} != {g.rank}")
        value = self.evaluate(g)
        if isinstance(value, float):
            raise TypeError("quasimorphism evaluators must stay exact")
        return Fraction(value)


@dataclass(frozen=True)
class DefectCertificate:
    """The defect exactly, or an attained lower bound for it."""

    bound_type: str  # "exact" | "enumerated-lower"
    value: Fraction
    witness: Optional[tuple] = None
    enumeration_range: Optional[int] = None


@dataclass(frozen=True)
class InvarianceReport:
    checked: int
    violations: tuple  # (auto index, sample, value on image, value on sample)

    def ok(self) -> bool:
        return not self.violations


def _table_count(table: dict, m: int, letters: tuple, periodic: bool) -> int:
    """Sum of table[p] over the length-m windows p of a reduced word.

    With periodic set, the windows start in one period of the bi-infinite
    word core^infinity, where core is the word with its cancelling ends
    stripped; rotating the core would not change the sum.
    """
    starts = len(letters) - m + 1
    if periodic:
        i, j = _strip_ends(letters)
        starts = j - i
        letters = letters[i:j] * (2 + m // max(starts, 1))
    return sum(table.get(letters[k : k + m], 0) for k in range(starts))


def _pattern_table(w: Word) -> dict:
    """The counting table {w: 1, w^-1: -1} of a pattern word."""
    if not w:
        raise ValueError("the counting pattern must be nonempty")
    return {w.letters: 1, invert(w).letters: -1}


def brooks(w: Word) -> Quasimorphism:
    """Counting quasimorphism of a pattern word.

    Counts occurrences of the pattern as a subword of the reduced input
    (overlaps allowed) minus occurrences of the inverse pattern.
    """
    table, m = _pattern_table(w), len(w)
    return Quasimorphism(
        domain=FreeGroupDomain(w.rank),
        evaluate=lambda g: _table_count(table, m, g.letters, False),
        defect_bound=Fraction(DEFAULT_BOUND_FACTOR * len(w)),
        homogeneous=False,
        provenance=("brooks", w.rank, w.letters),
    )


def brooks_homogeneous(w: Word) -> Quasimorphism:
    """Homogenisation of the counting quasimorphism, evaluated exactly.

    On an element with cyclically reduced core c, the value is the number
    of pattern occurrences per period of the periodic word c^infinity,
    minus the same count for the inverse pattern.  Conjugacy-invariant and
    homogeneous by construction; the declared defect bound is twice the
    bound of the inhomogeneous counting function.
    """
    table, m = _pattern_table(w), len(w)
    return Quasimorphism(
        domain=FreeGroupDomain(w.rank),
        evaluate=lambda g: _table_count(table, m, g.letters, True),
        defect_bound=Fraction(2 * DEFAULT_BOUND_FACTOR * len(w)),
        homogeneous=True,
        provenance=("homogenised", ("brooks", w.rank, w.letters)),
    )


def homogenise_numeric(
    f: Quasimorphism, g: Word, n: int
) -> tuple[Fraction, Fraction]:
    """Estimate the homogenisation at g as f(g^n)/n, with error bound D/n."""
    if f.defect_bound is None:
        raise ValueError("numeric homogenisation needs a declared defect bound")
    if n < 1:
        raise ValueError("the power must be positive")
    estimate = f(power(g, n)) / n
    return estimate, Fraction(f.defect_bound, n)


def defect_enumerate(f: Quasimorphism, max_len: int) -> DefectCertificate:
    """Exhaustive defect lower bound over all element pairs up to max_len.

    Returns the maximum of |f(g) + f(h) - f(gh)| with the lexicographically
    least witness pair attaining it.  Monotone nondecreasing in max_len.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    domain = f.domain
    past_root = math.isqrt(words.MAX_SEARCH_SIZE) + 1  # enough to see the pairs pass the cap
    elements = list(itertools.islice(domain.elements(max_len), past_root))
    words.check_size(len(elements) ** 2)
    best = Fraction(0)
    witness = (domain.identity(), domain.identity())
    witness_key = None
    values = {domain.sort_key(g): f(g) for g in elements}
    for g in elements:
        fg = values[domain.sort_key(g)]
        for h in elements:
            d = abs(fg + values[domain.sort_key(h)] - f(domain.multiply(g, h)))
            if d < best:
                continue
            key = (domain.sort_key(g), domain.sort_key(h))
            if d > best or (witness_key is not None and key < witness_key):
                best = d
                witness = (g, h)
                witness_key = key
    return DefectCertificate("enumerated-lower", best, witness, max_len)


def brooks_defect_exact(w: Word) -> DefectCertificate:
    """The exact defect of brooks(w), with an attaining witness pair.

    For a counting quasimorphism, f(g) + f(h) - f(gh) depends only on the
    letters within pattern reach of the cancellation seam: write g = u*c,
    h = c^-1*v with c the maximal cancellation; occurrences lying fully
    inside u, c, or v cancel out of the sum (using f(c) + f(c^-1) = 0), so
    only crossings of the three junctions remain, and those see at most
    len(w) - 1 letters on each side.  The junctions with c see only its
    first len(w) - 1 letters, so enumerating u, v and c up to len(w) - 1
    attains the global supremum and its least witness (words are ordered
    by length first), on a pair of words no longer than 2*len(w) - 1.
    """
    table = _pattern_table(w)
    rank = w.rank
    ell = len(w)
    words.check_size(words.count_reduced(rank, ell - 1) ** 2)  # the (u, v) table
    shorts = list(enumerate_reduced(rank, ell - 1))
    cache: dict[tuple, int] = {}

    def value(t: tuple) -> int:
        got = cache.get(t)
        if got is None:
            got = _table_count(table, ell, t, False)
            cache[t] = got
        return got

    uv = {}
    for u in shorts:
        for v in shorts:
            if u and v and u[-1] == -v[0]:
                continue
            uv[(u, v)] = value(u + v)
    best = 0
    witness = ((), ())
    witness_key = None
    for c in shorts:
        cinv = tuple(-l for l in reversed(c))
        for u in shorts:
            if u and c and u[-1] == -c[0]:
                continue
            left = value(u + c)
            for v in shorts:
                if c and v and v[0] == c[0]:
                    continue
                pair = uv.get((u, v))
                if pair is None:
                    continue
                d = left + value(cinv + v) - pair
                if d < 0:
                    d = -d
                if d < best:
                    continue
                g, h = u + c, cinv + v
                key = (word_key(g), word_key(h))
                if d > best or (witness_key is not None and key < witness_key):
                    best = d
                    witness = (g, h)
                    witness_key = key
    return DefectCertificate(
        "exact",
        Fraction(best),
        (Word(rank, witness[0]), Word(rank, witness[1])),
        2 * ell - 1,
    )


def pullback(
    f: Quasimorphism, images: Sequence[Word], source_rank: Optional[int] = None
) -> Quasimorphism:
    """Precompose f with the homomorphism sending generators to the images."""
    if not isinstance(f.domain, FreeGroupDomain):
        raise ValueError("pullback targets a free-group evaluator")
    images = tuple(images)
    if source_rank is None:
        source_rank = len(images)
    if len(images) != source_rank:
        raise ValueError("one image word per source generator is required")
    for u in images:
        if u.rank != f.domain.rank:
            raise ValueError("image words must live in the target free group")

    return Quasimorphism(
        domain=FreeGroupDomain(source_rank),
        evaluate=lambda g: f(substitute(images, g, f.domain.rank)),
        defect_bound=f.defect_bound,
        homogeneous=f.homogeneous,
        provenance=(
            "pullback",
            f.provenance,
            source_rank,
            tuple(u.letters for u in images),
        ),
        aut_invariant=False,
    )


def _orbit_table(w: Word, autos: Sequence[Automorphism]) -> dict:
    """Counting table of the sum of brooks(w) o a over letter-permuting autos.

    brooks(w)(a(g)) counts a^-1(w) in g less a^-1(w)^-1, since a permutes
    the signed letters and so maps each window of g to a window of a(g).
    """
    table: dict = {}
    for a in autos:
        for p, sign in _pattern_table(substitute(a.inverse_images, w, w.rank)).items():
            table[p] = table.get(p, 0) + sign
    return table


def finite_average(f: Quasimorphism, autos: Sequence[Automorphism]) -> Quasimorphism:
    """Average f over a finite group of automorphisms, each listed once.

    The result is exactly invariant under every member of the group; the
    defect bound and homogeneity are inherited (averaging cannot increase
    the defect).  A counting function averaged over signed permutations
    is evaluated as one orbit table; any other input applies every member.
    """
    if not isinstance(f.domain, FreeGroupDomain):
        raise ValueError("finite averaging is defined on free-group evaluators")
    autos = tuple(autos)
    if not is_finite_group(autos):
        raise ValueError("the averaging set must be a finite group of automorphisms")
    if autos[0].rank != f.domain.rank:
        raise ValueError("the automorphisms must act on the domain of f")
    if len({a.images for a in autos}) != len(autos):
        raise ValueError("the averaging set lists an automorphism twice")
    weight = Fraction(1, len(autos))
    kind = f.provenance[0]
    letter_permuting = all(len(u) == 1 for a in autos for u in a.images)
    if kind in ("brooks", "homogenised") and letter_permuting:
        _, rank, letters = f.provenance[1] if kind == "homogenised" else f.provenance
        table = _orbit_table(Word(rank, letters), autos)
        periodic = kind == "homogenised"

        def evaluate(g: Word) -> Fraction:
            return weight * _table_count(table, len(letters), g.letters, periodic)

    else:

        def evaluate(g: Word) -> Fraction:
            return weight * sum(f(apply(a, g)) for a in autos)

    tables = tuple(
        (
            tuple(tuple(word.letters) for word in a.images),
            tuple(tuple(word.letters) for word in a.inverse_images),
        )
        for a in autos
    )
    return Quasimorphism(
        domain=f.domain,
        evaluate=evaluate,
        defect_bound=f.defect_bound,
        homogeneous=f.homogeneous,
        provenance=("finite_average", f.provenance, tables),
        invariant_group=autos,
    )


def product_average(f: Quasimorphism, k: int, n: int) -> Quasimorphism:
    """Sum f over the first k coordinates of n-tuples.

    The defect bound scales by k; homogeneity is inherited because powers
    act componentwise.
    """
    if not isinstance(f.domain, FreeGroupDomain):
        raise ValueError("product averaging starts from a free-group evaluator")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")

    def evaluate(t) -> Fraction:
        if len(t) != n:
            raise ValueError(f"expected {n}-tuples")
        return sum((f(t[i]) for i in range(k)), Fraction(0))

    return Quasimorphism(
        domain=ProductDomain(f.domain.rank, n),
        evaluate=evaluate,
        defect_bound=None if f.defect_bound is None else k * f.defect_bound,
        homogeneous=f.homogeneous,
        provenance=("product_average", f.provenance, k, n),
    )


def linear_combination(
    terms: Sequence[tuple[Fraction, Quasimorphism]]
) -> Quasimorphism:
    """Exact linear combination of quasimorphisms on a common domain."""
    terms = tuple((Fraction(c), q) for c, q in terms)
    if not terms:
        raise ValueError("empty combination has no domain")
    domain = terms[0][1].domain
    for _, q in terms:
        if q.domain != domain:
            raise ValueError("all summands must share a domain")
    bound = Fraction(0)
    for c, q in terms:
        if q.defect_bound is None:
            bound = None
            break
        bound += abs(c) * q.defect_bound
    return Quasimorphism(
        domain=domain,
        evaluate=lambda g: sum((c * q(g) for c, q in terms), Fraction(0)),
        defect_bound=bound,
        homogeneous=all(q.homogeneous for _, q in terms),
        provenance=(
            "linear_combination",
            tuple((str(c), q.provenance) for c, q in terms),
        ),
    )


def zero(domain) -> Quasimorphism:
    """The zero quasimorphism: the only invariant evaluator always available."""
    return Quasimorphism(
        domain=domain,
        evaluate=lambda g: Fraction(0),
        defect_bound=Fraction(0),
        homogeneous=True,
        provenance=("zero", domain.describe()),
        aut_invariant=True,
    )


def check_invariance(
    f: Quasimorphism,
    autos: Sequence[Automorphism],
    samples: Iterable[Word],
) -> InvarianceReport:
    """Exact comparison of f(a(g)) against f(g) for every auto and sample."""
    violations = []
    checked = 0
    for g in samples:
        fg = f(g)
        for idx, a in enumerate(autos):
            checked += 1
            fag = f(apply(a, g))
            if fag != fg:
                violations.append((idx, g, fag, fg))
    return InvarianceReport(checked, tuple(violations))


def build_quasimorphism(provenance) -> Quasimorphism:
    """Rebuild a quasimorphism from its provenance tree.

    Inverse of the ``provenance`` field for the constructions the CLI
    serializes; rebuilding and re-evaluating is bit-identical because all
    values are exact.
    """
    kind = provenance[0]
    if kind == "brooks":
        _, rank, letters = provenance
        return brooks(Word(rank, tuple(letters)))
    if kind == "homogenised":
        sub = provenance[1]
        if sub[0] != "brooks":
            raise ValueError("only counting quasimorphisms homogenise exactly")
        _, rank, letters = sub
        return brooks_homogeneous(Word(rank, tuple(letters)))
    if kind in ("pullback", "finite_average"):
        f = build_quasimorphism(provenance[1])
        if not isinstance(f.domain, FreeGroupDomain):
            raise ValueError(f"{kind} needs a free-group spec, got {f.domain.describe()}")
    if kind == "pullback":
        _, _, source_rank, image_letters = provenance
        images = [Word(f.domain.rank, tuple(ls)) for ls in image_letters]
        return pullback(f, images, source_rank)
    if kind == "finite_average":
        _, _, tables = provenance
        rank = f.domain.rank
        autos = [
            Automorphism(
                rank,
                tuple(Word(rank, tuple(ls)) for ls in images),
                tuple(Word(rank, tuple(ls)) for ls in inverse_images),
            )
            for images, inverse_images in tables
        ]
        return finite_average(f, autos)
    if kind == "product_average":
        _, sub, k, n = provenance
        return product_average(build_quasimorphism(sub), k, n)
    if kind == "linear_combination":
        _, pairs = provenance
        # Fraction("1e10000000") takes seconds; the library writes p or p/q.
        for c, _ in pairs:
            if isinstance(c, str) and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", c):
                raise ValueError(f"coefficient {c!r} is not of the form p or p/q")
        return linear_combination(
            [(Fraction(c), build_quasimorphism(sub)) for c, sub in pairs]
        )
    if kind == "zero":
        desc = provenance[1]
        if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in desc[1:]):
            raise ValueError(f"the sizes of a domain must be integers >= 1: {desc!r}")
        if desc[0] == "free":
            return zero(FreeGroupDomain(desc[1]))
        if desc[0] == "product":
            return zero(ProductDomain(desc[1], desc[2]))
    raise ValueError(f"unknown provenance {provenance!r}")
