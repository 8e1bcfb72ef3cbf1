"""Automorphisms of free groups as explicit basis-image tables.

An automorphism always carries the images of the basis under its inverse
as well; inverses are therefore a table swap, and composition never needs
a general inversion algorithm.  The public constructor validates the
defining round trip; composition, inversion and the named generators
build tables that are correct by construction and skip that check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .words import (
    Word, _series, _trusted, breadth_first, check_size, cyclic_reduce,
    invert as invert_word, multiply, substitute,
)


@dataclass(frozen=True)
class AutoWitness:
    """Reconstruction recipe for an automorphism.

    kind is one of ``transvection`` (i, j, side), ``inversion`` (i,),
    ``permutation`` (images of 1..n), ``conjugation-by-word`` (letters),
    ``composite`` (child witnesses, applied right-to-left like function
    composition).
    """

    kind: str
    params: tuple

    def build(self, rank: int) -> "Automorphism":
        if self.kind == "composite":
            return compose_all((child.build(rank) for child in self.params), rank)
        if self.kind == "conjugation-by-word":
            return ad(Word(rank, self.params))
        return elementary(self.kind, self.params, rank)

    def inverse(self) -> "AutoWitness":
        if self.kind == "inversion":
            return self
        if self.kind == "permutation":
            p = self.params
            return AutoWitness("permutation", tuple(p.index(k) + 1 for k in sorted(p)))
        if self.kind == "transvection":
            i, j, side = self.params
            flip = AutoWitness("inversion", (i,))
            return AutoWitness("composite", (flip, self, flip))
        if self.kind == "conjugation-by-word":
            return AutoWitness(
                "conjugation-by-word", tuple(-l for l in reversed(self.params))
            )
        if self.kind == "composite":
            return AutoWitness(
                "composite", tuple(child.inverse() for child in reversed(self.params))
            )
        raise ValueError(f"unknown witness kind {self.kind!r}")

    def to_obj(self):
        if self.kind == "composite":
            return {"kind": self.kind, "parts": [c.to_obj() for c in self.params]}
        return {"kind": self.kind, "params": list(self.params)}

    @staticmethod
    def from_obj(obj) -> "AutoWitness":
        if obj["kind"] == "composite":
            return AutoWitness(
                "composite", tuple(AutoWitness.from_obj(c) for c in obj["parts"])
            )
        return AutoWitness(obj["kind"], tuple(obj["params"]))


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of F_rank given by basis images and inverse images.

    Equality and hashing are extensional on the basis images; the witness
    is provenance only.
    """

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    witness: Optional[AutoWitness] = field(default=None, compare=False)

    def __post_init__(self):
        n = self.rank
        if len(self.images) != n or len(self.inverse_images) != n:
            raise ValueError("image tables must have one word per generator")
        for w in self.images + self.inverse_images:
            if w.rank != n:
                raise ValueError("image word rank differs from automorphism rank")
        for x in _generators(n):
            fwd = substitute(self.inverse_images, substitute(self.images, x, n), n)
            bwd = substitute(self.images, substitute(self.inverse_images, x, n), n)
            if fwd != x or bwd != x:
                raise ValueError(
                    "image tables do not define mutually inverse automorphisms"
                )

    def __call__(self, w: Word) -> Word:
        return apply(self, w)


def _automorphism(rank, images, inverse_images, witness) -> Automorphism:
    # No round-trip check: the tables are mutually inverse by construction.
    phi = object.__new__(Automorphism)
    object.__setattr__(phi, "rank", rank)  # no __dict__ write: see words._trusted
    object.__setattr__(phi, "images", images)
    object.__setattr__(phi, "inverse_images", inverse_images)
    object.__setattr__(phi, "witness", witness)
    return phi


def _generators(rank: int) -> tuple[Word, ...]:
    return tuple(Word(rank, (i,)) for i in range(1, rank + 1))


def identity_automorphism(rank: int) -> Automorphism:
    gens = _generators(rank)
    return _automorphism(
        rank, gens, gens, AutoWitness("permutation", tuple(range(1, rank + 1)))
    )


def elementary(kind: str, params: Sequence, rank: int) -> Automorphism:
    """A named Nielsen generator of Aut(F_rank).

    transvection (i, j, 'left'|'right'): x_j -> x_i x_j or x_j x_i;
    inversion (i,): x_i -> x_i^-1; permutation (p_1..p_n): x_i -> x_{p_i}.
    """
    params = tuple(params)
    gens = _generators(rank)
    images, inverse_images = list(gens), list(gens)
    if kind == "transvection":
        i, j, side = params
        if i == j:
            raise ValueError("transvection requires distinct generator indices")
        if not (1 <= i <= rank and 1 <= j <= rank):
            raise ValueError("transvection indices out of range")
        if side not in ("left", "right"):
            raise ValueError(f"unknown transvection side {side!r}")
        left = side == "left"
        images[j - 1] = _trusted(Word, rank, (i, j) if left else (j, i))
        inverse_images[j - 1] = _trusted(Word, rank, (-i, j) if left else (j, -i))
    elif kind == "inversion":
        (i,) = params
        if not 1 <= i <= rank:
            raise ValueError("inversion index out of range")
        images[i - 1] = inverse_images[i - 1] = _trusted(Word, rank, (-i,))
    elif kind == "permutation":
        if sorted(params) != list(range(1, rank + 1)):
            raise ValueError(f"{params} is not a permutation of 1..{rank}")
        for i, p in enumerate(params, start=1):
            images[i - 1], inverse_images[p - 1] = gens[p - 1], gens[i - 1]
    else:
        raise ValueError(f"unknown elementary kind {kind!r}")
    return _automorphism(
        rank, tuple(images), tuple(inverse_images), AutoWitness(kind, params)
    )


def apply(phi: Automorphism, w: Word) -> Word:
    """Image of a word under the homomorphic extension of the basis images."""
    if phi.rank != w.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {w.rank}")
    return substitute(phi.images, w, phi.rank)


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """The automorphism x -> phi(psi(x))."""
    if phi.rank != psi.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {psi.rank}")
    n = phi.rank
    images = tuple(substitute(phi.images, w, n) for w in psi.images)
    inverse_images = tuple(
        substitute(psi.inverse_images, w, n) for w in phi.inverse_images
    )
    witness = None
    if phi.witness is not None and psi.witness is not None:
        witness = AutoWitness("composite", (phi.witness, psi.witness))
    return _automorphism(n, images, inverse_images, witness)


def compose_all(autos: Iterable[Automorphism], rank: int) -> Automorphism:
    result = identity_automorphism(rank)
    for a in autos:
        result = compose(result, a)
    return result


def inverse(phi: Automorphism) -> Automorphism:
    witness = phi.witness.inverse() if phi.witness is not None else None
    return _automorphism(phi.rank, phi.inverse_images, phi.images, witness)


def ad(g: Word) -> Automorphism:
    """Conjugation x -> g x g^-1 as an automorphism."""
    n = g.rank
    ginv, gens = invert_word(g), _generators(n)
    images = tuple(multiply(g, multiply(x, ginv)) for x in gens)
    inverse_images = tuple(multiply(ginv, multiply(x, g)) for x in gens)
    return _automorphism(
        n, images, inverse_images, AutoWitness("conjugation-by-word", g.letters)
    )


def equal(phi: Automorphism, psi: Automorphism) -> bool:
    """Extensional equality: identical basis images."""
    if phi.rank != psi.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {psi.rank}")
    return phi.images == psi.images


def autocommutator(phi: Automorphism, g: Word) -> Word:
    """The word phi(g) * g^-1."""
    if phi.rank != g.rank:
        raise ValueError(f"rank mismatch: {phi.rank} != {g.rank}")
    return multiply(apply(phi, g), invert_word(g))


def word_transvection(u: Word, j: int, side: str = "left") -> Automorphism:
    """x_j -> u * x_j (or x_j * u), fixing all other generators.

    u must omit generator j entirely, which makes the map invertible with
    the evident inverse table.  The witness is the chain of letter
    transvections multiplying u in one letter at a time.
    """
    n = u.rank
    if not 1 <= j <= n:
        raise ValueError("generator index out of range")
    if j in u.support():
        raise ValueError(f"multiplier word uses generator {j}")
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    images, inverse_images = list(_generators(n)), list(_generators(n))
    x = images[j - 1]
    for table, v in ((images, u), (inverse_images, invert_word(u))):
        table[j - 1] = multiply(v, x) if side == "left" else multiply(x, v)
    parts = []
    # Composites apply right to left: the letter next to x_j comes first.
    letters = tuple(reversed(u.letters)) if side == "left" else u.letters
    for l in letters:
        w = AutoWitness("transvection", (abs(l), j, side))
        parts.append(w if l > 0 else w.inverse())
    witness = AutoWitness("composite", tuple(parts))
    return _automorphism(n, tuple(images), tuple(inverse_images), witness)


def elementary_automorphisms(rank: int) -> list[Automorphism]:
    """All Nielsen generators in canonical order.

    Order: non-identity permutations (lexicographic by image tuple), then
    inversions by index, then transvections by (i, j, side).  This order
    is the tie-break for every deterministic search in the package.
    """
    autos: list[Automorphism] = []
    for perm in itertools.permutations(range(1, rank + 1)):
        if perm == tuple(range(1, rank + 1)):
            continue
        autos.append(elementary("permutation", perm, rank))
    for i in range(1, rank + 1):
        autos.append(elementary("inversion", (i,), rank))
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i == j:
                continue
            for side in ("left", "right"):
                autos.append(elementary("transvection", (i, j, side), rank))
    return autos


def signed_permutations(rank: int) -> list[Automorphism]:
    """All 2^n * n! signed permutations of the basis, in canonical order.

    Each sends x_i to x_{p_i} or its inverse; this is the stabilizer of
    the set of signed generators and the default finite group for
    averaging and orbit-closure constructions.  Their count is checked.
    """
    check_size(math.factorial(min(rank, 10)) << min(rank, 10))  # 2^10 * 10! is past every cap
    autos = []
    for perm in itertools.permutations(range(1, rank + 1)):
        back = [perm.index(k) + 1 for k in range(1, rank + 1)]
        for signs in itertools.product((1, -1), repeat=rank):
            # The permutation, then the sign flips: x_i -> x_{p_i}^{s_{p_i}},
            # whose inverse sends x_k -> x_{q_k}^{s_k} for q = p^-1.
            images = tuple(_trusted(Word, rank, (signs[p - 1] * p,)) for p in perm)
            inverse_images = tuple(_trusted(Word, rank, (s * q,)) for s, q in zip(signs, back))
            witness = AutoWitness("permutation", perm)
            for j, s in enumerate(signs, start=1):
                if s < 0:
                    flip = AutoWitness("inversion", (j,))
                    witness = AutoWitness("composite", (flip, witness))
            autos.append(_automorphism(rank, images, inverse_images, witness))
    return autos


def composite_count(rank: int, depth: int) -> int:
    """Most automorphisms composite_pool(rank, depth) builds: e elementary, e**d of depth d."""
    e = math.factorial(min(rank, 10)) - 1 + rank * (2 * rank - 1)  # 10! is past every cap
    return e + _series(e, e, depth)


def composite_pool(rank: int, depth: int) -> list[Automorphism]:
    """Composites of at most `depth` elementary automorphisms.

    Breadth-first by depth, deduplicated by basis-image table; within each
    depth the discovery order follows the canonical elementary order, so
    the returned list is deterministic.  Its composite_count is checked.
    """
    check_size(composite_count(rank, depth))
    elems = elementary_automorphisms(rank)
    search = breadth_first(
        identity_automorphism(rank),
        lambda a: ((e, compose(a, e)) for e in elems),
        radius=depth,
    )
    return [a for a, *_ in search]


def achirality_search(
    g: Word, k_max: int, depth: int
) -> Optional[tuple[Automorphism, int]]:
    """Look for phi with phi(g) conjugate to g^-1, returned as (phi, 1).

    Roots are unique in a free group (Lyndon-Schupp, Ch. I §2), so
    phi(g^k) ~ g^-k for some k iff phi(g) ~ g^-1: k_max, still validated,
    does not change the answer.  Returns the first witness among
    composite_pool(g.rank, depth), in its order.  None proves nothing:
    this is a semi-decision for achirality only.
    """
    if not g:
        raise ValueError("achirality is about nontrivial elements")
    if k_max < 1 or depth < 0:
        raise ValueError(f"need k_max >= 1 and depth >= 0, got {k_max} and {depth}")
    target = cyclic_reduce(invert_word(g))[0]
    for phi in composite_pool(g.rank, depth):
        if cyclic_reduce(apply(phi, g))[0] == target:
            return phi, 1
    return None


def random_composite(rng, rank: int, depth: int) -> Automorphism:
    """Composite of `depth` uniformly random elementary automorphisms."""
    elems = elementary_automorphisms(rank)
    picks = [elems[rng.randrange(len(elems))] for _ in range(depth)]
    return compose_all(picks, rank)


def is_finite_group(autos: Sequence[Automorphism]) -> bool:
    """True iff the set of automorphisms listed is a group under composition.

    Dimino's closure (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559) on the image tables: a listed element becomes a
    generator when the closure lacks it, and the closure grows by the
    generators until a product falls outside the list.
    """
    if not autos:
        return False
    rank = autos[0].rank
    if any(a.rank != rank for a in autos):
        raise ValueError("automorphisms of different ranks")
    table = {a.images for a in autos}
    closure = {identity_automorphism(rank).images}
    if not closure <= table:
        return False
    gens = []
    for a in autos:
        if a.images in closure:
            continue
        gens.append(a.images)
        # The closure so far is closed under the older generators.
        layer, steps = list(closure), [a.images]
        while layer:
            grown = []
            for x in layer:
                for s in steps:
                    y = tuple(substitute(x, w, rank) for w in s)
                    if y not in closure:
                        if y not in table:
                            return False
                        closure.add(y)
                        grown.append(y)
            layer, steps = grown, gens
    return closure == table
