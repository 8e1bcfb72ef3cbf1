"""Orbit minimization of free-group words under the automorphism group.

The toolkit here is classical: Whitehead automorphisms, greedy length
descent to an orbit-minimal cyclic word (the peak-reduction fact,
cross-checked in the test suite against brute-force orbit enumeration at
small lengths), Whitehead graphs, and the two predicates built on them.
The descent runs over the moves of the second kind only: a move of the
first kind is a signed permutation, which never changes cyclic length.
Free-factor membership rests on Whitehead's cut-vertex lemma (Ann. of
Math. 1936; Stallings, "Whitehead graphs on handlebodies", 1999): a word
in a proper free factor has a disconnected Whitehead graph or one with a
cut vertex, and a connected graph with a cut vertex admits a shortening
Whitehead move.  So a nontrivial orbit-minimal word lies in a proper
free factor iff its Whitehead graph is disconnected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .automorphisms import (
    Automorphism,
    apply,
    compose_all,
    elementary,
    inverse,
)
from .words import (
    CyclicWord, Word, components, cyclic_reduce, letter_key, signed_letters
)


def type_two_autos(rank: int) -> list[Automorphism]:
    """Whitehead automorphisms of the second kind.

    For a multiplier letter a and a cut set Y containing a but not a^-1,
    the automorphism fixes a and sends every other generator x to
    a^{-[x^-1 in Y]} * x * a^{[x in Y]}.  Each is assembled from letter
    transvections, so it carries a replayable witness and valid inverse
    images by construction.  Y = {a} gives the identity, once per
    multiplier; it never shortens a word, so the descent never picks it.
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


def _right_mult(a: int, x: int, rank: int) -> Automorphism:
    # x -> x * a for a signed letter a with |a| != x.
    base = elementary("transvection", (abs(a), x, "right"), rank)
    return base if a > 0 else inverse(base)


def _left_mult(a: int, x: int, rank: int) -> Automorphism:
    # x -> a^-1 * x for a signed letter a with |a| != x.
    base = elementary("transvection", (abs(a), x, "left"), rank)
    return inverse(base) if a > 0 else base


def _cyclic_image(phi: Automorphism, c: CyclicWord) -> CyclicWord:
    return cyclic_reduce(apply(phi, c.as_word()))[0]


def _descend(autos: list[Automorphism], w: Word) -> tuple[CyclicWord, list]:
    # Steepest descent through the table autos; the least index wins ties.
    current = cyclic_reduce(w)[0]
    trace: list[tuple[Automorphism, Word]] = []
    while len(current) > 0:
        best: Optional[tuple[int, int, CyclicWord]] = None
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


def minimize(w: Word) -> tuple[Word, list[tuple[Automorphism, Word]]]:
    """Greedy Whitehead descent to a minimal-length orbit representative.

    Returns the canonical minimal cyclic word (as a Word) together with
    the trace of moves: pairs (automorphism, resulting cyclic word), which
    replay the descent from w's conjugacy class.
    """
    current, trace = _descend(type_two_autos(w.rank), w)
    return current.as_word(), trace


def is_primitive(w: Word) -> bool:
    """True iff w lies in the automorphism orbit of a basis generator."""
    if not w:
        raise ValueError("the identity is not a primitive element")
    return len(minimize(w)[0]) == 1


def in_proper_free_factor(w: Word) -> bool:
    """True iff w is conjugate into a proper free factor.

    Criterion: the Whitehead graph of the orbit-minimal word is
    disconnected (Whitehead's cut-vertex lemma; see the module docstring).
    """
    if not w:
        raise ValueError("the identity carries no free-factor information")
    return not whitehead_graph(minimize(w)[0]).connected


@dataclass(frozen=True)
class WhiteheadGraph:
    """Letter-adjacency graph of a cyclically reduced word.

    Vertices are the 2n signed letters; each cyclic adjacency x y of the
    word contributes an edge {x^-1, y}.  Connectedness without cut
    vertices certifies that the word is not contained in a proper free
    factor.
    """

    rank: int
    edges: tuple[tuple[int, int], ...]
    connected: bool
    has_cut_vertex: bool


def whitehead_graph(w: Word) -> WhiteheadGraph:
    """Build the Whitehead graph of a cyclically reduced word, with flags.

    The graph depends only on the cyclic word, so every rotation gives
    the same result.
    """
    if not w:
        raise ValueError("the Whitehead graph needs a nonempty word")
    letters = w.letters
    if letters[0] == -letters[-1]:
        raise ValueError("whitehead_graph expects a cyclically reduced word")
    edges = []
    for i, x in enumerate(letters):
        y = letters[(i + 1) % len(letters)]
        edges.append(tuple(sorted((-x, y), key=letter_key)))
    edges.sort(key=lambda e: (letter_key(e[0]), letter_key(e[1])))
    vertices = signed_letters(w.rank)
    adjacency: dict[int, set[int]] = {v: set() for v in vertices}
    for x, y in edges:
        adjacency[x].add(y)
        adjacency[y].add(x)
    connected = len(components(vertices, adjacency.__getitem__)) == 1
    # Removing a cut vertex leaves the other vertices disconnected.
    has_cut = connected and len(vertices) > 2 and any(
        len(components([u for u in vertices if u != v], lambda u: adjacency[u] - {v})) > 1
        for v in vertices
    )
    return WhiteheadGraph(w.rank, tuple(edges), connected, has_cut)
