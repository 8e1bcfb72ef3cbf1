"""Orbit minimization of free-group words under the automorphism group.

The toolkit here is classical: Whitehead automorphisms, greedy length
descent to an orbit-minimal cyclic word (the peak-reduction fact,
cross-checked in the test suite against brute-force orbit enumeration at
small lengths), Whitehead graphs, and the two predicates built on them.
The descent runs over the moves of the second kind only (a move of the
first kind is a signed permutation, which never changes cyclic length).
Their images are built once per rank from the defining formula; the
automorphism of a move, with its witness, only when the descent picks it.
Free-factor membership rests on Whitehead's cut-vertex lemma (Ann. of
Math. 1936; Stallings, "Whitehead graphs on handlebodies", 1999): a word
in a proper free factor has a disconnected Whitehead graph or one with a
cut vertex, and a connected graph with a cut vertex admits a shortening
Whitehead move.  So a nontrivial orbit-minimal word lies in a proper
free factor iff its Whitehead graph is disconnected.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .automorphisms import Automorphism, compose_all, elementary, inverse
from .words import (
    Word, check_size, components, cyclic_reduce, letter_key, signed_letters, substitute
)


@functools.cache
def _type_two_moves(rank: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """Whitehead moves of the second kind as keys (a, Y - {a}).

    The multiplier a is a signed letter; the cut set Y contains a but not
    a^-1.  The order (by multiplier, then cut set) fixes the descent's
    tie-break.  Y = {a} is the identity, once per multiplier; it never
    shortens a word, so the descent never picks it.  Their count is checked.
    """
    check_size(2 * rank * 4 ** min(rank - 1, 10))  # 2 * 11 * 4^10 is past every cap
    letters = signed_letters(rank)
    moves = []
    for a in letters:
        rest = [l for l in letters if abs(l) != abs(a)]
        for member in itertools.product((False, True), repeat=len(rest)):
            moves.append((a, frozenset(l for l, m in zip(rest, member) if m)))
    return tuple(moves)


@functools.cache
def _type_two_images(rank: int) -> tuple[tuple[Word, ...], ...]:
    """Basis images of each move of _type_two_moves(rank), by definition.

    The move (a, Y) fixes a and sends every other generator x to
    a^{-[x^-1 in Y]} * x * a^{[x in Y]}.  No witness or inverse is kept:
    the descent builds those only for the move it chooses.
    """
    gens = range(1, rank + 1)
    return tuple(
        tuple(Word(rank, (-a,) * (-x in cut) + (x,) + (a,) * (x in cut)) for x in gens)
        for a, cut in _type_two_moves(rank)
    )


def _type_two_auto(rank: int, a: int, cut: frozenset[int]) -> Automorphism:
    # The move (a, cut) as letter transvections, x -> x * a for x in cut and
    # x -> a^-1 * x for x^-1 in cut, so it carries a replayable witness.
    pieces = []
    for x in range(1, rank + 1):
        for side, member in (("right", x in cut), ("left", -x in cut)):
            if member:
                base = elementary("transvection", (abs(a), x, side), rank)
                pieces.append(base if (a > 0) == (side == "right") else inverse(base))
    return compose_all(pieces, rank)


def minimize(w: Word) -> tuple[Word, list[tuple[Automorphism, Word]]]:
    """Greedy Whitehead descent to a minimal-length orbit representative.

    Returns the canonical minimal cyclic word (as a Word) together with
    the trace of moves: pairs (automorphism, resulting cyclic word), which
    replay the descent from w's conjugacy class.  Each step takes the move
    that shortens the word most; the least index wins ties (strict <).
    """
    rank = w.rank
    current = cyclic_reduce(w)[0]
    trace: list[tuple[Automorphism, Word]] = []
    while True:
        word, best, chosen = current.as_word(), current, None
        for idx, images in enumerate(_type_two_images(rank)):
            image = cyclic_reduce(substitute(images, word, rank))[0]
            if len(image) < len(best):
                best, chosen = image, idx
        if chosen is None:
            return current.as_word(), trace
        current = best
        move = _type_two_auto(rank, *_type_two_moves(rank)[chosen])
        trace.append((move, current.as_word()))


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
