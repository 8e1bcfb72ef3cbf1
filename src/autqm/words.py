"""Exact word arithmetic in finitely generated free groups.

Letters are nonzero signed integers: ``i`` stands for the i-th basis
generator and ``-i`` for its inverse.  Every operation in this module
returns freely reduced words and is pure; values are immutable and safe
to share between threads.  Public constructors validate their input;
the operations skip those checks for results correct by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def letter_key(letter: int) -> int:
    """Position of a letter in the total order 1 < -1 < 2 < -2 < ...

    This order fixes every canonical choice in the package (canonical
    rotations, lexicographic witnesses, deterministic search order).
    """
    return 2 * abs(letter) - (2 if letter > 0 else 1)


def signed_letters(rank: int) -> tuple[int, ...]:
    """The 2 * rank letters of the given rank, in the order of letter_key."""
    return tuple(l for i in range(1, rank + 1) for l in (i, -i))


def word_key(letters: Sequence[int]) -> tuple:
    """Sort key for reduced words: by length, then letterwise."""
    return (len(letters), tuple(2 * l - 2 if l > 0 else -2 * l - 1 for l in letters))


def _join(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """u followed by v, for reduced letter tuples: only the junction cancels."""
    if not u or not v or u[-1] != -v[0]:
        return u + v  # nothing cancels: the common case
    i, n = 1, min(len(u), len(v))
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[: len(u) - i] + v[i:]


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-l for l in reversed(letters)])


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for l in self.letters:
            if l == 0 or abs(l) > self.rank:
                raise ValueError(f"letter {l} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def key(self) -> tuple:
        return word_key(self.letters)

    def support(self) -> frozenset[int]:
        """Set of generator indices (unsigned) occurring in the word."""
        return frozenset(abs(l) for l in self.letters)

    # Light operator sugar over the module-level operations.
    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        return power(self, k)


def _trusted(cls, rank: int, letters: tuple[int, ...]):
    """A Word or CyclicWord built without its checks, for results that are
    correct by construction (for CyclicWord: already the least rotation)."""
    w = object.__new__(cls)
    object.__setattr__(w, "rank", rank)  # a __dict__ write would cost 2.5x the memory
    object.__setattr__(w, "letters", letters)
    return w


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word considered up to rotation.

    The stored letter sequence is the canonical rotation: the
    lexicographically least one under the order 1 < -1 < 2 < -2 < ...,
    which makes conjugacy classes hashable and comparable.
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        # Word checks the rank, the letter range and free reduction.
        letters = Word(self.rank, self.letters).letters
        if letters and letters[0] == -letters[-1]:
            raise ValueError(f"cyclic word {letters} is not cyclically reduced")
        r = _least_rotation(letters)
        object.__setattr__(self, "letters", letters[r:] + letters[:r])

    def __len__(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return _trusted(Word, self.rank, self.letters)


def _least_rotation(letters: Sequence[int]) -> int:
    """Offset of the least rotation under letter_key; the first one on ties."""
    _, keys = word_key(letters)
    n = len(keys)
    doubled = keys + keys
    return min(range(n), key=lambda i: doubled[i : i + n], default=0)


def identity(rank: int) -> Word:
    return Word(rank, ())


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw signed-index sequence.

    >>> reduce([1, -1], 2).letters
    ()
    >>> reduce([1, 2, -2, -1, 1], 2).letters
    (1,)
    >>> reduce([1, 2, 1], 2).letters
    (1, 2, 1)
    """
    identity(rank)  # checks the rank
    out: list[int] = []
    for l in letters:
        if l == 0 or abs(l) > rank:
            raise ValueError(f"letter {l} out of range for rank {rank}")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return _trusted(Word, rank, tuple(out))


def multiply(u: Word, v: Word) -> Word:
    """Product of two words, freely reduced."""
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} != {v.rank}")
    return _trusted(Word, u.rank, _join(u.letters, v.letters))


def substitute(images: Sequence[Word], w: Word, rank: int) -> Word:
    """w with each generator i replaced by images[i - 1] (words of the
    given rank), freely reduced."""
    out: list[int] = []
    for l in w.letters:
        img = images[abs(l) - 1].letters
        if l < 0:
            img = tuple(-x for x in reversed(img))
        for x in img:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return _trusted(Word, rank, tuple(out))


def multiply_all(words: Iterable[Word], rank: int) -> Word:
    prod = identity(rank)
    for w in words:
        prod = multiply(prod, w)
    return prod


def invert(u: Word) -> Word:
    """Inverse word: reversed sequence with negated letters.

    >>> invert(reduce([1, 2, -1, -2], 2)).letters
    (2, 1, -2, -1)
    """
    return _trusted(Word, u.rank, _inverse(u.letters))


def _strip_ends(letters: tuple[int, ...]) -> tuple[int, int]:
    i, j = 0, len(letters)
    while i < j - 1 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return i, j


def cyclic_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split u as conjugator * core * conjugator^-1 with core cyclically reduced.

    The returned core is the canonical rotation of its conjugacy class and
    the conjugator is adjusted so the identity u = t * core * t^-1 holds
    exactly for the canonical rotation.
    """
    letters = u.letters
    i, j = _strip_ends(letters)
    stripped = letters[i:j]
    # The canonical rotation shifts the core; fold the shift into the
    # conjugator: t' = t * prefix, where core = prefix * rest rotated.
    offset = _least_rotation(stripped)
    core = _trusted(CyclicWord, u.rank, stripped[offset:] + stripped[:offset])
    return core, _trusted(Word, u.rank, letters[: i + offset])


def power(u: Word, k: int) -> Word:
    """Reduced k-th power, via the cyclically reduced core (k may be negative).

    >>> power(reduce([1, 2], 2), 3).letters
    (1, 2, 1, 2, 1, 2)
    >>> power(reduce([1], 2), -2).letters
    (-1, -1)
    """
    check_size(abs(k) * len(u), letters=True)
    if k == 0 or not u:
        return identity(u.rank)
    if k < 0:
        return power(invert(u), -k)
    # u = t * stripped * t^-1 is a reduced concatenation, and stripped is
    # cyclically reduced, so t * stripped^k * t^-1 is already reduced too.
    i, j = _strip_ends(u.letters)
    t = u.letters[:i]
    stripped = u.letters[i:j]
    raw = t + stripped * k + _inverse(t)
    return _trusted(Word, u.rank, raw)


def is_conjugate(u: Word, v: Word) -> bool:
    """True iff the cyclic reductions agree up to rotation."""
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} != {v.rank}")
    return cyclic_reduce(u)[0] == cyclic_reduce(v)[0]


def conjugate(u: Word, t: Word) -> Word:
    """t * u * t^-1."""
    return multiply(t, multiply(u, invert(t)))


def primitive_root(u: Word) -> tuple[Word, int, Word]:
    """Write u = t * c^m * t^-1 with m maximal; returns (c, m, t).

    For the empty word returns (empty, 0, empty).
    """
    if not u:
        return identity(u.rank), 0, identity(u.rank)
    core, t = cyclic_reduce(u)
    letters = core.letters
    n = len(letters)
    for p in range(1, n + 1):
        if n % p:
            continue
        if letters[:p] * (n // p) == letters:
            return _trusted(Word, u.rank, letters[:p]), n // p, t
    raise AssertionError("unreachable: every word is a power of itself")


class CutoffExceeded(RuntimeError):
    """A search would pass its size cap, so nothing of it was built."""


MAX_POWER_LETTERS = 10**7
MAX_SEARCH_SIZE = 3 * 10**5


def check_size(size: int, letters: bool = False) -> None:
    """Raise CutoffExceeded unless size, counted before a search builds anything,
    is at most MAX_SEARCH_SIZE candidates (MAX_POWER_LETTERS power letters)."""
    cap, what = (MAX_POWER_LETTERS, "letters") if letters else (MAX_SEARCH_SIZE, "candidates")
    if size > cap:
        raise CutoffExceeded(f"search would build more than {cap} {what}")


def _series(first: int, ratio: int, terms: int) -> int:
    # first * (1 + ratio + ... + ratio**(terms - 1)), exact up to 40 terms, past every cap beyond
    terms = max(terms, 0)
    return first * terms if ratio == 1 else first * (ratio ** min(terms, 40) - 1) // (ratio - 1)


def breadth_first(root, neighbours, radius=None, order=None) -> Iterator[tuple]:
    """Every node reachable from root, once each, layer by layer.

    Yields (node, parent, step, depth), where neighbours(parent) yielded
    (step, node) when node was first reached; the root comes first, as
    (root, None, None, 0).  Nodes at depth radius are not expanded (no
    limit when radius is None).  Each layer is expanded in discovery
    order, or sorted by the key function order when one is given.
    """
    seen = {root}
    yield root, None, None, 0
    layer = [root]
    depth = 0
    while layer and (radius is None or depth < radius):
        depth += 1
        nxt = []
        for node in layer if order is None else sorted(layer, key=order):
            for step, child in neighbours(node):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                    yield child, node, step, depth
        layer = nxt


def components(vertices, neighbours) -> list[list]:
    """Connected components of a graph, as lists of vertices.

    neighbours(v) yields the vertices adjacent to v.  Components come in
    the order of their first vertex in vertices, each in breadth-first
    order from that vertex.
    """
    found: list[list] = []
    seen: set = set()
    for start in vertices:
        if start not in seen:
            search = breadth_first(start, lambda v: ((u, u) for u in neighbours(v)))
            found.append([v for v, *_ in search])
            seen.update(found[-1])
    return found


def enumerate_reduced(rank: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """All freely reduced letter tuples of length <= max_len, in canonical order.

    Canonical order is by length, then lexicographic under letter_key.
    """
    alphabet = signed_letters(rank)
    layer: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for l in alphabet:
                if w and w[-1] == -l:
                    continue
                nxt.append(w + (l,))
        yield from nxt
        layer = nxt


def count_reduced(rank: int, max_len: int) -> int:
    """How many tuples enumerate_reduced(rank, max_len) yields."""
    return 1 + _series(2 * rank, 2 * rank - 1, max_len)


def enumerate_reduced_words(rank: int, max_len: int) -> Iterator[Word]:
    for letters in enumerate_reduced(rank, max_len):
        yield Word(rank, letters)


def random_reduced_word(rng, rank: int, length: int) -> Word:
    """Uniform-ish random reduced word of exactly the given length."""
    letters: list[int] = []
    choices = signed_letters(rank)
    for _ in range(length):
        valid = [l for l in choices if not letters or l != -letters[-1]]
        letters.append(rng.choice(valid))
    return Word(rank, tuple(letters))
