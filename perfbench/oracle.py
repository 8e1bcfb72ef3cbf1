"""Letter-tuple arithmetic of the benchmark's own, independent of autqm.

Inputs are generated with these helpers, and the correctness check uses
them to replay witnesses, so neither depends on the code under test.
A word is a tuple of nonzero signed integers; ``i`` is the i-th basis
generator and ``-i`` its inverse.
"""

from __future__ import annotations

import itertools


def letter_key(letter: int) -> int:
    # The package's total order 1 < -1 < 2 < -2 < ..., which fixes its
    # canonical rotations.
    return 2 * abs(letter) - (2 if letter > 0 else 1)


def free_reduce(letters) -> tuple:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse(letters) -> tuple:
    return tuple(-l for l in reversed(letters))


def product(*words) -> tuple:
    return free_reduce(itertools.chain.from_iterable(words))


def power(letters, k: int) -> tuple:
    if k < 0:
        return power(inverse(letters), -k)
    return free_reduce(tuple(letters) * k)


def commutator(u, v) -> tuple:
    return product(u, v, inverse(u), inverse(v))


def substitute(images, letters) -> tuple:
    """Image of a word under the endomorphism x_i -> images[i-1]."""
    out: list[int] = []
    for l in letters:
        image = images[abs(l) - 1]
        for x in image if l > 0 else inverse(image):
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def _stripped(letters) -> tuple:
    # The cyclically reduced core, in the rotation the word gives it.
    letters = free_reduce(letters)
    i, j = 0, len(letters)
    while i < j - 1 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def cyclic_core(letters) -> tuple:
    """Canonical representative of the conjugacy class: the cyclically
    reduced core, rotated to its least rotation under letter_key."""
    core = _stripped(letters)
    if len(core) < 2:
        return core
    rotations = (core[r:] + core[:r] for r in range(len(core)))
    return min(rotations, key=lambda rot: [letter_key(l) for l in rot])


def random_word(rng, rank: int, length: int) -> tuple:
    """A uniformly chosen reduced word of exactly the given length."""
    letters: list[int] = []
    for _ in range(length):
        choices = [
            l
            for i in range(1, rank + 1)
            for l in (i, -i)
            if not letters or l != -letters[-1]
        ]
        letters.append(rng.choice(choices))
    return tuple(letters)


def elementary_images(rank: int) -> list[tuple]:
    """Basis images of the identity and every Nielsen generator."""
    gens = [(i,) for i in range(1, rank + 1)]
    out = []
    for perm in itertools.permutations(range(1, rank + 1)):
        out.append(tuple((p,) for p in perm))
    for i in range(1, rank + 1):
        images = list(gens)
        images[i - 1] = (-i,)
        out.append(tuple(images))
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i != j:
                for image in ((i, j), (j, i)):
                    images = list(gens)
                    images[j - 1] = image
                    out.append(tuple(images))
    return out


def signed_permutation_images(rank: int) -> list[tuple]:
    return [
        tuple((s * p,) for s, p in zip(signs, perm))
        for perm in itertools.permutations(range(1, rank + 1))
        for signs in itertools.product((1, -1), repeat=rank)
    ]


def random_automorphism(rng, rank: int, steps: int) -> tuple:
    """Basis images of a product of `steps` random Nielsen generators."""
    moves = elementary_images(rank)
    images = tuple((i,) for i in range(1, rank + 1))
    for _ in range(steps):
        move = rng.choice(moves)
        images = tuple(substitute(images, m) for m in move)
    return images


def count(haystack: tuple, needle: tuple) -> int:
    n = len(needle)
    return sum(1 for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle)


def brooks_value(letters, pattern) -> int:
    """The counting quasimorphism of a pattern, by its definition."""
    letters = free_reduce(letters)
    return count(letters, pattern) - count(letters, inverse(pattern))


def homogeneous_value(letters, pattern) -> int:
    """Pattern occurrences per period of the periodic word core^infinity,
    minus those of the inverse pattern."""
    core = _stripped(letters)
    if not core:
        return 0

    def per_period(p):
        window = core * (2 + len(p) // len(core))
        return sum(1 for i in range(len(core)) if window[i : i + len(p)] == p)

    return per_period(tuple(pattern)) - per_period(inverse(pattern))


def whitehead_graph(letters, rank: int) -> tuple[tuple, bool, bool]:
    """Edges, connectedness and cut-vertex flag of a cyclic word's
    Whitehead graph, by brute force."""
    n = len(letters)
    edges = sorted(
        (
            tuple(sorted((-letters[i], letters[(i + 1) % n]), key=letter_key))
            for i in range(n)
        ),
        key=lambda e: (letter_key(e[0]), letter_key(e[1])),
    )
    vertices = [l for i in range(1, rank + 1) for l in (i, -i)]

    def components(removed):
        rest = [v for v in vertices if v != removed]
        seen: set = set()
        total = 0
        for start in rest:
            if start in seen:
                continue
            total += 1
            todo = [start]
            seen.add(start)
            while todo:
                v = todo.pop()
                for x, y in edges:
                    for a, b in ((x, y), (y, x)):
                        if a == v and b != removed and b not in seen:
                            seen.add(b)
                            todo.append(b)
        return total

    connected = components(None) == 1
    has_cut = connected and len(vertices) > 2 and any(
        components(v) > 1 for v in vertices
    )
    return tuple(edges), connected, has_cut
