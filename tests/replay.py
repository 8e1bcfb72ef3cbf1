"""Replay a CLI norm or achirality record from its JSON and its argv alone.

Every claim of a `norm acl`, `sacl`, `cl`, `bfs` or `auto achiral` record
is re-derived here with letter-tuple arithmetic that imports nothing from
autqm: a-z are the letters 1..26 and A-Z their inverses.
`replay(argv, record)` raises Mismatch on the first claim that does not
hold:

- each witness tree builds the printed images, and the images and the
  inverse images are mutually inverse;
- each factor is phi(h) h^-1, [u, v] or (bfs) one of the generators;
- the factors multiply back to the target, and there are value of them;
- an achirality witness phi has k = 1, and phi(g), cyclically reduced,
  is a rotation of g^-1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Mismatch(AssertionError):
    pass


def expect(holds: bool, claim: str) -> None:
    if not holds:
        raise Mismatch(claim)


def parse(text: str) -> tuple[int, ...]:
    return tuple(ord(c) - 96 if c.islower() else 64 - ord(c) for c in text)


def reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse(w) -> tuple[int, ...]:
    return tuple(-l for l in reversed(w))


def product(*words) -> tuple[int, ...]:
    return reduce(itertools.chain(*words))


def cyclic(w) -> tuple[int, ...]:
    """The cyclic reduction of a reduced word."""
    i, j = 0, len(w)
    while j - i > 1 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


def is_rotation(u, v) -> bool:
    return len(u) == len(v) and any(u[i:] + u[:i] == v for i in range(len(u)))


def substitute(images, w) -> tuple[int, ...]:
    return product(*(images[l - 1] if l > 0 else inverse(images[-l - 1]) for l in w))


def build(tree: dict, rank: int) -> list[tuple[int, ...]]:
    """The basis images of a witness tree; a composite applies right to left."""
    images = [(i,) for i in range(1, rank + 1)]
    kind = tree["kind"]
    if kind == "composite":
        for part in tree["parts"]:
            images = [substitute(images, w) for w in build(part, rank)]
        return images
    params = tree["params"]
    if kind == "transvection":
        i, j, side = params
        images[j - 1] = (i, j) if side == "left" else (j, i)
    elif kind == "inversion":
        images[params[0] - 1] = (-params[0],)
    elif kind == "permutation":
        images = [(p,) for p in params]
    elif kind == "conjugation-by-word":
        images = [product(params, x, inverse(params)) for x in images]
    else:
        raise Mismatch(f"unknown witness kind {kind!r}")
    return images


def automorphism(obj: dict, rank: int) -> list[tuple[int, ...]]:
    """The printed images, checked against the tree and the inverse images."""
    images = [parse(w) for w in obj["images"]]
    inverse_images = [parse(w) for w in obj["inverse_images"]]
    expect(len(images) == len(inverse_images) == rank, "one image per generator")
    expect(build(obj["witness"], rank) == images, "the witness tree builds the printed images")
    for i in range(1, rank + 1):
        expect(substitute(inverse_images, images[i - 1]) == (i,), "inverse images undo the images")
        expect(substitute(images, inverse_images[i - 1]) == (i,), "images undo the inverse images")
    return images


def signed_closure(gens, rank: int) -> set[tuple[int, ...]]:
    out = set()
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            images = [(s * p,) for s, p in zip(signs, perm)]
            out.update(substitute(images, g) for g in gens)
    return out


def norm(record: dict, target: tuple[int, ...], rank: int, gens=None) -> None:
    """One norm result: its factors replay and multiply back to target."""
    if record["status"] != "exact":
        expect("witness" not in record and "value" not in record, "only exact results have a value")
        return
    factors = record["witness"]
    expect(len(factors) == record["value"], "the value counts the factors")
    for factor in factors:
        word = parse(factor["word"])
        kind = factor.get("kind")
        if kind == "autocommutator":
            h = parse(factor["element"])
            image = substitute(automorphism(factor["auto"], rank), h)
            expect(product(image, inverse(h)) == word, "the factor is phi(h) h^-1")
        elif kind == "commutator":
            u, v = parse(factor["left"]), parse(factor["right"])
            expect(product(u, v, inverse(u), inverse(v)) == word, "the factor is [u, v]")
        else:
            expect(gens is not None and word in gens, "the factor is a generator")
    words = [parse(f["word"]) for f in factors]
    expect(product(*words) == target, "the factors multiply to the target")


def achiral(record: dict, g: tuple[int, ...], rank: int) -> None:
    """An achirality result: phi(g) is conjugate to g^-1."""
    if not record["found"]:
        expect(record.keys() == {"op", "found"}, "only a found witness has images")
        return
    expect(record["k"] == 1, "k is 1")
    image = substitute(automorphism(record, rank), g)
    expect(is_rotation(cyclic(image), cyclic(inverse(g))), "phi(g) is conjugate to g^-1")


def replay(argv: list[str], record: dict) -> None:
    """Check a `norm acl|sacl|cl|bfs` or `auto achiral` record against the
    argv that printed it."""
    options = dict(zip(argv[2::2], argv[3::2]))
    letters = parse(options["--word"])
    target = reduce(letters)
    rank = int(options.get("--rank", max([abs(l) for l in letters] + [2])))
    command = argv[1]
    expect(record["op"] == f"{argv[0]}.{command}", "the record answers the argv")
    if command == "achiral":
        achiral(record, target, rank)
        return
    if command == "sacl":
        for n, step in enumerate(record["trace"], start=1):
            expect(step["n"] == n, "the trace runs over n = 1, 2, ...")
            norm(step, product(*[target] * n), rank)
        found = [Fraction(s["value"], s["n"]) for s in record["trace"] if s["status"] == "exact"]
        upper = str(min(found)) if found else None
        expect(record["upper"] == upper, "upper is the least value/n")
        return
    gens = None
    if command == "bfs":
        gens = {reduce(parse(t)) for t in options["--gens"].split(",")}
        if options.get("--group") == "signed":
            gens = signed_closure(gens, rank)
    norm(record, target, rank, gens)
