"""Command-line surface: one structured JSON record per result.

Words use the compact letter syntax at this boundary only: a-z are the
generators, A-Z their inverses ("abA" is a * b * a^-1).  Automorphisms
are chains of named elementary maps applied left to right, e.g.
"lt(1,2);inv(1);ad(ab)".  Rationals print as p/q in lowest terms.
Exit codes: 0 success, 1 verification violation, 2 bad input, 3 resource
cutoff.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import graphprod as gp
from .automorphisms import (
    Automorphism,
    achirality_search,
    ad,
    apply,
    autocommutator,
    compose_all,
    elementary,
    identity_automorphism,
    signed_permutations,
)
from .norms import (
    acl_upper,
    bfs_norm,
    cl_upper,
    duality_lower_bound,
    invariant_norm_lower_bound,
    orbit_closure,
    sacl_estimate,
)
from .quasimorphisms import (
    FreeGroupDomain,
    brooks,
    brooks_defect_exact,
    brooks_homogeneous,
    build_quasimorphism,
    check_invariance,
    defect_enumerate,
    finite_average,
    product_average,
)
from .verify import SUITES, ExperimentConfig, run_suite
from .whitehead import (
    in_proper_free_factor,
    is_primitive,
    minimize,
    whitehead_graph,
)
from .words import CutoffExceeded, Word, cyclic_reduce, invert, is_conjugate, multiply, power, reduce


class InputError(ValueError):
    pass


def parse_word(text: str, rank: int | None = None) -> Word:
    letters = []
    for column, ch in enumerate(text.strip(), start=1):
        if "a" <= ch <= "z":
            letters.append(ord(ch) - 96)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - 64))
        else:
            raise InputError(f"column {column}: {ch!r} is not a letter")
    inferred = max((abs(l) for l in letters), default=1)
    if rank is None:
        rank = max(inferred, 2)
    if inferred > rank:
        raise InputError(f"letter index {inferred} exceeds rank {rank}")
    return reduce(letters, rank)


def format_word(w: Word) -> str:
    out = []
    for l in w.letters:
        if abs(l) > 26:
            raise InputError("letters beyond z cannot be printed in CLI syntax")
        out.append(chr(96 + l) if l > 0 else chr(64 - l))
    return "".join(out)


def format_rational(x) -> str:
    return str(Fraction(x))


def _read_input(path: str) -> str:
    """Contents of the named file, or of standard input for "-"."""
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def parse_word_pair(left: str, right: str, rank: int | None) -> tuple[Word, Word]:
    """Two words in one free group: the larger of their inferred ranks."""
    u, v = parse_word(left, rank), parse_word(right, rank)
    rank = max(u.rank, v.rank)
    return Word(rank, u.letters), Word(rank, v.letters)


_CHAIN_ARITY = {"swap": 2, "inv": 1, "lt": 2, "rt": 2, "ad": 1}


def parse_auto_chain(text: str, rank: int) -> Automorphism:
    """Chain of named automorphisms, applied in the listed order."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    autos = []
    for part in parts:
        if part == "id":
            autos.append(identity_automorphism(rank))
            continue
        if "(" not in part or not part.endswith(")"):
            raise InputError(f"bad automorphism token {part!r}")
        name, raw_args = part[:-1].split("(", 1)
        args = [a.strip() for a in raw_args.split(",")] if raw_args else []
        if name in _CHAIN_ARITY and len(args) != _CHAIN_ARITY[name]:
            raise InputError(
                f"{name} takes {_CHAIN_ARITY[name]} argument(s), got {len(args)}"
            )
        if name == "swap":
            i, j = (int(a) for a in args)
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise InputError(f"swap indices out of range for rank {rank}")
            images = list(range(1, rank + 1))
            images[i - 1], images[j - 1] = j, i
            autos.append(elementary("permutation", tuple(images), rank))
        elif name == "perm":
            autos.append(elementary("permutation", tuple(int(a) for a in args), rank))
        elif name == "inv":
            autos.append(elementary("inversion", (int(args[0]),), rank))
        elif name in ("lt", "rt"):
            i, j = (int(a) for a in args)
            side = "left" if name == "lt" else "right"
            autos.append(elementary("transvection", (i, j, side), rank))
        elif name == "ad":
            autos.append(ad(parse_word(args[0], rank)))
        else:
            raise InputError(f"unknown automorphism {name!r}")
    # Listed order is application order; composition applies right first.
    return compose_all(reversed(autos), rank)


def parse_group(name: str, rank: int) -> list[Automorphism]:
    if name == "signed":
        return signed_permutations(rank)
    if name == "swap" and rank == 2:
        return [identity_automorphism(rank), elementary("permutation", (2, 1), rank)]
    if name == "trivial":
        return [identity_automorphism(rank)]
    raise InputError(f"unknown group {name!r} (use signed, swap, trivial)")


def auto_record(phi: Automorphism) -> dict:
    record = {
        "images": [format_word(w) for w in phi.images],
        "inverse_images": [format_word(w) for w in phi.inverse_images],
    }
    if phi.witness is not None:
        record["witness"] = phi.witness.to_obj()
    return record


def parse_graph(path: str) -> gp.VertexGraph:
    text = _read_input(path)
    labels: dict[int, int] = {}
    edges = []
    count = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        repeated = None
        try:
            if fields[0] == "vertices" and len(fields) == 2:
                if count is not None:
                    repeated = "a second 'vertices' line"
                count = int(fields[1])
                if count < 0:
                    raise ValueError
            elif fields[0] == "label" and len(fields) == 3:
                vertex = int(fields[1])
                if vertex in labels:
                    repeated = f"a second label for vertex {vertex}"
                labels[vertex] = int(fields[2])
            elif fields[0] == "edge" and len(fields) == 3:
                edges.append((int(fields[1]), int(fields[2])))
            else:
                raise ValueError
        except ValueError:
            raise InputError(f"line {lineno}: cannot parse {raw!r}")
        if repeated:
            raise InputError(f"line {lineno}: {repeated}")
    if count is None:
        raise InputError("missing 'vertices n' header")
    label_list = [labels.pop(i, 0) for i in range(count)]
    if labels:
        raise InputError(f"label for unknown vertex {min(labels)}")
    try:
        return gp.VertexGraph.build(label_list, edges)
    except ValueError as exc:
        raise InputError(str(exc))


def parse_gp_word(graph: gp.VertexGraph, text: str) -> gp.GPWord:
    sylls = []
    for token in text.split():
        if "^" in token:
            v, e = token.split("^", 1)
        else:
            v, e = token, "1"
        try:
            sylls.append((int(v), int(e)))
        except ValueError:
            raise InputError(f"bad syllable token {token!r}")
    try:
        return gp.normal_form(graph, sylls)
    except ValueError as exc:
        raise InputError(str(exc))


def format_gp_word(x: gp.GPWord) -> str:
    return " ".join(f"{v}^{e}" for v, e in x.syllables) or "e"


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _counting_qm(pattern: Word, homog: bool):
    """The counting quasimorphism of the pattern, homogenised if asked."""
    return brooks_homogeneous(pattern) if homog else brooks(pattern)


def _averaged_qm(args, rank: int):
    """The homogenised --pattern counting quasimorphism averaged over --group."""
    pattern = parse_word(args.pattern, rank)
    return finite_average(brooks_homogeneous(pattern), parse_group(args.group, rank))


def _norm_record(result) -> dict:
    record = {"status": result.status}
    if result.value is not None:
        record["value"] = result.value
    if result.cutoff is not None:
        record["cutoff"] = result.cutoff
    if result.witness is not None:
        factors = []
        for factor in result.witness:
            entry = {"word": format_word(factor.value)}
            if factor.provenance:
                kind = factor.provenance[0]
                entry["kind"] = kind
                if kind == "autocommutator":
                    entry["auto"] = auto_record(factor.provenance[1])
                    entry["element"] = format_word(factor.provenance[2])
                elif kind == "commutator":
                    entry["left"] = format_word(factor.provenance[1])
                    entry["right"] = format_word(factor.provenance[2])
            factors.append(entry)
        record["witness"] = factors
    return record


def cmd_word(args) -> int:
    rank = args.rank
    if args.word_op == "reduce":
        w = parse_word(args.word, rank)
        emit({"op": "word.reduce", "input": args.word, "value": format_word(w)})
    elif args.word_op == "mul":
        u, v = parse_word_pair(args.left, args.right, rank)
        emit({"op": "word.mul", "value": format_word(multiply(u, v))})
    elif args.word_op == "inv":
        emit({"op": "word.inv", "value": format_word(invert(parse_word(args.word, rank)))})
    elif args.word_op == "pow":
        w = parse_word(args.word, rank)
        emit({"op": "word.pow", "value": format_word(power(w, args.exponent))})
    elif args.word_op == "cyc":
        core, conj = cyclic_reduce(parse_word(args.word, rank))
        emit(
            {
                "op": "word.cyc",
                "core": format_word(core.as_word()),
                "conjugator": format_word(conj),
            }
        )
    elif args.word_op == "conj":
        u, v = parse_word_pair(args.left, args.right, rank)
        emit({"op": "word.conj", "value": is_conjugate(u, v)})
    return 0


def cmd_auto(args) -> int:
    rank = args.rank
    if args.auto_op == "apply":
        w = parse_word(args.word, rank)
        phi = parse_auto_chain(args.auto, w.rank)
        emit({"op": "auto.apply", "value": format_word(apply(phi, w))})
    elif args.auto_op == "compose":
        phi = parse_auto_chain(args.auto, 2 if rank is None else rank)
        emit({"op": "auto.compose", **auto_record(phi)})
    elif args.auto_op == "ad":
        w = parse_word(args.word, rank)
        emit({"op": "auto.ad", **auto_record(ad(w))})
    elif args.auto_op == "autocomm":
        w = parse_word(args.word, rank)
        phi = parse_auto_chain(args.auto, w.rank)
        emit({"op": "auto.autocomm", "value": format_word(autocommutator(phi, w))})
    elif args.auto_op == "achiral":
        w = parse_word(args.word, rank)
        found = achirality_search(w, args.kmax, args.depth)
        if found is None:
            emit({"op": "auto.achiral", "found": False})
        else:
            phi, k = found
            emit({"op": "auto.achiral", "found": True, "k": k, **auto_record(phi)})
    return 0


def cmd_wh(args) -> int:
    w = parse_word(args.word, args.rank)
    if args.wh_op == "min":
        minimal, trace = minimize(w)
        emit(
            {
                "op": "wh.min",
                "value": format_word(minimal),
                "length": len(minimal),
                "trace": [
                    {"auto": auto_record(phi), "result": format_word(result)}
                    for phi, result in trace
                ],
            }
        )
    elif args.wh_op == "primitive":
        emit({"op": "wh.primitive", "value": is_primitive(w)})
    elif args.wh_op == "freefactor":
        emit({"op": "wh.freefactor", "value": in_proper_free_factor(w)})
    elif args.wh_op == "graph":
        graph = whitehead_graph(cyclic_reduce(w)[0].as_word())
        emit(
            {
                "op": "wh.graph",
                "edges": [[format_word(Word(w.rank, (x,))), format_word(Word(w.rank, (y,)))] for x, y in graph.edges],
                "connected": graph.connected,
                "has_cut_vertex": graph.has_cut_vertex,
            }
        )
    return 0


def cmd_qm(args) -> int:
    if args.qm_op in ("brooks", "homog"):
        f = _counting_qm(parse_word(args.pattern), args.qm_op == "homog")
        emit({"op": f"qm.{args.qm_op}", "value": format_rational(f(parse_word(args.on, f.domain.rank)))})
    elif args.qm_op == "defect":
        pattern = parse_word(args.pattern)
        if args.exact:
            cert = brooks_defect_exact(pattern)
        else:
            cert = defect_enumerate(_counting_qm(pattern, args.homog), args.max_len)
        record = {
            "op": "qm.defect",
            "bound_type": cert.bound_type,
            "value": format_rational(cert.value),
            "range": cert.enumeration_range,
        }
        if cert.witness:
            record["witness"] = [format_word(x) for x in cert.witness]
        emit(record)
    elif args.qm_op == "average":
        pattern = parse_word(args.pattern)
        f = finite_average(
            _counting_qm(pattern, args.homog), parse_group(args.group, pattern.rank)
        )
        emit({"op": "qm.average", "value": format_rational(f(parse_word(args.on, pattern.rank)))})
    elif args.qm_op == "product-average":
        pattern = parse_word(args.pattern)
        f = product_average(_counting_qm(pattern, args.homog), args.k, args.n)
        words = [parse_word(t, pattern.rank) for t in args.on.split(",")]
        if len(words) != args.n:
            raise InputError(f"expected {args.n} comma-separated words")
        emit({"op": "qm.product-average", "value": format_rational(f(tuple(words)))})
    elif args.qm_op == "invariance":
        pattern = parse_word(args.pattern)
        f = _counting_qm(pattern, args.homog)
        phi = parse_auto_chain(args.auto, pattern.rank)
        samples = [parse_word(t, pattern.rank) for t in args.samples.split(",")]
        report = check_invariance(f, [phi], samples)
        emit(
            {
                "op": "qm.invariance",
                "checked": report.checked,
                "violations": [
                    {
                        "sample": format_word(g),
                        "image_value": format_rational(left),
                        "value": format_rational(right),
                    }
                    for _, g, left, right in report.violations
                ],
            }
        )
    elif args.qm_op == "eval":
        try:
            spec = _as_tuples(json.loads(_read_input(args.spec)))
            f = build_quasimorphism(spec)
            if not isinstance(f.domain, FreeGroupDomain):
                raise InputError(f"qm eval needs a free-group spec, got {f.domain.describe()}")
            value = f(parse_word(args.on, f.domain.rank))
        except (LookupError, TypeError, ZeroDivisionError) as exc:
            raise InputError(f"malformed quasimorphism spec: {exc!r}")
        except RecursionError:
            # Parsing, decoding, building and evaluating all recurse on the nesting.
            raise InputError("quasimorphism spec is nested too deeply")
        emit({"op": "qm.eval", "value": format_rational(value)})
    return 0


def _as_tuples(obj):
    # The library writes only strings, integers and lists into a provenance.
    if isinstance(obj, list):
        return tuple(_as_tuples(x) for x in obj)
    if isinstance(obj, (bool, float)):
        raise InputError(f"spec holds {json.dumps(obj)}; its numbers must be integers")
    return obj


def cmd_norm(args) -> int:
    w = parse_word(args.word, args.rank)
    if args.norm_op == "bfs":
        gens = [parse_word(t, w.rank) for t in args.gens.split(",")]
        if args.group != "none":
            gens = list(orbit_closure(gens, parse_group(args.group, w.rank)))
        result = bfs_norm(w, gens, args.cutoff)
        emit({"op": "norm.bfs", **_norm_record(result)})
    elif args.norm_op == "acl":
        result = acl_upper(w, args.pool_depth, args.elem_len, args.kmax)
        emit({"op": "norm.acl", **_norm_record(result)})
    elif args.norm_op == "cl":
        result = cl_upper(w, args.len_cap, args.kmax)
        emit({"op": "norm.cl", **_norm_record(result)})
    elif args.norm_op == "sacl":
        estimate = sacl_estimate(
            w, args.nmax, args.pool_depth, args.elem_len, args.kmax
        )
        emit(
            {
                "op": "norm.sacl",
                "upper": None if estimate.upper is None else format_rational(estimate.upper),
                "lower": format_rational(estimate.lower),
                "restricted_lower": format_rational(estimate.restricted_lower),
                "trace": [
                    {"n": n, **_norm_record(result)} for n, result in estimate.trace
                ],
            }
        )
    elif args.norm_op == "bound":
        f = _averaged_qm(args, w.rank)
        gens = [parse_word(t, w.rank) for t in args.gens.split(",")]
        emit(
            {
                "op": "norm.bound",
                "value": format_rational(invariant_norm_lower_bound(f, gens, w)),
            }
        )
    elif args.norm_op == "bavard":
        bound = duality_lower_bound(_averaged_qm(args, w.rank), w)
        emit(
            {
                "op": "norm.bavard",
                "value": format_rational(bound),
                "scope": "restricted-to-group",
            }
        )
    return 0


def cmd_gp(args) -> int:
    graph = parse_graph(args.graph)
    if args.gp_op == "nf":
        emit({"op": "gp.nf", "value": format_gp_word(parse_gp_word(graph, args.word))})
    elif args.gp_op == "mul":
        x = parse_gp_word(graph, args.left)
        y = parse_gp_word(graph, args.right)
        emit({"op": "gp.mul", "value": format_gp_word(gp.gp_multiply(x, y))})
    elif args.gp_op == "join":
        d = gp.join_decompose(graph)
        emit(
            {
                "op": "gp.join",
                "gamma0": list(d.gamma0),
                "factors": [list(f) for f in d.factors],
                "iso_classes": [list(c) for c in d.iso_classes],
            }
        )
    elif args.gp_op == "dinfty":
        factor = tuple(int(v) for v in args.factor.split(","))
        for v in factor:
            if v not in graph.vertices:
                raise InputError(f"unknown vertex {v}")
        emit({"op": "gp.dinfty", "value": gp.is_dinfty(graph, factor)})
    elif args.gp_op == "classify":
        emit({"op": "gp.classify", "virtually_abelian": gp.classify_virtually_abelian(graph)})
    elif args.gp_op == "project":
        d = gp.join_decompose(graph)
        components = gp.project_kill_h0(parse_gp_word(graph, args.word), d)
        emit(
            {
                "op": "gp.project",
                "components": [format_gp_word(c) for c in components],
            }
        )
    elif args.gp_op == "pipeline":
        d = gp.join_decompose(graph)
        f = brooks_homogeneous(parse_word(args.pattern))
        qm = gp.gp_pipeline_qm(graph, d, f, args.k)
        emit(
            {
                "op": "gp.pipeline",
                "value": format_rational(qm(parse_gp_word(graph, args.on))),
            }
        )
    return 0


def cmd_verify(args) -> int:
    seed = args.seed
    if args.config:
        with open(args.config) as handle:
            data = json.load(handle)
        # JSON true would pass for an integer; a bad config is input, not a violation.
        if not isinstance(data, dict) or type(data.get("seed", 0)) is not int:
            raise InputError("--config must be a JSON object with an integer seed")
        if seed is None:
            seed = data.get("seed")
    config = ExperimentConfig(seed=0 if seed is None else seed)
    results = run_suite(args.suite, config)
    for result in results:
        emit({"op": "verify", **result.record()})
        print(f"# {result.name}: {result.seconds:.2f}s", file=sys.stderr)
    return 1 if any(not r.passed for r in results) else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A usage error, in a subcommand too, is bad input: one JSON line.
        raise InputError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="autqm",
        description="Exact free-group, quasimorphism, norm, and graph-product computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="free-group word arithmetic")
    word_sub = word.add_subparsers(dest="word_op", required=True)
    p = word_sub.add_parser("reduce")
    p.add_argument("word")
    p = word_sub.add_parser("mul")
    p.add_argument("left")
    p.add_argument("right")
    p = word_sub.add_parser("inv")
    p.add_argument("word")
    p = word_sub.add_parser("pow")
    p.add_argument("word")
    p.add_argument("exponent", type=int)
    p = word_sub.add_parser("cyc")
    p.add_argument("word")
    p = word_sub.add_parser("conj")
    p.add_argument("left")
    p.add_argument("right")
    for p in word_sub.choices.values():
        p.add_argument("--rank", type=int, default=None)
    word.set_defaults(func=cmd_word)

    auto = sub.add_parser("auto", help="automorphism operations")
    auto_sub = auto.add_subparsers(dest="auto_op", required=True)
    p = auto_sub.add_parser("apply")
    p.add_argument("--auto", required=True)
    p.add_argument("--word", required=True)
    p = auto_sub.add_parser("compose")
    p.add_argument("--auto", required=True)
    p = auto_sub.add_parser("ad")
    p.add_argument("--word", required=True)
    p = auto_sub.add_parser("autocomm")
    p.add_argument("--auto", required=True)
    p.add_argument("--word", required=True)
    p = auto_sub.add_parser("achiral")
    p.add_argument("--word", required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--depth", type=int, default=1)
    for p in auto_sub.choices.values():
        p.add_argument("--rank", type=int, default=None)
    auto.set_defaults(func=cmd_auto)

    wh = sub.add_parser("wh", help="Whitehead minimization and predicates")
    wh_sub = wh.add_subparsers(dest="wh_op", required=True)
    for name in ("min", "primitive", "freefactor", "graph"):
        p = wh_sub.add_parser(name)
        p.add_argument("--word", required=True)
        p.add_argument("--rank", type=int, default=None)
    wh.set_defaults(func=cmd_wh)

    qm = sub.add_parser("qm", help="counting quasimorphisms")
    qm_sub = qm.add_subparsers(dest="qm_op", required=True)
    p = qm_sub.add_parser("brooks")
    p.add_argument("--pattern", required=True)
    p.add_argument("--on", required=True)
    p = qm_sub.add_parser("homog")
    p.add_argument("--pattern", required=True)
    p.add_argument("--on", required=True)
    p = qm_sub.add_parser("defect")
    p.add_argument("--pattern", required=True)
    p.add_argument("--homog", action="store_true")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--max-len", type=int, default=3)
    p = qm_sub.add_parser("average")
    p.add_argument("--pattern", required=True)
    p.add_argument("--on", required=True)
    p.add_argument("--group", default="signed")
    p.add_argument("--homog", action=argparse.BooleanOptionalAction, default=True)
    p = qm_sub.add_parser("product-average")
    p.add_argument("--pattern", required=True)
    p.add_argument("--on", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--homog", action=argparse.BooleanOptionalAction, default=True)
    p = qm_sub.add_parser("invariance")
    p.add_argument("--pattern", required=True)
    p.add_argument("--auto", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--homog", action=argparse.BooleanOptionalAction, default=True)
    p = qm_sub.add_parser("eval")
    p.add_argument("--spec", required=True, help="provenance JSON file or -")
    p.add_argument("--on", required=True)
    qm.set_defaults(func=cmd_qm)

    norm = sub.add_parser("norm", help="word norms and length estimates")
    norm_sub = norm.add_subparsers(dest="norm_op", required=True)
    p = norm_sub.add_parser("bfs")
    p.add_argument("--word", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--group", default="none")
    p.add_argument("--cutoff", type=int, default=8)
    p = norm_sub.add_parser("acl")
    p.add_argument("--word", required=True)
    p = norm_sub.add_parser("cl")
    p.add_argument("--word", required=True)
    p.add_argument("--len-cap", type=int, default=3)
    p = norm_sub.add_parser("sacl")
    p.add_argument("--word", required=True)
    p.add_argument("--nmax", type=int, default=8)
    p = norm_sub.add_parser("bound")
    p.add_argument("--word", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--group", default="signed")
    p = norm_sub.add_parser("bavard")
    p.add_argument("--word", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--group", default="signed")
    for name, p in norm_sub.choices.items():
        p.add_argument("--rank", type=int, default=None)
        if name in ("acl", "sacl"):
            p.add_argument("--pool-depth", type=int, default=1)
            p.add_argument("--elem-len", type=int, default=3)
        if name in ("acl", "cl", "sacl"):
            p.add_argument("--kmax", type=int, default=2)
    norm.set_defaults(func=cmd_norm)

    gpp = sub.add_parser("gp", help="graph products")
    gp_sub = gpp.add_subparsers(dest="gp_op", required=True)
    p = gp_sub.add_parser("nf")
    p.add_argument("--word", required=True)
    p = gp_sub.add_parser("mul")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p = gp_sub.add_parser("join")
    p = gp_sub.add_parser("dinfty")
    p.add_argument("--factor", required=True)
    p = gp_sub.add_parser("classify")
    p = gp_sub.add_parser("project")
    p.add_argument("--word", required=True)
    p = gp_sub.add_parser("pipeline")
    p.add_argument("--pattern", required=True)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--on", required=True)
    for p in gp_sub.choices.values():
        p.add_argument("--graph", required=True, help="graph file or -")
    gpp.set_defaults(func=cmd_gp)

    verify = sub.add_parser("verify", help="run acceptance suites")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--config", default=None, help="JSON config file")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if getattr(args, "rank", None) is not None and args.rank < 1:
            raise InputError(f"--rank must be at least 1, got {args.rank}")
        return args.func(args)
    except CutoffExceeded as exc:
        print(json.dumps({"error": str(exc), "cutoff": True}), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
