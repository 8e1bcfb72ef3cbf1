"""Command-line surface: one structured JSON record per result.

Words use the compact letter syntax at this boundary only: a-z are the
generators, A-Z their inverses ("abA" is a * b * a^-1).  Automorphisms
are chains of named elementary maps applied left to right, e.g.
"lt(1,2);inv(1);ad(ab)".  Rationals print as p/q in lowest terms.
Each command is one handler, registered by @command with its path and
options; make_parser builds the tree, and main adds the record's "op".
Exit codes: 0 success, 1 verification violation, 2 bad input, 3 resource
cutoff.  `qm defect --exact --homog` and a `--rank` outside 1-26 are bad
input; a search or a table past its size cap is a cutoff.
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


def _as_tuples(obj):
    # The library writes only strings, integers and lists into a provenance.
    if isinstance(obj, list):
        return tuple(_as_tuples(x) for x in obj)
    if isinstance(obj, (bool, float)):
        raise InputError(f"spec holds {json.dumps(obj)}; its numbers must be integers")
    return obj


def opt(flag: str, **kwargs) -> tuple[str, dict]:
    """An option: its flag (or positional name) and add_argument keywords."""
    return flag, kwargs


RANK = opt("--rank", type=int)
GRAPH = opt("--graph", required=True, help="graph file or -")
HOMOG = opt("--homog", action=argparse.BooleanOptionalAction, default=True)
GROUP = opt("--group", default="signed")
KMAX = opt("--kmax", type=int, default=2)
POOL = (opt("--pool-depth", type=int, default=1), opt("--elem-len", type=int, default=3), KMAX)

# Each top-level name's help line, then the options every command under it takes.
GROUPS = {
    "word": ("free-group word arithmetic", RANK),
    "auto": ("automorphism operations", RANK),
    "wh": ("Whitehead minimization and predicates", RANK),
    "qm": ("counting quasimorphisms",),
    "norm": ("word norms and length estimates", RANK),
    "gp": ("graph products", GRAPH),
    "verify": ("run acceptance suites",),
}

# Command path -> (handler, options, tuning options, parser defaults), in the
# order --help lists them.
COMMANDS: dict[str, tuple] = {}


def command(path: str, *options, tuning=(), **defaults):
    """Register a handler as the command path ("group name" or "name").

    An option is a name (positional), a --flag (a required string) or an
    opt(...); the group's shared options follow the command's own, and
    tuning follows those.  The handler returns its record without "op", or
    an iterator of records.
    """

    def register(handler):
        COMMANDS[path] = (handler, options, tuning, defaults)
        return handler

    return register


def _word(args) -> Word:
    return parse_word(args.word, args.rank)


@command("word reduce", "word")
def word_reduce(args):
    return {"input": args.word, "value": format_word(_word(args))}


@command("word mul", "left", "right")
def word_mul(args):
    u, v = parse_word_pair(args.left, args.right, args.rank)
    return {"value": format_word(multiply(u, v))}


@command("word inv", "word")
def word_inv(args):
    return {"value": format_word(invert(_word(args)))}


@command("word pow", "word", opt("exponent", type=int))
def word_pow(args):
    return {"value": format_word(power(_word(args), args.exponent))}


@command("word cyc", "word")
def word_cyc(args):
    core, conj = cyclic_reduce(_word(args))
    return {"core": format_word(core.as_word()), "conjugator": format_word(conj)}


@command("word conj", "left", "right")
def word_conj(args):
    u, v = parse_word_pair(args.left, args.right, args.rank)
    return {"value": is_conjugate(u, v)}


@command("auto apply", "--auto", "--word", act=apply)
def auto_apply(args):
    w = _word(args)
    phi = parse_auto_chain(args.auto, w.rank)
    return {"value": format_word(args.act(phi, w))}


@command("auto compose", "--auto")
def auto_compose(args):
    return auto_record(parse_auto_chain(args.auto, 2 if args.rank is None else args.rank))


@command("auto ad", "--word")
def auto_ad(args):
    return auto_record(ad(_word(args)))


command("auto autocomm", "--auto", "--word", act=autocommutator)(auto_apply)


@command("auto achiral", "--word", KMAX, opt("--depth", type=int, default=1))
def auto_achiral(args):
    found = achirality_search(_word(args), args.kmax, args.depth)
    if found is None:
        return {"found": False}
    phi, k = found
    return {"found": True, "k": k, **auto_record(phi)}


@command("wh min", "--word")
def wh_min(args):
    minimal, trace = minimize(_word(args))
    return {
        "value": format_word(minimal),
        "length": len(minimal),
        "trace": [
            {"auto": auto_record(phi), "result": format_word(result)}
            for phi, result in trace
        ],
    }


# Registered bottom-up: primitive, then freefactor.
@command("wh freefactor", "--word", predicate=in_proper_free_factor)
@command("wh primitive", "--word", predicate=is_primitive)
def wh_predicate(args):
    return {"value": args.predicate(_word(args))}


@command("wh graph", "--word")
def wh_graph(args):
    w = _word(args)
    graph = whitehead_graph(cyclic_reduce(w)[0].as_word())
    return {
        "edges": [[format_word(Word(w.rank, (x,))), format_word(Word(w.rank, (y,)))] for x, y in graph.edges],
        "connected": graph.connected,
        "has_cut_vertex": graph.has_cut_vertex,
    }


# Registered bottom-up: brooks, then homog.
@command("qm homog", "--pattern", "--on", homog=True)
@command("qm brooks", "--pattern", "--on", homog=False)
def qm_value(args):
    f = _counting_qm(parse_word(args.pattern), args.homog)
    return {"value": format_rational(f(parse_word(args.on, f.domain.rank)))}


@command("qm defect", "--pattern", opt("--homog", action="store_true"), opt("--exact", action="store_true"),
         opt("--max-len", type=int, default=3))
def qm_defect(args):
    if args.exact and args.homog:
        raise InputError("--exact gives the raw counting function's defect; drop --homog")
    pattern = parse_word(args.pattern)
    if args.exact:
        cert = brooks_defect_exact(pattern)
    else:
        cert = defect_enumerate(_counting_qm(pattern, args.homog), args.max_len)
    record = {
        "bound_type": cert.bound_type,
        "value": format_rational(cert.value),
        "range": cert.enumeration_range,
    }
    if cert.witness:
        record["witness"] = [format_word(x) for x in cert.witness]
    return record


@command("qm average", "--pattern", "--on", GROUP, HOMOG)
def qm_average(args):
    pattern = parse_word(args.pattern)
    f = finite_average(
        _counting_qm(pattern, args.homog), parse_group(args.group, pattern.rank)
    )
    return {"value": format_rational(f(parse_word(args.on, pattern.rank)))}


@command("qm product-average", "--pattern", "--on", opt("-k", type=int, required=True),
         opt("-n", type=int, required=True), HOMOG)
def qm_product_average(args):
    pattern = parse_word(args.pattern)
    f = product_average(_counting_qm(pattern, args.homog), args.k, args.n)
    words = [parse_word(t, pattern.rank) for t in args.on.split(",")]
    if len(words) != args.n:
        raise InputError(f"expected {args.n} comma-separated words")
    return {"value": format_rational(f(tuple(words)))}


@command("qm invariance", "--pattern", "--auto", "--samples", HOMOG)
def qm_invariance(args):
    pattern = parse_word(args.pattern)
    f = _counting_qm(pattern, args.homog)
    phi = parse_auto_chain(args.auto, pattern.rank)
    samples = [parse_word(t, pattern.rank) for t in args.samples.split(",")]
    report = check_invariance(f, [phi], samples)
    return {
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


@command("qm eval", opt("--spec", required=True, help="provenance JSON file or -"), "--on")
def qm_eval(args):
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
    return {"value": format_rational(value)}


@command("norm bfs", "--word", "--gens", opt("--group", default="none"),
         opt("--cutoff", type=int, default=8))
def norm_bfs(args):
    w = _word(args)
    gens = [parse_word(t, w.rank) for t in args.gens.split(",")]
    if args.group != "none":
        gens = list(orbit_closure(gens, parse_group(args.group, w.rank)))
    return _norm_record(bfs_norm(w, gens, args.cutoff))


@command("norm acl", "--word", tuning=POOL)
def norm_acl(args):
    return _norm_record(acl_upper(_word(args), args.pool_depth, args.elem_len, args.kmax))


@command("norm cl", "--word", opt("--len-cap", type=int, default=3), tuning=(KMAX,))
def norm_cl(args):
    return _norm_record(cl_upper(_word(args), args.len_cap, args.kmax))


@command("norm sacl", "--word", opt("--nmax", type=int, default=8), tuning=POOL)
def norm_sacl(args):
    estimate = sacl_estimate(
        _word(args), args.nmax, args.pool_depth, args.elem_len, args.kmax
    )
    return {
        "upper": None if estimate.upper is None else format_rational(estimate.upper),
        "lower": format_rational(estimate.lower),
        "restricted_lower": format_rational(estimate.restricted_lower),
        "trace": [
            {"n": n, **_norm_record(result)} for n, result in estimate.trace
        ],
    }


@command("norm bound", "--word", "--gens", "--pattern", GROUP)
def norm_bound(args):
    w = _word(args)
    f = _averaged_qm(args, w.rank)
    gens = [parse_word(t, w.rank) for t in args.gens.split(",")]
    return {"value": format_rational(invariant_norm_lower_bound(f, gens, w))}


@command("norm bavard", "--word", "--pattern", GROUP)
def norm_bavard(args):
    w = _word(args)
    bound = duality_lower_bound(_averaged_qm(args, w.rank), w)
    return {"value": format_rational(bound), "scope": "restricted-to-group"}


@command("gp nf", "--word")
def gp_nf(args):
    graph = parse_graph(args.graph)
    return {"value": format_gp_word(parse_gp_word(graph, args.word))}


@command("gp mul", "--left", "--right")
def gp_mul(args):
    graph = parse_graph(args.graph)
    x = parse_gp_word(graph, args.left)
    y = parse_gp_word(graph, args.right)
    return {"value": format_gp_word(gp.gp_multiply(x, y))}


@command("gp join")
def gp_join(args):
    d = gp.join_decompose(parse_graph(args.graph))
    return {
        "gamma0": list(d.gamma0),
        "factors": [list(f) for f in d.factors],
        "iso_classes": [list(c) for c in d.iso_classes],
    }


@command("gp dinfty", "--factor")
def gp_dinfty(args):
    graph = parse_graph(args.graph)
    factor = tuple(int(v) for v in args.factor.split(","))
    for v in factor:
        if v not in graph.vertices:
            raise InputError(f"unknown vertex {v}")
    return {"value": gp.is_dinfty(graph, factor)}


@command("gp classify")
def gp_classify(args):
    return {"virtually_abelian": gp.classify_virtually_abelian(parse_graph(args.graph))}


@command("gp project", "--word")
def gp_project(args):
    graph = parse_graph(args.graph)
    d = gp.join_decompose(graph)
    components = gp.project_kill_h0(parse_gp_word(graph, args.word), d)
    return {"components": [format_gp_word(c) for c in components]}


@command("gp pipeline", "--pattern", opt("-k", type=int, default=1), "--on")
def gp_pipeline(args):
    graph = parse_graph(args.graph)
    d = gp.join_decompose(graph)
    f = brooks_homogeneous(parse_word(args.pattern))
    qm = gp.gp_pipeline_qm(graph, d, f, args.k)
    return {"value": format_rational(qm(parse_gp_word(graph, args.on)))}


@command("verify", opt("suite", choices=sorted(SUITES)), opt("--seed", type=int),
         opt("--config", help="JSON config file"))
def run_verify(args):
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
    for result in run_suite(args.suite, config):
        yield result.record()
        print(f"# {result.name}: {result.seconds:.2f}s", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A usage error, in a subcommand too, is bad input: one JSON line.
        raise InputError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="autqm",
        description="Exact free-group, quasimorphism, norm, and graph-product computations",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (handler, options, tuning, defaults) in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        summary, *shared = GROUPS[group or name]
        if group and group not in groups:
            group_parser = top.add_parser(group, help=summary)
            groups[group] = group_parser.add_subparsers(dest=f"{group}_op", required=True)
        leaf = groups[group].add_parser(name) if group else top.add_parser(name, help=summary)
        for spec in (*options, *shared, *tuning):
            if isinstance(spec, str):
                spec = opt(spec, required=True) if spec.startswith("-") else opt(spec)
            leaf.add_argument(spec[0], **spec[1])
        leaf.set_defaults(func=handler, op=path.replace(" ", "."), **defaults)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        rank = getattr(args, "rank", None)
        if rank is not None and not 1 <= rank <= 26:
            raise InputError(f"--rank must be at {'least 1' if rank < 1 else 'most 26'}, got {rank}")
        out = args.func(args)
        failed = False
        for record in [out] if isinstance(out, dict) else out:
            print(json.dumps({"op": args.op, **record}, sort_keys=True))
            failed |= record.get("passed") is False
        return 1 if failed else 0
    except CutoffExceeded as exc:
        print(json.dumps({"error": str(exc), "cutoff": True}), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
