"""The CLI's golden table: argv -> exact stdout, stderr and exit code.

tests/test_cli_golden.py replays tests/data/cli-golden.json.  To rebuild
the table from the code on the path, run from the repository root:

    PYTHONPATH=src python tests/cli_golden.py

Every argv runs in process, in a directory holding FILES, with COLUMNS=80
so that --help wraps the same way everywhere.  verify's per-check wall
times on stderr are masked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).parent / "data" / "cli-golden.json"

FILES = {
    "square.graph": "vertices 4\nlabel 0 2\nlabel 1 2\nlabel 2 2\nlabel 3 2\n"
    "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n",
    "pipe.graph": "vertices 5\n" + "".join(f"label {v} 0\n" for v in range(5))
    + "edge 0 1\nedge 0 2\nedge 0 3\nedge 0 4\nedge 1 3\nedge 1 4\nedge 2 3\nedge 2 4\n",
    "dihedral.graph": "vertices 2\nlabel 0 2\nlabel 1 2\n",
    "bad.graph": "vertices 2\nlabel 0 1\n",
    "brooks.json": '["brooks", 2, [1, 2]]',
    "product.json": '["zero", ["product", 2, 2]]',
    "seed7.json": '{"seed": 7}',
    "list.json": "[1]",
}

GROUP_HELP = [["--help"]] + [
    [group, "--help"] for group in ("word", "auto", "wh", "qm", "norm", "gp", "verify")
]

CASES = GROUP_HELP + [
    [],
    ["bogus"],
    ["word", "reduce", "abBA"],
    ["word", "reduce", "abc", "--rank", "3"],
    ["word", "reduce", "ab1"],
    ["word", "reduce", "abc", "--rank", "2"],
    ["word", "reduce", "ab", "--rank", "0"],
    ["word", "reduce", "ab", "--frobnicate"],
    ["word", "reduce", "ab", "--r", "3"],
    ["word"],
    ["word", "bogus"],
    ["word", "mul", "ab", "BA"],
    ["word", "mul", "abc", "C", "--rank", "3"],
    ["word", "mul", "ab"],
    ["word", "inv", "abC"],
    ["word", "inv", ""],
    ["word", "pow", "ab", "3"],
    ["word", "pow", "aB", "-2"],
    ["word", "pow", "ab", "x"],
    ["word", "pow", "ab", "100000000000"],
    ["word", "cyc", "abA"],
    ["word", "conj", "ab", "ba"],
    ["word", "conj", "ab", "aa"],
    ["auto"],
    ["auto", "apply", "--auto", "swap(1,2)", "--word", "abAB"],
    ["auto", "apply", "--auto", "perm(2,3,1)", "--word", "abc"],
    ["auto", "apply", "--auto", "id", "--word", "ab"],
    ["auto", "apply", "--auto", "inv(1);lt(1,2);rt(2,1)", "--word", "ab"],
    ["auto", "apply", "--auto", "ad(ab)", "--word", "b"],
    ["auto", "apply", "--auto", "swap(1,5)", "--word", "ab"],
    ["auto", "apply", "--auto", "ad()", "--word", "ab"],
    ["auto", "apply", "--auto", "frob(1)", "--word", "ab"],
    ["auto", "apply", "--auto", "lt", "--word", "ab"],
    ["auto", "apply", "--word", "ab"],
    ["auto", "compose", "--auto", "lt(1,2);swap(1,2)"],
    ["auto", "compose", "--auto", "id", "--rank", "3"],
    ["auto", "compose", "--auto", "perm(2,1)"],
    ["auto", "compose", "--auto", "id", "--rank", "0"],
    ["auto", "ad", "--word", "ab"],
    ["auto", "autocomm", "--auto", "lt(1,2)", "--word", "b"],
    ["auto", "achiral", "--word", "abAB"],
    ["auto", "achiral", "--word", "aab", "--kmax", "2", "--depth", "1"],
    ["auto", "achiral", "--word", "ab", "--kmax", "-1"],
    ["auto", "achiral", "--word", "ab", "--depth", "12"],
    ["auto", "achiral", "--word", "ab", "--kmax", "2000"],
    ["auto", "achiral", "--word", "abAB", "--depth", "0", "--kmax", "20000"],
    ["wh", "min", "--word", "abb"],
    ["wh", "min", "--word", "abAB"],
    ["wh", "min"],
    ["wh", "primitive", "--word", "ab"],
    ["wh", "primitive", "--word", "abAB"],
    ["wh", "freefactor", "--word", "aabb", "--rank", "3"],
    ["wh", "freefactor", "--word", "abAB"],
    ["wh", "min", "--word", "ab", "--rank", "9"],
    ["wh", "primitive", "--word", "ab", "--rank", "26"],
    ["wh", "freefactor", "--word", "ab", "--rank", "9"],
    ["wh", "graph", "--word", "abAB"],
    ["wh", "graph", "--word", "abcAC", "--rank", "3"],
    ["qm", "brooks", "--pattern", "ab", "--on", "abab"],
    ["qm", "homog", "--pattern", "ab", "--on", "abAB"],
    ["qm", "brooks", "--pattern", "ab"],
    ["qm", "defect", "--pattern", "ab", "--exact"],
    ["qm", "defect", "--pattern", "ab", "--max-len", "2"],
    ["qm", "defect", "--pattern", "ab", "--homog", "--max-len", "2"],
    ["qm", "defect", "--pattern", "ab", "--max-len", "-1"],
    ["qm", "average", "--pattern", "ab", "--on", "abab", "--group", "swap"],
    ["qm", "average", "--pattern", "ab", "--on", "abab", "--group", "swap", "--no-homog"],
    ["qm", "average", "--pattern", "aab", "--on", "aabb"],
    ["qm", "average", "--pattern", "ab", "--on", "ab", "--group", "bogus"],
    ["qm", "product-average", "--pattern", "ab", "--on", "ab,ba", "-k", "1", "-n", "2"],
    ["qm", "product-average", "--pattern", "ab", "--on", "ab", "-k", "1", "-n", "2"],
    ["qm", "invariance", "--pattern", "ab", "--auto", "swap(1,2)", "--samples", "ab,abAB"],
    [
        "qm", "invariance", "--pattern", "ab", "--auto", "swap(1,2)",
        "--samples", "ab,abAB", "--no-homog",
    ],
    ["qm", "eval", "--spec", "brooks.json", "--on", "abab"],
    ["qm", "eval", "--spec", "product.json", "--on", "ab"],
    ["qm", "eval", "--spec", "missing.json", "--on", "ab"],
    ["norm", "bfs", "--word", "abAB", "--gens", "a,b", "--group", "signed", "--cutoff", "6"],
    ["norm", "bfs", "--word", "ab", "--gens", "a", "--cutoff", "4"],
    ["norm", "bfs", "--word", "ab", "--gens", "", "--cutoff", "4"],
    ["norm", "bfs", "--word", "", "--gens", "a"],
    ["norm", "bfs", "--word", "ab", "--gens", "a,b", "--cutoff", "-1"],
    ["norm", "bfs", "--word", "ab", "--gens", "a,b", "--g", "x"],
    ["norm", "acl", "--word", "a"],
    ["norm", "acl", "--word", "BBCC"],
    ["norm", "acl", "--word", "ab", "--kmax", "0"],
    ["norm", "acl", "--word", "ab", "--kmax", "two"],
    ["norm", "acl", "--word", "abcde"],
    ["norm", "cl", "--word", "abAB"],
    ["norm", "cl", "--word", "a", "--kmax", "3"],
    ["norm", "sacl", "--word", "a", "--nmax", "4"],
    ["norm", "sacl", "--word", "abAB", "--nmax", "2"],
    ["norm", "bound", "--word", "aab", "--gens", "a,b", "--pattern", "ab", "--group", "swap"],
    ["norm", "bavard", "--word", "aab", "--pattern", "ab", "--group", "swap"],
    ["norm", "bavard", "--word", "aab", "--pattern", "aab", "--rank", "3"],
    ["gp", "nf", "--graph", "pipe.graph", "--word", "1^1 0^1 1^-1"],
    ["gp", "nf", "--graph", "pipe.graph", "--word", "1 2 1"],
    ["gp", "nf", "--graph", "pipe.graph", "--word", "x^1"],
    ["gp", "nf", "--graph", "missing.graph", "--word", "0^1"],
    ["gp", "nf", "--word", "0^1"],
    ["gp", "mul", "--graph", "dihedral.graph", "--left", "0^1 1^1 0^1", "--right", "0^1"],
    ["gp", "mul", "--graph", "dihedral.graph"],
    ["gp", "join", "--graph", "pipe.graph"],
    ["gp", "dinfty", "--graph", "dihedral.graph", "--factor", "0,1"],
    ["gp", "dinfty", "--graph", "dihedral.graph", "--factor", "0,7"],
    ["gp", "classify", "--graph", "square.graph"],
    ["gp", "classify", "--graph", "bad.graph"],
    ["gp", "project", "--graph", "pipe.graph", "--word", "0^2 1^1 3^-1"],
    ["gp", "pipeline", "--graph", "pipe.graph", "--pattern", "ab", "-k", "2", "--on", "1^1 2^1"],
    ["verify", "ad-identity", "--seed", "0"],
    ["verify", "ad-identity", "--config", "seed7.json"],
    ["verify", "ad-identity", "--config", "list.json"],
    ["verify", "bogus"],
]

# Argv that ran when the table was first pinned and are refused since:
# what they did then.
REFUSED = {
    ("qm", "defect", "--pattern", "aab", "--exact", "--homog"):
        "printed the raw function's exact defect, 1, although --homog was given",
    ("norm", "bavard", "--word", "ab", "--pattern", "ab", "--rank", "7"):
        "built all 645 120 signed permutations",
    ("norm", "cl", "--word", "a", "--kmax", "4"):
        "ran for over a minute: level 4 peels up to 256^3 leaves",
    ("norm", "acl", "--word", "aaaabbbbaabb", "--kmax", "4", "--elem-len", "2"):
        "found value 4 at level 4 after about 5 s",
    ("norm", "bfs", "--word", "b", "--gens", "a", "--cutoff", "12000"):
        "built a ball of 1.8e7 letters in about 5 s",
}

TIMING = re.compile(r"^(# \S+: )\d+\.\d+s$", re.M)


def run(argv: list[str]) -> dict:
    """One argv's exit code, stdout and stderr, in the current directory."""
    from autqm.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": TIMING.sub(r"\1<t>s", err.getvalue()),
    }


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def leaf_parsers() -> list[tuple[list[str], argparse.ArgumentParser]]:
    """Every command's path and parser, read from the parser tree."""
    from autqm.cli import make_parser

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for name, child in subs[0].choices.items() if subs else ():
            yield from walk(child, path + [name])

    return list(walk(make_parser(), []))


def main() -> None:
    os.environ["COLUMNS"] = "80"
    table = TABLE.resolve()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        write_files(Path(scratch))
        rows = [run(argv) for argv in CASES + [path + ["--help"] for path, _ in leaf_parsers()]]
        rows += [{**run(list(argv)), "refused": why} for argv, why in REFUSED.items()]
    table.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} rows -> {table}", file=sys.stderr)


if __name__ == "__main__":
    main()
