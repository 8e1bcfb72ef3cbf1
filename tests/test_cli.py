import argparse
import contextlib
import io
import json
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cli_golden

from autqm import norms as _norms
from autqm.automorphisms import AutoWitness
from autqm.cli import format_word, main, parse_auto_chain, parse_group, parse_word
from autqm.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


def run_one(capsys, *argv):
    code, records = run_cli(capsys, *argv)
    assert code == 0, records
    assert len(records) == 1
    return records[0]


def one_error_record(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestWordCommands:
    def test_reduce(self, capsys):
        record = run_one(capsys, "word", "reduce", "abBA")
        assert record["value"] == ""
        record = run_one(capsys, "word", "reduce", "abA")
        assert record["value"] == "abA"

    def test_mul(self, capsys):
        assert run_one(capsys, "word", "mul", "ab", "BA")["value"] == ""

    def test_pow(self, capsys):
        assert run_one(capsys, "word", "pow", "ab", "3")["value"] == "ababab"

    def test_cyc(self, capsys):
        record = run_one(capsys, "word", "cyc", "abA")
        assert record == {"op": "word.cyc", "core": "b", "conjugator": "a"}

    def test_conj(self, capsys):
        assert run_one(capsys, "word", "conj", "ab", "ba")["value"] is True
        assert run_one(capsys, "word", "conj", "aa", "bb")["value"] is False

    def test_parse_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "word", "reduce", "a1b")
        assert code == 2

    def test_huge_power_is_a_cutoff(self, capsys):
        # Refused before any letter is built: 2 * 10**11 letters.
        assert main(["word", "pow", "ab", str(10**11)]) == 3
        assert one_error_record(capsys)["cutoff"] is True


class TestAutoCommands:
    def test_apply_swap(self, capsys):
        record = run_one(
            capsys, "auto", "apply", "--auto", "swap(1,2)", "--word", "abAB"
        )
        assert record["value"] == "baBA"

    def test_autocomm_transvection(self, capsys):
        record = run_one(
            capsys, "auto", "autocomm", "--auto", "lt(1,2)", "--word", "b"
        )
        assert record["value"] == "a"

    def test_chain_application_order(self, capsys):
        # inv(1) first, then swap: a -> a^-1 -> b^-1.
        record = run_one(
            capsys, "auto", "apply", "--auto", "inv(1);swap(1,2)", "--word", "a"
        )
        assert record["value"] == "B"

    def test_achiral_search(self, capsys):
        record = run_one(capsys, "auto", "achiral", "--word", "abAB")
        assert record["found"] is True
        assert record["k"] == 1
        assert record["images"] == ["b", "a"]

    def test_ad(self, capsys):
        record = run_one(capsys, "auto", "ad", "--word", "a")
        assert record["images"] == ["a", "abA"]


class TestWhiteheadCommands:
    def test_min(self, capsys):
        record = run_one(capsys, "wh", "min", "--word", "abb")
        assert record["length"] == 1
        assert record["trace"]

    def test_primitive(self, capsys):
        assert run_one(capsys, "wh", "primitive", "--word", "ab")["value"] is True
        assert run_one(capsys, "wh", "primitive", "--word", "aa")["value"] is False

    def test_freefactor(self, capsys):
        assert run_one(capsys, "wh", "freefactor", "--word", "b")["value"] is True
        assert (
            run_one(capsys, "wh", "freefactor", "--word", "abAB")["value"] is False
        )

    def test_graph(self, capsys):
        record = run_one(capsys, "wh", "graph", "--word", "abAB")
        assert record["connected"] is True
        assert record["has_cut_vertex"] is False


class TestQmCommands:
    def test_brooks(self, capsys):
        assert run_one(
            capsys, "qm", "brooks", "--pattern", "ab", "--on", "abab"
        )["value"] == "2"

    def test_homog(self, capsys):
        assert run_one(
            capsys, "qm", "homog", "--pattern", "ab", "--on", "abAB"
        )["value"] == "1"

    def test_defect_exact(self, capsys):
        record = run_one(capsys, "qm", "defect", "--pattern", "ab", "--exact")
        assert record["bound_type"] == "exact"
        assert record["value"] == "1"
        assert len(record["witness"]) == 2

    def test_exact_defect_refuses_homog(self, capsys):
        # The exact defect is the raw counting function's; it once printed
        # that under --homog as exact.
        assert main(["qm", "defect", "--pattern", "aab", "--exact", "--homog"]) == 2
        assert "--homog" in one_error_record(capsys)["error"]

    def test_average_vanishes(self, capsys):
        record = run_one(
            capsys, "qm", "average", "--pattern", "ab", "--on", "a", "--group", "signed"
        )
        assert record["value"] == "0"

    def test_average_no_homog(self, capsys):
        from autqm.quasimorphisms import brooks, finite_average

        argv = ["qm", "average", "--pattern", "ab", "--on", "abab", "--group", "swap"]
        raw = finite_average(brooks(parse_word("ab")), parse_group("swap", 2))
        expected = str(raw(parse_word("abab")))
        assert run_one(capsys, *argv, "--no-homog")["value"] == expected == "3/2"
        assert run_one(capsys, *argv, "--homog")["value"] == "2"
        assert run_one(capsys, *argv)["value"] == "2"

    def test_product_average(self, capsys):
        record = run_one(
            capsys,
            "qm",
            "product-average",
            "--pattern",
            "ab",
            "-k",
            "2",
            "-n",
            "3",
            "--on",
            "abAB,abAB,abAB",
        )
        assert record["value"] == "2"

    def test_invariance_report(self, capsys):
        record = run_one(
            capsys,
            "qm",
            "invariance",
            "--pattern",
            "ab",
            "--auto",
            "swap(1,2)",
            "--samples",
            "abAB,a",
        )
        assert record["checked"] == 2
        assert len(record["violations"]) == 1

    def test_eval_round_trip(self, capsys, tmp_path):
        from autqm.quasimorphisms import brooks_homogeneous

        f = brooks_homogeneous(parse_word("ab"))
        spec = tmp_path / "qm.json"
        spec.write_text(json.dumps(f.provenance))
        record = run_one(
            capsys, "qm", "eval", "--spec", str(spec), "--on", "abAB"
        )
        assert record["value"] == "1"


class TestNormCommands:
    def test_bfs(self, capsys):
        record = run_one(
            capsys,
            "norm",
            "bfs",
            "--word",
            "abAB",
            "--gens",
            "a,b",
            "--group",
            "signed",
            "--cutoff",
            "6",
        )
        assert record["value"] == 4
        assert [f["word"] for f in record["witness"]]

    def test_acl_witness(self, capsys):
        record = run_one(capsys, "norm", "acl", "--word", "a")
        assert record["value"] == 1
        assert record["witness"][0]["auto"]["images"] == ["a", "ab"]
        assert record["witness"][0]["element"] == "b"

    def test_sacl(self, capsys):
        record = run_one(capsys, "norm", "sacl", "--word", "a", "--nmax", "4")
        assert record["upper"] == "1/4"
        assert len(record["trace"]) == 4

    def test_cl(self, capsys):
        record = run_one(
            capsys, "norm", "cl", "--word", "abAB", "--len-cap", "1"
        )
        assert record["value"] == 1

    def test_bound_and_bavard(self, capsys):
        record = run_one(
            capsys,
            "norm",
            "bound",
            "--word",
            "aab",
            "--gens",
            "a,b",
            "--pattern",
            "ab",
            "--group",
            "swap",
        )
        assert record["value"] == "1/24"
        record = run_one(
            capsys,
            "norm",
            "bavard",
            "--word",
            "aab",
            "--pattern",
            "ab",
            "--group",
            "swap",
        )
        assert record["value"] == "1/48"
        assert record["scope"] == "restricted-to-group"


GRAPH_TEXT = """\
vertices 5
label 0 0
label 1 0
label 2 0
label 3 0
label 4 0
edge 0 1
edge 0 2
edge 0 3
edge 0 4
edge 1 3
edge 1 4
edge 2 3
edge 2 4
"""


class TestGpCommands:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "pipe.graph"
        path.write_text(GRAPH_TEXT)
        return str(path)

    @pytest.fixture
    def dihedral_file(self, tmp_path):
        path = tmp_path / "dihedral.graph"
        path.write_text("vertices 2\nlabel 0 2\nlabel 1 2\n")
        return str(path)

    def test_nf(self, capsys, graph_file):
        record = run_one(
            capsys, "gp", "nf", "--graph", graph_file, "--word", "1^1 0^1 1^-1"
        )
        assert record["value"] == "0^1"

    def test_mul(self, capsys, dihedral_file):
        record = run_one(
            capsys,
            "gp",
            "mul",
            "--graph",
            dihedral_file,
            "--left",
            "0^1 1^1 0^1",
            "--right",
            "0^1",
        )
        assert record["value"] == "0^1 1^1"

    def test_join(self, capsys, graph_file):
        record = run_one(capsys, "gp", "join", "--graph", graph_file)
        assert record["gamma0"] == [0]
        assert record["factors"] == [[1, 2], [3, 4]]
        assert record["iso_classes"] == [[0, 1]]

    def test_dinfty(self, capsys, dihedral_file):
        record = run_one(
            capsys, "gp", "dinfty", "--graph", dihedral_file, "--factor", "0,1"
        )
        assert record["value"] is True

    def test_classify(self, capsys, dihedral_file):
        record = run_one(capsys, "gp", "classify", "--graph", dihedral_file)
        assert record["virtually_abelian"] is True

    def test_project(self, capsys, graph_file):
        record = run_one(
            capsys, "gp", "project", "--graph", graph_file, "--word", "0^2 1^1 3^-1"
        )
        assert record["components"] == ["1^1", "3^-1"]

    def test_pipeline(self, capsys, graph_file):
        record = run_one(
            capsys,
            "gp",
            "pipeline",
            "--graph",
            graph_file,
            "--pattern",
            "ab",
            "-k",
            "2",
            "--on",
            "1^1 2^1 1^1 2^1",
        )
        assert record["value"] == "2"

    def test_graph_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertices 2\nlabel 0 1\n")
        code, _ = run_cli(capsys, "gp", "classify", "--graph", str(path))
        assert code == 2


BAD_INPUT_FILES = {
    "free_pair": "vertices 2\n",
    "negative_count": "vertices -1\n",
    "stray_label": "vertices 2\nlabel 5 2\n",
    "repeated_count": "vertices 2\nvertices 3\n",
    "repeated_label": "vertices 2\nlabel 0 2\nlabel 0 3\n",
    "config_list": "[1]",
    "config_string_seed": '{"seed": "x"}',
    "config_bool_seed": '{"seed": true}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ["auto", "apply", "--auto", "swap(1,5)", "--word", "ab"],
        ["auto", "apply", "--auto", "ad()", "--word", "ab"],
        ["gp", "classify", "--graph", "{missing}"],
        ["qm", "eval", "--spec", "{missing}", "--on", "ab"],
        ["verify", "ad-identity", "--config", "{missing}"],
        ["auto", "compose", "--auto", "id", "--rank", "0"],
        ["qm", "defect", "--pattern", "ab", "--max-len", "-1"],
        ["norm", "bfs", "--word", "ab", "--gens", "a,b", "--cutoff", "-1"],
        ["auto", "achiral", "--word", "ab", "--kmax", "-1"],
        ["auto", "achiral", "--word", "ab", "--depth", "-1"],
        ["gp", "dinfty", "--graph", "{free_pair}", "--factor", "0,7"],
        ["gp", "classify", "--graph", "{negative_count}"],
        ["gp", "classify", "--graph", "{stray_label}"],
        ["gp", "join", "--graph", "{repeated_count}"],
        ["gp", "join", "--graph", "{repeated_label}"],
        ["verify", "ad-identity", "--config", "{config_list}"],
        ["verify", "ad-identity", "--config", "{config_string_seed}"],
        ["verify", "ad-identity", "--config", "{config_bool_seed}"],
    ],
    ids=[
        "swap-index",
        "ad-arity",
        "missing-graph",
        "missing-spec",
        "missing-config",
        "rank-0",
        "defect-max-len",
        "bfs-cutoff",
        "achiral-kmax",
        "achiral-depth",
        "dinfty-unknown-vertex",
        "graph-negative-count",
        "graph-stray-label",
        "graph-repeated-count",
        "graph-repeated-label",
        "config-list",
        "config-string-seed",
        "config-bool-seed",
    ],
)
def test_bad_input_gives_one_json_error_line(capsys, tmp_path, argv):
    paths = {"missing": str(tmp_path / "missing")}
    for name, text in BAD_INPUT_FILES.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    assert main([a.format(**paths) for a in argv]) == 2
    assert "error" in one_error_record(capsys)


def nested_pullbacks(depth):
    """A counting quasimorphism pulled back along the identity depth times.

    From the command line, 500 levels exceed the recursion limit while
    the spec is decoded and 350 while it is evaluated; 300 evaluate.
    """
    spec = ["brooks", 2, [1, 2]]
    for _ in range(depth):
        spec = ["pullback", spec, 2, [[1], [2]]]
    return spec


@pytest.mark.parametrize(
    "spec",
    [
        {"a": 1},
        ["brooks", 2, 5],
        ["brooks", "x", [1]],
        5,
        [],
        ["zero", ["product", 2, 2]],
        ["linear_combination", [[0.1, ["brooks", 2, [1]]]]],
        ["brooks", 2, [1.5]],
        ["brooks", 2.0, [1]],
        ["brooks", 2, [True]],
        ["pullback", ["zero", ["product", 2, 2]], 2, [[1], [2]]],
        ["finite_average", ["zero", ["product", 2, 2]], []],
        ["linear_combination", [["1/0", ["zero", ["free", 2]]]]],
        ["zero", ["free", "x"]],
        ["zero", ["free", None]],
        ["linear_combination", [["1e10000000", ["zero", ["free", 2]]]]],
        "[" * 100_000,
        nested_pullbacks(500),
        nested_pullbacks(350),
    ],
    ids=[
        "object",
        "letters-int",
        "rank-str",
        "scalar",
        "empty",
        "product-domain",
        "float-coefficient",
        "float-letter",
        "float-rank",
        "bool-letter",
        "pullback-of-product",
        "average-of-product",
        "zero-denominator",
        "zero-string-rank",
        "zero-null-rank",
        "exponent-coefficient",
        "deep-json",
        "deep-decode",
        "deep-evaluation",
    ],
)
def test_bad_eval_spec_gives_one_json_error_line(capsys, tmp_path, spec):
    # A string is the raw file text; anything else is written as JSON.
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    assert main(["qm", "eval", "--spec", str(path), "--on", "ab"]) == 2
    assert "error" in one_error_record(capsys)


def test_eval_spec_repeating_an_averaging_table_is_bad_input(capsys, tmp_path):
    from autqm.quasimorphisms import brooks, finite_average

    f = finite_average(brooks(parse_word("ab")), parse_group("signed", 2))
    kind, sub, tables = f.provenance
    path = tmp_path / "spec.json"
    path.write_text(json.dumps([kind, sub, tables + tables[1:2]]))
    assert main(["qm", "eval", "--spec", str(path), "--on", "abaab"]) == 2
    assert "twice" in one_error_record(capsys)["error"]


SPEC_KINDS = (
    "brooks",
    "homogenised",
    "pullback",
    "finite_average",
    "product_average",
    "linear_combination",
    "zero",
)
small_ints = st.integers(-2, 5)
letter_lists = st.lists(st.integers(-3, 3), max_size=4)
junk = st.one_of(
    st.integers(-10, 10**12),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPEC_KINDS + ("free", "product", "1/2", "1/0", "x")),
)


def spec_nodes(child):
    """One level of the spec grammar: every kind, each with a child spec
    wherever the grammar nests one, plus plain lists of children."""
    return st.one_of(
        st.lists(child, max_size=4),
        st.tuples(st.just("brooks"), small_ints, letter_lists),
        st.tuples(st.just("homogenised"), child),
        st.tuples(
            st.just("pullback"), child, small_ints, st.lists(letter_lists, max_size=3)
        ),
        st.tuples(
            st.just("finite_average"),
            child,
            st.lists(
                st.tuples(
                    st.lists(letter_lists, max_size=3),
                    st.lists(letter_lists, max_size=3),
                ),
                max_size=2,
            ),
        ),
        st.tuples(st.just("product_average"), child, small_ints, small_ints),
        st.tuples(
            st.just("linear_combination"),
            st.lists(
                st.tuples(st.one_of(small_ints, st.sampled_from(["1/2", "-3", "1/0"])), child),
                max_size=3,
            ),
        ),
        st.tuples(
            st.just("zero"),
            st.one_of(
                st.tuples(st.just("free"), small_ints),
                st.tuples(st.just("product"), small_ints, small_ints),
                child,
            ),
        ),
    )


specs = st.recursive(
    st.one_of(
        junk,
        st.tuples(st.just("brooks"), small_ints, letter_lists),
        st.tuples(st.just("zero"), st.tuples(st.just("free"), small_ints)),
    ),
    spec_nodes,
    max_leaves=12,
)


# 300 examples reach a zero-denominator coefficient; 100 do not.
@settings(max_examples=300)
@given(specs, st.sampled_from(["a", "ab", "aBAb", "c"]))
def test_fuzzed_eval_spec_exits_cleanly(spec, on):
    out, err = io.StringIO(), io.StringIO()
    text = json.dumps(spec)
    with (
        mock.patch("sys.stdin", io.StringIO(text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(["qm", "eval", "--spec", "-", "--on", on])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])
    else:
        assert json.loads(out.getvalue())["op"] == "qm.eval"


class TestVerifyCommand:
    def test_vanishing_suite_passes(self, capsys):
        code, records = run_cli(capsys, "verify", "vanishing")
        assert code == 0
        assert [r["check"] for r in records] == [
            "single_autocommutator_witness",
            "achiral_power_vanishing",
            "free_factor_vanishing",
        ]
        assert all(r["passed"] for r in records)

    def test_determinism(self, capsys):
        main(["verify", "equivariance", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "equivariance", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second  # records are byte-identical; timing is on stderr

    def test_config_file_seed(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        code, records = run_cli(
            capsys, "verify", "ad-identity", "--config", str(config)
        )
        assert code == 0
        assert records[0]["passed"]

    def test_a_violation_exits_1_after_every_record(self, capsys):
        results = [CheckResult("bad", False, "violation: x", 0.0), CheckResult("good", True, "ok", 0.0)]
        with mock.patch("autqm.cli.run_suite", return_value=results):
            code, records = run_cli(capsys, "verify", "all")
        assert code == 1
        assert [(r["op"], r["check"]) for r in records] == [("verify", "bad"), ("verify", "good")]


class TestParsers:
    def test_parse_word_round_trip(self):
        w = parse_word("abBA")
        assert w.letters == ()

    def test_parse_chain_ad(self):
        phi = parse_auto_chain("ad(ab)", 2)
        assert phi.witness is not None

    def test_bad_chain(self):
        with pytest.raises(Exception):
            parse_auto_chain("frobnicate(1)", 2)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["wh", "min"],
        ["word", "pow", "ab", "x"],
        ["verify", "bogus"],
        ["norm", "acl", "--word", "ab", "--kmax", "two"],
        ["word", "reduce", "ab", "--frobnicate"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "missing-option",
        "bad-int",
        "bad-choice",
        "bad-int-option",
        "unknown-option",
    ],
)
def test_usage_error_gives_one_json_error_line(capsys, argv):
    assert main(argv) == 2
    assert "error" in one_error_record(capsys)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["wh", "--help"])
    assert exit_info.value.code == 0
    assert "usage" in capsys.readouterr().out


# The step each search takes right after its size check.  Patched to stop
# there, it shows that an argv got past the check without the search
# running (some of these run for minutes).
NEXT_STEP = {
    "bfs": "autqm.norms._ball",
    "acl": "autqm.norms._autocommutator_base",
    "sacl": "autqm.norms._autocommutator_base",
    "cl": "autqm.norms.enumerate_reduced_words",
    "achiral": "autqm.automorphisms.breadth_first",
}


class Reached(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "cl", "--word", "ab", "--len-cap", "8"],
        ["norm", "cl", "--word", "ab", "--len-cap", "6"],
        ["norm", "acl", "--word", "ab", "--elem-len", "9"],
        ["norm", "acl", "--word", "ab", "--elem-len", "6"],
        ["norm", "acl", "--word", "ab", "--pool-depth", "9"],
        ["norm", "acl", "--word", "ab", "--pool-depth", "5"],
        ["norm", "acl", "--word", "abcde"],
        ["norm", "sacl", "--word", "ab", "--pool-depth", "9"],
        ["auto", "achiral", "--word", "ab", "--depth", "12"],
        ["auto", "achiral", "--word", "ab", "--depth", "7"],
        ["auto", "achiral", "--word", "ab", "--rank", "26"],
        ["wh", "min", "--word", "ab", "--rank", "9"],
        ["wh", "primitive", "--word", "ab", "--rank", "26"],
        ["wh", "freefactor", "--word", "ab", "--rank", "9"],
        ["norm", "sacl", "--word", "", "--nmax", "100000000"],
        ["norm", "cl", "--word", "", "--len-cap", "8"],
    ],
)
def test_oversized_search_is_a_cutoff_before_building(capsys, argv):
    # Nothing is mocked: the search counts its size before it builds
    # anything, and each of these would run for minutes.
    _norms._commutator_pool.cache_clear()
    started = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - started < 1
    assert one_error_record(capsys)["cutoff"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "cl", "--word", "ab"],
        ["norm", "cl", "--word", "ab", "--len-cap", "5"],
        ["norm", "acl", "--word", "ab"],
        ["norm", "acl", "--word", "ab", "--elem-len", "5"],
        ["norm", "acl", "--word", "ab", "--pool-depth", "4"],
        ["norm", "acl", "--word", "abc"],
        ["norm", "acl", "--word", "abcd"],
        ["norm", "acl", "--word", "ab", "--pool-depth", "9", "--elem-len", "0"],
        ["norm", "sacl", "--word", "abcd"],
        ["auto", "achiral", "--word", "ab"],
        ["auto", "achiral", "--word", "ab", "--depth", "6"],
        ["auto", "achiral", "--word", "ab", "--depth", "6", "--kmax", "3"],
        ["auto", "achiral", "--word", "abcd", "--depth", "2"],
        ["norm", "sacl", "--word", "ab", "--nmax", "60"],
        ["norm", "bfs", "--word", "abAB", "--gens", "a,b", "--group", "signed", "--cutoff", "6"],
        ["norm", "bfs", "--word", "ab", "--gens", "a,b,ab", "--cutoff", "22"],
    ],
)
def test_searches_within_the_bound_run(capsys, argv):
    # The defaults up to rank 4 and the largest sizes under the bound.
    _norms._commutator_pool.cache_clear()  # a cached pool skips its check
    with mock.patch(NEXT_STEP[argv[1]], side_effect=Reached) as step:
        if "--elem-len" in argv and argv[-1] == "0":
            # Bad input, reported as such before any size is counted.
            assert main(argv) == 2
            assert "cutoff" not in one_error_record(capsys)
            return
        with pytest.raises(Reached):
            main(argv)
    step.assert_called_once()


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "sacl", "--nmax", "3000", "--word", "ab"],
        ["norm", "bfs", "--word", "abABabAB", "--gens", "a,b,ab", "--cutoff", "40"],
        ["norm", "bfs", "--word", "b", "--gens", "a", "--cutoff", "12000"],
        ["norm", "bavard", "--word", "ab", "--pattern", "ab", "--rank", "7"],
        ["norm", "bound", "--word", "ab", "--gens", "a", "--pattern", "ab", "--rank", "26"],
    ],
    ids=["sacl-nmax", "bfs-cutoff", "bfs-letters", "signed-rank-7", "signed-huge-rank"],
)
def test_powers_and_balls_are_cut_off_at_once(capsys, argv):
    # Unbounded before: the balls ran out of memory and sacl ran for
    # minutes.  Nothing is mocked.
    started = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - started < 1
    assert one_error_record(capsys)["cutoff"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["auto", "achiral", "--word", "ab", "--kmax", "2000"],
        ["auto", "achiral", "--word", "ab", "--depth", "0", "--kmax", "20000"],
    ],
    ids=["kmax-2000", "achiral-kmax"],
)
def test_achirality_answers_at_any_kmax(capsys, argv):
    # It tests k = 1 only.  The first ran past 300 s and the second ran out
    # of memory while the search built every power up to --kmax.
    started = time.perf_counter()
    record = run_one(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert record["found"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["wh", "primitive", "--word", "ab", "--rank", "3000"],
        ["auto", "compose", "--auto", "id", "--rank", "1000000"],
        ["auto", "achiral", "--word", "ab", "--rank", "1000000000"],
        ["norm", "bound", "--word", "ab", "--gens", "a", "--pattern", "ab", "--rank", "27"],
        ["word", "reduce", "ab", "--rank", "-5"],
    ],
)
def test_a_rank_past_the_letters_is_bad_input_at_once(capsys, argv):
    # The first two ran past 30 s and for 10.8 s before --rank was bounded.
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1
    assert "--rank must be" in one_error_record(capsys)["error"]


def test_transvection_witness_builds_the_printed_automorphism(capsys):
    # Its root powers BBCC and ccbb are multipliers of word transvections.
    record = run_one(capsys, "norm", "acl", "--word", "BBCC")
    autos = [f["auto"] for f in record["witness"]]
    assert any(len(a["images"][0]) > 2 for a in autos)
    for auto in autos:
        built = AutoWitness.from_obj(auto["witness"]).build(3)
        assert [format_word(w) for w in built.images] == auto["images"]
        assert [format_word(w) for w in built.inverse_images] == auto["inverse_images"]


def _argv_word(draw, rank):
    letters = "abc"[:rank] + "ABC"[:rank]
    return draw(st.text(alphabet=letters, max_size=6))


# Past every cap as a depth, a length, a count or an exponent.
HUGE = st.sampled_from([10**8, 10**12])


def small_or_huge(low, high):
    # Mostly valid values, some invalid ones (0, -1) and a few huge ones.
    valid = st.integers(min_value=max(low, 1), max_value=high)
    return st.one_of(*[valid] * 6, st.integers(min_value=low, max_value=0), HUGE)


@st.composite
def cli_argv(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    word = _argv_word(draw, rank)
    rank_opt = draw(st.sampled_from([[], ["--rank", str(rank)], ["--rank", "1000000000000"]]))
    command = draw(st.sampled_from(["acl", "sacl", "cl", "bfs", "achiral", "pow"]))

    def opt(name, low, high):
        return [name, str(draw(small_or_huge(low, high)))]

    if command == "pow":
        return ["word", "pow", word, str(draw(small_or_huge(-4, 4)))] + rank_opt
    if command == "achiral":
        argv = ["auto", "achiral", "--word", word] + opt("--kmax", 0, 4) + opt("--depth", -1, 2)
        return argv + rank_opt
    argv = ["norm", command, "--word", word]
    # A product search's work grows as a power of --kmax: it stays small.
    kmax = ["--kmax", str(draw(st.sampled_from([0, 1, 1, 2, 2, 2])))]
    if command == "bfs":
        gens = [_argv_word(draw, rank) for _ in range(draw(st.integers(1, 3)))]
        group = draw(st.sampled_from(["none", "trivial", "signed"]))
        argv += ["--gens", ",".join(gens), "--group", group] + opt("--cutoff", -1, 10)
    elif command == "cl":
        argv += opt("--len-cap", 0, 2) + kmax
    else:
        argv += opt("--pool-depth", 0, 2) + opt("--elem-len", 0, 2) + kmax
        if command == "sacl":
            argv += opt("--nmax", 0, 4)
    return argv + rank_opt


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_fuzzed_search_argv_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "Traceback" not in err.getvalue()
        assert json.loads(lines[0]).get("cutoff", False) is (code == 3)
    else:
        assert len(out.getvalue().splitlines()) == 1


# Values for every option of every command, by its dest.  A new option
# fails test_fuzzed_argv_of_every_command until it is given values here.
LEAVES = {" ".join(path): parser for path, parser in cli_golden.leaf_parsers()}
SYLLABLES = ["0", "1^1", "2^-1", "3^2", "4", "1^0", "x^1", "9^1"]
CHAIN_TOKENS = ["id", "swap(1,2)", "perm(2,1)", "inv(1)", "lt(1,2)", "rt(2,1)", "ad(ab)", "swap(1,5)", "lt"]
NAMED = {
    "group": ["none", "trivial", "swap", "signed", "bogus"],
    "graph": ["pipe.graph", "dihedral.graph", "square.graph", "bad.graph", "missing.graph"],
    "spec": ["brooks.json", "product.json", "missing.json"],
    "factor": ["0,1", "0,7", "1", "x"],
    "suite": ["ad-identity", "normalform", "bogus"],
    "config": ["seed7.json", "list.json", "missing.json"],
}
FILE_DESTS = ("graph", "spec", "config")
INTS = {
    "exponent": small_or_huge(-4, 4),
    "depth": small_or_huge(-1, 2),
    "cutoff": small_or_huge(-1, 10),
    "len_cap": small_or_huge(0, 2),
    "nmax": small_or_huge(0, 4),
    "pool_depth": small_or_huge(0, 2),
    "elem_len": small_or_huge(0, 2),
    "max_len": st.one_of(st.integers(-1, 2), HUGE),
    "k": small_or_huge(0, 3),
    "n": small_or_huge(0, 3),
    "seed": st.integers(0, 9),
}


def _option_value(data, path, dest, rank, files):
    draw = data.draw
    if path.startswith("gp ") and dest in ("word", "left", "right", "on"):
        return " ".join(draw(st.lists(st.sampled_from(SYLLABLES), max_size=4)))
    if dest in ("gens", "samples", "on"):
        return ",".join(_argv_word(draw, rank) for _ in range(draw(st.integers(1, 3))))
    if dest == "pattern":
        # An exact defect's work grows exponentially in the pattern's length.
        return _argv_word(draw, rank)[:3]
    if dest in ("word", "left", "right"):
        return _argv_word(draw, rank)
    if dest == "auto":
        return ";".join(draw(st.lists(st.sampled_from(CHAIN_TOKENS), min_size=1, max_size=2)))
    if dest == "rank":
        # 9 and 26 are valid ranks past the caps of the rank-sized tables.
        return str(draw(st.one_of(*[st.just(rank)] * 6, st.sampled_from([9, 26]), st.integers(-1, 0), HUGE)))
    if dest == "kmax":
        # A product search's work grows as a power of --kmax: it stays small.
        huge_ok = path == "auto achiral"
        return str(draw(small_or_huge(0, 4) if huge_ok else st.sampled_from([0, 1, 2])))
    if dest in NAMED:
        name = draw(st.sampled_from(NAMED[dest]))
        return str(files / name) if dest in FILE_DESTS else name
    return str(draw(INTS[dest]))


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    cli_golden.write_files(directory)
    return directory


@pytest.mark.parametrize("path", list(LEAVES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_of_every_command(golden_files, path, data):
    rank = data.draw(st.integers(1, 3))
    argv = path.split()
    for action in LEAVES[path]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and not action.required and data.draw(st.booleans()):
            continue  # left at its default
        flag = data.draw(st.sampled_from(action.option_strings)) if action.option_strings else None
        if action.nargs == 0:  # a switch: --exact, --homog or --no-homog
            argv.append(flag)
            continue
        value = _option_value(data, path, action.dest, rank, golden_files)
        argv += [flag, value] if flag else [value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "Traceback" not in err.getvalue()
        assert json.loads(lines[0]).get("cutoff", False) is (code == 3)
    else:
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert records and all(r["op"] == path.replace(" ", ".") for r in records)
        assert len(records) == 1 or path == "verify"
