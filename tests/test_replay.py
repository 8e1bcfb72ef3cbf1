"""Norm and achirality records replay from their JSON alone, through
tests/replay.py."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import replay
from autqm.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def record_of(*argv):
    code, records = run(list(argv))
    assert code == 0 and len(records) == 1
    return records[0]


def words(rank, max_size, min_size):
    return st.text(alphabet="abc"[:rank] + "ABC"[:rank], min_size=min_size, max_size=max_size)


@st.composite
def norm_argv(draw):
    """In-bound argv of norm acl, sacl, cl and bfs, at ranks 2 and 3."""
    rank = draw(st.sampled_from([2, 2, 3]))
    command = draw(st.sampled_from(["acl", "acl", "sacl", "cl", "bfs"]))
    word = draw(words(rank, 6, 1)) * draw(st.sampled_from([1, 1, 2, 3]))
    if command in ("acl", "cl") and draw(st.booleans()):
        # Products of one or two commutators, so that cl finds most of them.
        pair = st.tuples(words(rank, 2, 1), words(rank, 2, 1))
        pairs = draw(st.lists(pair, min_size=1, max_size=2))
        word = "".join(u + v + u[::-1].swapcase() + v[::-1].swapcase() for u, v in pairs)
    argv = ["norm", command, "--word", word, "--rank", str(rank)]

    def opt(name, *values):
        return [name, str(draw(st.sampled_from(values)))]

    if command == "bfs":
        gens = draw(st.lists(words(rank, 3, 1), min_size=1, max_size=3))
        argv += ["--gens", ",".join(gens)] + opt("--group", "none", "none", "signed")
        return argv + opt("--cutoff", *range(7))
    if command == "cl":
        return argv + opt("--len-cap", 1, 2, 3) + opt("--kmax", 1, 2, 3)
    argv += opt("--pool-depth", 1, 1, 2) + opt("--elem-len", 1, 2, 2, 3) + opt("--kmax", 1, 2, 2)
    return argv + (opt("--nmax", 1, 2, 3) if command == "sacl" else [])


@settings(max_examples=200, deadline=None)
@given(norm_argv())
def test_every_in_bound_norm_record_replays(argv):
    code, records = run(argv)
    assert code in (0, 3), argv
    for record in records:
        replay.replay(argv, record)


@st.composite
def achiral_argv(draw):
    """In-bound argv of auto achiral at ranks 2 and 3, some without --rank."""
    rank = draw(st.sampled_from([2, 3]))
    argv = ["auto", "achiral", "--word", draw(words(rank, 8, 1))]
    argv += ["--kmax", str(draw(st.integers(1, 4)))]
    argv += ["--depth", str(draw(st.integers(0, 2 if rank == 2 else 1)))]
    return argv + draw(st.sampled_from([[], ["--rank", str(rank)]]))


@settings(max_examples=200, deadline=None)
@given(achiral_argv())
def test_every_in_bound_achiral_record_replays(argv):
    code, records = run(argv)
    assert code in (0, 2), argv  # 2: the word reduced to the identity
    for record in records:
        replay.replay(argv, record)


@pytest.mark.parametrize(
    "argv",
    [
        ["auto", "achiral", "--word", "abAB"],
        ["auto", "achiral", "--word", "aabAB", "--depth", "2"],
        ["auto", "achiral", "--word", "acC"],
        ["norm", "acl", "--word", "BBCC"],
        ["norm", "acl", "--word", "abABab"],
        ["norm", "sacl", "--word", "abAB", "--nmax", "3"],
        ["norm", "cl", "--word", "abABbaBA"],
        ["norm", "bfs", "--word", "abAB", "--gens", "a,b", "--group", "signed"],
    ],
)
def test_known_records_replay(argv):
    replay.replay(argv, record_of(*argv))


def test_a_dropped_factor_fails():
    argv = ["norm", "acl", "--word", "abABab"]
    record = record_of(*argv)
    assert record["value"] == 2
    dropped = copy.deepcopy(record)
    del dropped["witness"][0]
    with pytest.raises(replay.Mismatch, match="the value counts the factors"):
        replay.replay(argv, dropped)
    dropped["value"] = 1
    with pytest.raises(replay.Mismatch, match="multiply to the target"):
        replay.replay(argv, dropped)


def test_a_tree_with_two_parts_swapped_fails():
    # a -> BBCCa is built by c^-1, c^-1, b^-1, b^-1 multiplied in from the left.
    argv = ["norm", "acl", "--word", "BBCC"]
    record = record_of(*argv)
    parts = record["witness"][0]["auto"]["witness"]["parts"]
    parts[1], parts[2] = parts[2], parts[1]
    with pytest.raises(replay.Mismatch, match="the witness tree builds the printed images"):
        replay.replay(argv, record)


def test_a_wrong_inverse_table_fails():
    argv = ["norm", "acl", "--word", "BBCC"]
    record = record_of(*argv)
    auto = record["witness"][0]["auto"]
    auto["inverse_images"][0] = auto["inverse_images"][0][1:]
    with pytest.raises(replay.Mismatch, match="undo"):
        replay.replay(argv, record)


def test_an_achirality_image_with_one_letter_flipped_fails():
    argv = ["auto", "achiral", "--word", "abAB"]
    record = record_of(*argv)
    assert record["found"] and record["images"][0] == "b"
    record["images"][0] = "B"
    with pytest.raises(replay.Mismatch, match="the witness tree builds the printed images"):
        replay.replay(argv, record)


def test_an_automorphism_that_is_no_achirality_witness_fails():
    # The identity replays as an automorphism, but abAB is no conjugate of baBA.
    argv = ["auto", "achiral", "--word", "abAB"]
    record = record_of(*argv)
    record.update(images=["a", "b"], inverse_images=["a", "b"])
    record["witness"] = {"kind": "permutation", "params": [1, 2]}
    with pytest.raises(replay.Mismatch, match="conjugate to g"):
        replay.replay(argv, record)
    record.update(k=2)
    with pytest.raises(replay.Mismatch, match="k is 1"):
        replay.replay(argv, record)
