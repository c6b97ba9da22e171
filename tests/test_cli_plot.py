"""End-to-end CLI behaviour: exit codes, exact text, JSON, SVG determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinstairs.cli_plot as cli
from pinstairs.cli_plot import RenderSpec, main, render_base_diagram, render_staircase, run
from pinstairs.atf_geometry import delta_triangle, pavilion_polygon, vianna_triangle
from pinstairs.exact_core import DomainError
from pinstairs.markov import branch_sequence, companions, enumerate_tree

from .frozen import README_CLI_LINES
from .oracles import fibonacci_markov_triple

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stair_embeds_example(capsys):
    code, out, _ = invoke(capsys, "stair", "2", "1", "--alpha", "49/100", "--beta", "49/100")
    assert code == 0
    assert out.strip() == "Embeds (box i=0, sup 1/2 × 1/2)"


def test_companions_example(capsys):
    code, out, _ = invoke(capsys, "markov", "companions", "29")
    assert code == 0
    assert out.strip() == "q ∈ {7, 22}"


def test_outside_visible_range_example(capsys):
    code, out, _ = invoke(capsys, "stair", "5", "1", "--alpha", "3", "--beta", "1/100")
    assert code == 0
    assert out.strip() == "OutsideVisibleRange (alpha ≥ sigma_5 = 2.987…)"


def test_does_not_embed_obstruction_text(capsys):
    code, out, _ = invoke(capsys, "stair", "5", "1", "--alpha", "3/10", "--beta", "1/5")
    assert code == 0
    assert out.strip() == "DoesNotEmbed (obstruction corner (1/65, 1/10))"


def test_stair_json_verdict(capsys):
    code, out, _ = invoke(capsys, "stair", "2", "1", "--alpha", "1/2", "--beta", "1/2",
                          "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"answer": "DoesNotEmbed", "obstruction": ["1/2", "1/10"]}


def test_decimal_inputs_are_usage_errors(capsys):
    code, _, err = invoke(capsys, "stair", "2", "1", "--alpha", "0.5", "--beta", "1/2")
    assert code == 2
    assert "not a rational" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "markov")
    assert code == 2


def test_stair_without_a_query_prints_the_stair_usage(capsys):
    code, out, err = invoke(capsys, "stair", "1", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: pinstairs stair ")
    assert err.rstrip().endswith("pinstairs stair: error: need --alpha and --beta "
                                 "(or --svg with --steps)")


def test_domain_errors_exit_one(capsys):
    code, _, err = invoke(capsys, "markov", "companions", "6")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = invoke(capsys, "wahl", "4", "2")
    assert code == 1


def test_markov_tree_text_and_json(capsys):
    code, out, _ = invoke(capsys, "markov", "tree", "--depth", "2")
    assert code == 0
    assert out.splitlines() == ["d0: (1, 1, 1)", "d1: (1, 1, 2)", "d2: (1, 2, 5)"]
    code, out, _ = invoke(capsys, "markov", "tree", "--depth", "2", "--json")
    rows = json.loads(out)
    assert rows[2] == {"triple": [1, 2, 5], "parent": 1, "mutated": 1}


def test_markov_branch_window(capsys):
    code, out, _ = invoke(capsys, "markov", "branch", "2", "1", "--lo", "-1", "--hi", "1")
    assert code == 0
    assert out.splitlines() == ["m[-1] = 5", "m[0] = 1", "m[1] = 1"]


def test_failed_self_check_exits_three_without_traceback(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("weight-7 trichotomy violated for (29,7)")

    monkeypatch.setattr(cli, "cmd_regulation", broken)
    code, out, err = invoke(capsys, "regulation", "29", "7")
    assert code == 3 and out == ""
    assert err == "internal error: weight-7 trichotomy violated for (29,7) (argv: regulation 29 7)\n"
    assert "Traceback" not in err


def test_main_refuses_branch_terms_beyond_the_int_str_digit_limit(capsys, monkeypatch):
    # m[3990..4000] of the (5, 1) branch have about 4700 digits each
    argv = ["pinstairs", "markov", "branch", "5", "1", "--lo", "3990", "--hi", "4000"]
    monkeypatch.setattr(sys, "argv", argv)
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this Python has no int/str digit limit")
    limit = get_limit()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SystemExit) as exc:
            main()
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == "" and "Traceback" not in err
    assert err.startswith("error:") and "PYTHONINTMAXSTRDIGITS=0" in err


def test_branch_windows_past_the_digit_limit_are_refused_before_the_walk(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this Python has no int/str digit limit")
    limit = get_limit()
    sys.set_int_max_str_digits(4300)
    try:
        for lo, hi in ((0, 6000), (0, 12000), (-12000, -11990), (-10**30, 0), (3990, 4000)):
            start = time.perf_counter()
            code, out, err = invoke(capsys, "markov", "branch", "5", "1",
                                    "--lo", str(lo), "--hi", str(hi))
            assert time.perf_counter() - start < 0.5, (lo, hi)
            assert code == 1 and out == ""
            assert err == ("error: a branch term exceeds Python's int/str digit limit; "
                           "PYTHONINTMAXSTRDIGITS=0 lifts it\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_stair_svg_refuses_steps_past_the_digit_limit(capsys, tmp_path):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this Python has no int/str digit limit")
    limit = get_limit()
    sys.set_int_max_str_digits(4300)
    path = tmp_path / "s.svg"
    try:
        # 7 344 steps end at box 3 672, which reads m[3673] of the (5, 1)
        # branch: the first term past the reach bound
        assert cli._branch_reach(5, 4300) == 3673
        for steps in (7344, 12000, 10**40):
            start = time.perf_counter()
            code, out, err = invoke(capsys, "stair", "5", "1", "--svg", str(path),
                                    "--steps", str(steps))
            assert time.perf_counter() - start < 0.5, steps
            assert code == 1 and out == "" and not path.exists()
            assert err == ("error: a branch term exceeds Python's int/str digit limit; "
                           "PYTHONINTMAXSTRDIGITS=0 lifts it\n")
    finally:
        sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def int_str_digits(n):
    """Python's int/str digit limit set to n where this Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_a_branch_term_past_the_digit_limit_inside_the_reach_is_one_error_line(capsys):
    # the reach bound is a lower bound on the growth of the branch, so the
    # window 3660..3672 passes the pre-check and still holds m[3662], the
    # first term of the (5, 1) branch with more than 4 300 digits
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    assert cli._branch_reach(5, 4300) == 3673
    m = branch_sequence(5, 1, 3661, 3662)
    assert m.value(3661) < 10**4300 <= m.value(3662)
    with int_str_digits(4300):
        code, out, err = invoke(capsys, "markov", "branch", "5", "1", "--lo", "3660", "--hi", "3672")
    assert code == 1 and out == ""
    assert err == ("error: a branch term exceeds Python's int/str digit limit; "
                   "PYTHONINTMAXSTRDIGITS=0 lifts it\n")


def assert_steps_refused(capsys, path, p, q, steps):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "stair", str(p), str(q), "--svg", str(path),
                            "--steps", str(steps))
    assert time.perf_counter() - start < 0.5, steps
    assert code == 1 and out == "" and not path.exists()
    assert err == f"error: step count {steps} outside [1, {cli.MAX_STAIR_STEPS}]\n"


def test_stair_svg_refuses_steps_past_the_output_bound(capsys, tmp_path, monkeypatch):
    path = tmp_path / "s.svg"
    with int_str_digits(4300):
        # each window stays below the digit limit of its p
        for p, q, steps in ((1, 1, cli.MAX_STAIR_STEPS + 1), (2, 1, 10**4), (5, 1, 7343)):
            assert_steps_refused(capsys, path, p, q, steps)
    with int_str_digits(0):  # with the limit lifted, the bound still holds
        assert_steps_refused(capsys, path, 7453378, 1807955, cli.MAX_STAIR_STEPS + 1)
        assert_steps_refused(capsys, path, 1, 1, 10**40)
    monkeypatch.setattr(cli, "MAX_STAIR_STEPS", 3)
    code, _, _ = invoke(capsys, "stair", "2", "1", "--svg", str(path), "--steps", "3")
    assert code == 0 and path.exists()
    path.unlink()
    assert_steps_refused(capsys, path, 2, 1, 4)


def test_stair_svg_refuses_label_digits_past_those_of_5_1(capsys, tmp_path, monkeypatch):
    from pinstairs import staircase_oracle

    def no_box(*args):
        raise AssertionError("a box was built")

    path = tmp_path / "s.svg"
    assert cli.MAX_STAIR_LABEL_DIGITS == cli._label_digits(5, cli.MAX_STAIR_STEPS)
    with int_str_digits(0), monkeypatch.context() as patch:
        patch.setattr(staircase_oracle, "stair_boxes", no_box)
        # 3 000 steps of (7453378, 1807955) would write 67 MB, and 5 400 of
        # (13, 2) 48 MB, against 44 MB for 6 000 of (5, 1)
        for p, q, steps in ((7453378, 1807955, 3000), (13, 2, 5400), (433, 104, 6000)):
            start = time.perf_counter()
            code, out, err = invoke(capsys, "stair", str(p), str(q), "--svg", str(path),
                                    "--steps", str(steps))
            assert time.perf_counter() - start < 0.5, steps
            assert code == 1 and out == "" and not path.exists()
            assert err == (f"error: {steps} steps of a branch of {p} could print more than "
                           f"{cli.MAX_STAIR_LABEL_DIGITS} label digits\n")
    with int_str_digits(0):  # a p or q at fault is named as such
        code, _, err = invoke(capsys, "stair", "7453378", "3", "--svg", str(path),
                              "--steps", "3000")
        assert code == 1 and err.startswith("error: 3 is not a companion of 7453378")
        code, _, err = invoke(capsys, "stair", "7453379", "3", "--svg", str(path),
                              "--steps", "3000")
        assert code == 1 and err.startswith("error: 7453379 is not a Markov number")


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (7453378, 1807955)])
def test_label_digits_bound_the_printed_labels(p, q):
    for steps in (1, 2, 7, 60, 301):
        lo, hi = cli._steps_window(steps)
        terms = dict(branch_sequence(p, q, lo, hi + 1).items())
        printed = sum(len(str(n)) for i in range(lo, hi + 1)
                      for n in (terms[i + 1], p * terms[i], terms[i], p * terms[i + 1]))
        bound = cli._label_digits(p, steps)
        assert printed <= bound
    # and the bound is close where it binds: within 3% for p >= 5 at 301 steps
    assert p < 5 or bound < 1.03 * printed


def test_staircase_labels_past_the_digit_limit_are_a_domain_error(monkeypatch):
    # a label the reach bound lets through still fails as a DomainError
    monkeypatch.setattr(cli, "_branch_reach", lambda p, digits: 10**9)

    def over_the_limit(r):
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    monkeypatch.setattr(cli, "format_rational", over_the_limit)
    with pytest.raises(DomainError, match="int/str digit limit"):
        render_staircase(2, 1, RenderSpec("staircase", (F(0), F(3), F(0), F(3)), steps=3))


def _past_the_limit_of_640_digits():
    """Commands on p = F_1553 (325 digits) whose answers print a product of two
    325-digit numbers, such as p^2 or a denominator p*u."""
    _, u, p = fibonacci_markov_triple(1553)
    p, u, q = str(p), str(u), str(3 * u % p)
    return [("capacity", p, q),
            ("stair", p, q, "--alpha", "1/10", "--beta", "1/10"),
            ("stair", p, q, "--alpha", "1/10", "--beta", "1/10", "--json"),
            ("pack", "two", p, q, "1/1000", "1", "1", "1/1000"),
            ("atf", "vianna", "1", u, p)]


@pytest.mark.parametrize("argv", _past_the_limit_of_640_digits(),
                         ids=["capacity", "stair", "stair-json", "pack-two", "atf-vianna"])
def test_answers_past_the_digit_limit_exit_one_with_nothing_printed(capsys, argv):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    with int_str_digits(640):
        code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == ("error: a number exceeds Python's int/str digit limit; "
                   "PYTHONINTMAXSTRDIGITS=0 lifts it\n")


@pytest.mark.parametrize("pq, error", [
    (("3", "1"), "3 is not a Markov number"),
    (("5", "3"), "3 is not a companion of 5 (pair {1, 4})"),
    (("29", "8"), "8 is not a companion of 29 (pair {7, 22})"),
])
@pytest.mark.parametrize("point", [("1/10", "1/10"), ("10", "10"), ("1/10", "10"), ("10", "1/10")])
def test_stair_refuses_a_bad_pair_wherever_the_point_lies(capsys, pq, error, point):
    code, out, err = invoke(capsys, "stair", *pq, "--alpha", point[0], "--beta", point[1])
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: {error}")


def _past_the_float_range():
    """SVG commands on p = F_1553 (325 digits), whose drawing needs floats past
    1.8e308."""
    _, u, p = fibonacci_markov_triple(1553)
    return [("stair", str(p), str(3 * u % p), "--steps", "3", "--svg"),
            ("atf", "vianna", "1", str(u), str(p), "--svg")]


@pytest.mark.parametrize("argv", _past_the_float_range(), ids=["stair", "atf-vianna"])
def test_a_drawing_past_the_float_range_exits_one_and_writes_no_file(capsys, tmp_path, argv):
    path = tmp_path / "f.svg"
    code, out, err = invoke(capsys, *argv, str(path))
    assert code == 1 and out == "" and not path.exists()
    assert err == ("error: a number is too large to draw: SVG coordinates are floats, "
                   "which end near 1.8e308\n")


_SVG_COMMANDS = [("stair", "2", "1", "--steps", "5", "--svg"),
                 ("atf", "delta", "5", "1", "1/2", "1/3", "--svg"),
                 ("atf", "vianna", "5", "2", "1", "--svg")]


@pytest.mark.parametrize("argv", _SVG_COMMANDS, ids=["stair", "atf-delta", "atf-vianna"])
@pytest.mark.parametrize("where, reason", [("missing/out.svg", "No such file or directory"),
                                           ("", "Is a directory")],
                         ids=["missing-directory", "directory"])
def test_an_unwritable_svg_path_exits_one_on_one_line(capsys, tmp_path, argv, where, reason):
    path = os.path.join(tmp_path, where)
    code, out, err = invoke(capsys, *argv, path)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_svg_path_on_a_full_device_exits_one(capsys):
    code, out, err = invoke(capsys, "atf", "vianna", "5", "2", "1", "--svg", "/dev/full")
    assert (code, out) == (1, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"


# every README line, each with -h, an argument too few and one too many, an
# unknown option and `--` before it; then help and errors at each level,
# abbreviated and repeated options, negative rationals where a command or a
# value goes, and '-' tokens as an --svg path
_EQUIVALENCE_ARGV = list(dict.fromkeys([tuple(line.split()) for line in README_CLI_LINES] + [
    variant for line in README_CLI_LINES for w in [tuple(line.split())]
    for variant in (w + ("-h",), w[:-1], w + ("7",), w + ("--extra",), ("--",) + w)
] + [tuple(line.split()) for line in [
    "", "-h", "--help", "--he", "--", "bogus", "tree", "-1/100", "-1", "-h tree",
    "markov", "markov -h", "markov bogus", "markov two", "markov -- tree --depth 1",
    "markov tree --dep 2", "markov tree -- --depth 1", "pack", "pack -h", "pack four",
    "atf", "atf -h", "atf tree", "wahl -h", "capacity", "stair", "stair 1 1",
    "stair 2 1 --alp 1/2 --be 1/2", "stair 2 1 --alpha -1/100 --beta 1/2",
    "stair 2 1 --alpha 0.5 --beta 1/2", "pack two 2 1 -1/100 5 1 1/100",
    "regulation 29 7 --json --dot", "markov companions 6",
    "markov branch 5 1 --lo -4 --h 2", "markov tree --depth 3 --depth 2",
    "stair 2 1 --svg -x", "stair 2 1 --steps 1 --svg -٣",
    "atf delta 5 1 1/2 1/3 --pavilion -1/100,1/100,1/100,1/100",
    "atf delta 5 1 1/2 1/3 --pavilion 1/100,-1/100,1/100,1/100",
    "atf delta 5 1 1/2 1/3 --pavilion -1/100,-1/100,1/100,1/100",
    "atf delta 5 1 1/2 1/3 --pavilion -1,1/100,1/100", "atf delta 5 1 1/2 1/3 --pavilion -1/100,",
    "atf delta 5 1 1/2 1/3 --pavilion -1/100,x", "atf delta 5 1 1/2 1/3 --pavilion -1/100,--1",
    "stair 2 1 --svg --1",
]]))


def _both_parsers(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of `run(argv)`, first as it runs, then with
    `_fast_parse` declining, so that argparse reads argv."""
    fast = invoke(capsys, *argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_fast_parse", lambda argv: None)
        return fast, invoke(capsys, *argv)


def _without_parser(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "parser"}


@pytest.mark.parametrize("argv", _EQUIVALENCE_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_fast_parser_answers_as_argparse(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at a fixed width
    monkeypatch.chdir(tmp_path)  # where the SVGs go
    fast, whole = _both_parsers(capsys, monkeypatch, argv)
    assert fast == whole


@pytest.mark.parametrize("line", [
    "markov tree --dep 3",  # an abbreviation
    "markov branch 5 1 --lo -4 --h 2",  # an abbreviation argparse calls ambiguous
    "markov tree --depth=3", "markov tree --depth 3 --depth 3", "markov tree --depth 3 -h",
    "-- markov tree --depth 3", "markov tree -- --depth 3", "markov tree --depth",
    "markov tree", "markov branch 5 1 --lo 0", "capacity 5", "capacity 5 1 1",
    "regulation 29 7 --json --dot", "capacity 5 x", "capacity 5 -x", "capacity 5 -٣",
    "capacity 5 -0.5", "capacity 5 -", "stair 2 1 --svg -x", "stair 2 1 --svg --json",
    "stair 2 1 --alpha 1/0 --beta 1/2", "markov", "markov --help", "bogus",
    "atf delta 5 1 1/2 1/3 --pavilion -1/100,", "atf delta 5 1 1/2 1/3 --pavilion -1/100,--1",
    "atf delta 5 1 1/2 1/3 --pavilion -1/100,1/٣", "stair 2 1 --svg --1",
])
def test_the_fast_parser_declines_what_it_does_not_fully_recognise(line):
    assert cli._fast_parse(line.split()) is None


def test_the_fast_parser_reads_every_readme_line():
    for line in README_CLI_LINES:
        assert cli._fast_parse(line.split()) is not None, line


_VALUES = {int: ["0", "1", "2", "3", "5", "7", "29", "-4"],
           cli._rational: ["1", "1/2", "1/3", "49/100", "1/100", "-1/100"],
           cli._rational_list: ["1/100,19/1000,17/1000,1/100", "1/10", "1/100,1/50"],
           None: ["out.svg", "1", ""]}
_HOSTILE = ["-h", "--help", "--", "", "-1/100", "-0.5", "-.5", "-٣", "1/0", "-", "-x", "--x",
            "--json", "--dot", "--depth", "--svg", "-1/", "markov", "tree", "0.5", "1 2"]


def _flat(arguments):
    """The (name, keywords) rows of a leaf, with its _ONE_OF groups opened."""
    return [member for name, keywords in arguments
            for member in (keywords if name == cli._ONE_OF else ((name, keywords),))]


def _value(rng, keywords):
    """A value for an argument with these keywords: of its type with odds 9 in
    10, else of any type."""
    pool = _VALUES[keywords.get("type")]
    return rng.choice(pool if rng.random() < 0.9 else rng.choice(list(_VALUES.values())))


def _table_argv(rng):
    """An argv over the command table: a command, its positionals in order
    and some of its options (the required ones always), interleaved at
    random; then, with even odds, one to three hostile edits: an abbreviated
    option, '--x=v', a repeated option, a token dropped, or a hostile token
    put in or put in place of one."""
    rows, argv = cli._commands(), []
    while True:
        name, _, arguments, handler = rng.choice(rows)
        argv.append(name)
        if handler is not None:
            break
        rows = arguments
    chunks = [[_value(rng, keywords)] for name, keywords in _flat(arguments)
              if not name.startswith("-")]
    for name, keywords in _flat(arguments):
        if name.startswith("-") and (keywords.get("required") or rng.random() < 0.5):
            chunk = [name] if "action" in keywords else [name, _value(rng, keywords)]
            chunks.insert(rng.randint(0, len(chunks)), chunk)
    options = [name for name, _ in _flat(arguments) if name.startswith("-")] or ["--x"]
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        edit, at = rng.randrange(6), rng.randint(0, len(chunks))
        option = rng.choice(options)
        if edit == 0:
            chunks.insert(at, [option[:rng.randint(3, max(3, len(option) - 1))],
                               _value(rng, {})])
        elif edit == 1:
            chunks.insert(at, [f"{option}={_value(rng, {})}"])
        elif edit == 2 and chunks:
            chunks.insert(at, list(rng.choice(chunks)))
        elif edit == 3 and chunks:
            chunks.pop(rng.randrange(len(chunks)))
        elif edit == 4:
            chunks.insert(at, [rng.choice(_HOSTILE)])
        elif chunks:
            chunk = rng.choice(chunks)
            chunk[rng.randrange(len(chunk))] = rng.choice(_HOSTILE)
    return argv + [token for chunk in chunks for token in chunk]


def test_the_fast_parser_accepts_only_what_argparse_reads_the_same(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where the SVGs go
    rng = random.Random(32)
    accepted = 0
    for _ in range(600):
        argv = _table_argv(rng)
        fast = cli._fast_parse(argv)
        if fast is None:
            continue
        accepted += 1
        whole = cli._build_parser().parse_args(argv)  # a usage error raises SystemExit
        assert _without_parser(fast) == _without_parser(whole), argv
        fast_run, whole_run = _both_parsers(capsys, monkeypatch, argv)
        assert fast_run == whole_run, argv
    assert 200 <= accepted <= 450, accepted  # both paths well exercised


@pytest.mark.parametrize("argv, error", [
    (("5", "1", "--lo", "12000", "--hi", "11990"), "empty window: lo=12000 > hi=11990"),
    (("5", "3", "--lo", "0", "--hi", "12000"), "3 is not a companion of 5 (pair {1, 4})"),
    (("7", "1", "--lo", "0", "--hi", "12000"), "7 is not a Markov number"),
])
def test_branch_window_faults_are_named_before_the_digit_limit(capsys, argv, error):
    # a window past the limit that is also empty, or whose p or q is wrong,
    # is refused for that fault, as it was before the window was bounded
    start = time.perf_counter()
    code, out, err = invoke(capsys, "markov", "branch", *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == "" and err.startswith(f"error: {error}")


@pytest.mark.parametrize("digits", [1, 40, 300])
def test_branch_reach_bounds_every_term_beyond_it(digits):
    from pinstairs.markov import branch_sequence

    for p, q in ((1, 1), (2, 1), (5, 1), (5, 4), (13, 11), (29, 7), (433, 104)):
        n = cli._branch_reach(p, digits)
        seq = branch_sequence(p, q, -n, n)
        # the terms grow away from the valley, so the two ends are the smallest beyond it
        assert len(str(seq.value(-n))) > digits and len(str(seq.value(n))) > digits
        # and the bound is close: a dozen indices in, the terms still fit
        inner = [v for i, v in seq.items() if abs(i) <= n - 12]
        assert all(len(str(v)) <= digits for v in inner)


def test_companions_of_a_fourteen_digit_markov_number(capsys):
    code, out, _ = invoke(capsys, "markov", "companions", "17167680177565")
    assert code == 0 and out.startswith("q ∈ {")
    code, _, err = invoke(capsys, "markov", "companions", "433", "--depth", "2")
    assert code == 1 and "does not prove" in err


def test_negative_search_depth_exits_one(capsys):
    code, out, err = invoke(capsys, "markov", "companions", "29", "--depth", "-2")
    assert code == 1 and out == ""
    assert err == "error: search depth must be >= 0: -2\n"


def test_depth_cut_names_the_depth_limit(capsys):
    code, _, err = invoke(capsys, "markov", "companions", "433", "--depth", "2")
    assert code == 1 and len(err.splitlines()) == 1
    assert "depth limit" in err and "exhausted" not in err


def test_wahl_refuses_tables_of_overlong_chains(capsys, monkeypatch):
    # the chain of (p, 1) has p - 1 entries: the two tables would need 2 (p-1)^2
    code, out, err = invoke(capsys, "wahl", "9973", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: the chain of (9973,1) has 9972 entries")
    code, out, _ = invoke(capsys, "wahl", str(cli.MAX_TABLE_CHAIN + 2), "1")
    assert code == 1 and out == ""
    monkeypatch.setattr(cli, "MAX_TABLE_CHAIN", 5)
    code, out, _ = invoke(capsys, "wahl", "6", "1", "--json")
    assert code == 0 and len(json.loads(out)["chain"]) == 5
    code, out, _ = invoke(capsys, "wahl", "7", "1", "--json")
    assert code == 1 and out == ""


@pytest.mark.parametrize("argv, error", [
    (("wahl", "1000001", "1"), "the chain of (1000001,1) has 1000000 entries"),
    (("wahl", str(10**400 + 1), "1"), f"the chain of ({10**400 + 1},1) has {10**400} entries"),
    (("atf", "delta", "1000001", "1", "1/2", "1/3", "--pavilion", "1/100"),
     "need 1000000 offsets for (1000001,1), got 1"),
])
def test_a_long_chain_is_refused_before_it_is_built(capsys, argv, error):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == "" and err.startswith(f"error: {error}")


def test_markov_tree_refuses_depths_beyond_the_printed_limit(capsys, monkeypatch):
    # refused before any level is built, whatever the depth asked for
    for depth in (cli.MAX_PRINTED_TREE_DEPTH + 1, 30, 10**9):
        code, out, err = invoke(capsys, "markov", "tree", "--depth", str(depth))
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert f"depth {depth} outside [0, {cli.MAX_PRINTED_TREE_DEPTH}]" in err
    monkeypatch.setattr(cli, "MAX_PRINTED_TREE_DEPTH", 3)
    code, out, _ = invoke(capsys, "markov", "tree", "--depth", "3")
    assert code == 0 and len(out.splitlines()) == 5  # 2^(depth-1) + 1 entries
    for fmt in ((), ("--json",)):
        code, out, err = invoke(capsys, "markov", "tree", "--depth", "4", *fmt)
        assert code == 1 and out == "" and "outside [0, 3]" in err


def test_pack_two_negative_width_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, "pack", "two", "2", "1", "-1/100", "5", "1", "1/100")
    assert (code, out) == (1, "")
    assert err == "error: ball widths must be positive\n"


@pytest.mark.parametrize("offsets", ["-1/100,1/100,1/100,1/100", "1/100,-1/100,1/100,1/100",
                                     "-1,-1/100,1/100,1/100"])
def test_a_pavilion_with_a_negative_offset_is_a_domain_error(capsys, offsets):
    # wherever the negative offset stands, first included, the list is a value,
    # which the fast reader reads too
    argv = ["atf", "delta", "5", "1", "1/2", "1/3", "--pavilion", offsets]
    assert cli._fast_parse(argv) is not None
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: offsets must be positive\n"


def test_stair_negative_alpha_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, "stair", "2", "1", "--alpha", "-1/2", "--beta", "1/2")
    assert (code, out) == (1, "")
    assert err == "error: alpha and beta must be positive\n"
    # a negative decimal is still a usage error, as a positive one is
    code, _, err = invoke(capsys, "stair", "2", "1", "--alpha", "-0.5", "--beta", "1/2")
    assert code == 2 and "not a rational" in err


def test_wahl_prints_a_forty_digit_markov_pair(capsys):
    # the first Markov number of the Pell branch (2, p, p') with 40 digits
    a, b = 5, 29
    while len(str(b)) < 40:
        a, b = b, 6 * b - a
    q = min(companions(b).pair)
    code, out, _ = invoke(capsys, "wahl", str(b), str(q))
    assert code == 0
    m = sum(line.startswith("M[") for line in out.splitlines())
    assert 300 < m <= cli.MAX_TABLE_CHAIN
    assert "culet: index" in out


def test_wahl_table_lines(capsys):
    code, out, _ = invoke(capsys, "wahl", "5", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chain: [7, 2, 2, 2]"
    assert "culet: index 1, triple (5, 1, 2), weight 7" in lines
    assert any(line.startswith("discrepancies: -4/5") for line in lines)


def test_wahl_json_round_trip(capsys):
    code, out, _ = invoke(capsys, "wahl", "2", "1", "--json")
    data = json.loads(out)
    assert data["chain"] == [4]
    assert data["inverse"] == [["-1/4"]]
    assert data["culet"]["weight"] == 4
    assert data["culet"]["triple"] == [2, 1, 1]


def test_wahl_without_culet_still_prints(capsys):
    # each is a valid Wahl pair with no culet, and the line names the reason:
    # (1,1) is a Markov pair below the scan, 2 is no companion of 5, and 12
    # is not a Markov number
    for p, q, reason in (
            ("1", "1", "culet scan needs p >= 2: got p=1"),
            ("5", "2", "2 is not a companion of 5 (pair {1, 4})"),
            ("12", "5", "12 is not a Markov number (proved by exhaustive tree search)")):
        code, out, _ = invoke(capsys, "wahl", p, q)
        assert code == 0
        assert out.splitlines()[-1] == f"culet: none ({reason})"
        code, out, _ = invoke(capsys, "wahl", p, q, "--json")
        assert code == 0 and json.loads(out)["culet"] is None


def test_capacity_command(capsys):
    code, out, _ = invoke(capsys, "capacity", "5", "1")
    assert code == 0 and out.strip() == "1/10"


def test_pack_two_feasible_text(capsys):
    code, out, _ = invoke(capsys, "pack", "two", "2", "1", "1/100", "5", "1", "1/100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "feasible (p3 = 1)"
    assert lines[1] == "bounds: alpha1 < 5/2, alpha2 < 2/5, alpha1+alpha2 < 1/10"
    assert lines[2] == "implied: alpha1"


def test_pack_two_infeasible_text(capsys):
    code, out, _ = invoke(capsys, "pack", "two", "2", "1", "1/20", "5", "1", "1/20")
    assert code == 0
    assert out.splitlines()[0] == \
        "infeasible, binding: alpha1+alpha2 = 1/10 not < 1/10"


def test_pack_two_unknown_text(capsys):
    code, out, _ = invoke(capsys, "pack", "two", "1", "1", "1/100", "194", "31", "1/100")
    assert code == 0
    assert out.startswith("unknown")


def test_pack_three_text(capsys):
    code, out, _ = invoke(capsys, "pack", "three",
                          "5", "1", "1/100", "2", "1", "1/100", "1", "1", "1/100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "feasible"
    assert lines[1] == \
        "bounds: alpha1+alpha2 < 1/10, alpha1+alpha3 < 2/5, alpha2+alpha3 < 5/2"


def test_atf_delta_text(capsys):
    code, out, _ = invoke(capsys, "atf", "delta", "2", "1", "1/2", "1/3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex (0, 0)"
    assert lines[1] == "vertex (2, 1/2)"
    assert lines[2] == "vertex (0, 1/3)"


def test_atf_delta_pavilion_text(capsys):
    code, out, _ = invoke(capsys, "atf", "delta", "5", "1", "1/2", "1/3",
                          "--pavilion", "1/100,19/1000,17/1000,1/100")
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("edge ")) == 7


def test_atf_delta_pavilion_text_and_svg_bytes_are_pinned(capsys, tmp_path):
    # the vertices start at the rho_5 edge's far end from the apex, and the edges
    # run anticlockwise from there, as the clipped triangle gave them
    argv = ("atf", "delta", "5", "1", "1/2", "1/3", "--pavilion", "1/100,19/1000,17/1000,1/100")
    assert invoke(capsys, *argv) == (0, (
        "vertex (1/4, 1/25)\nvertex (25/2, 2)\nvertex (0, 1/3)\nvertex (0, 1/100)\n"
        "vertex (51/1000, 1/100)\nvertex (16/125, 21/1000)\nvertex (193/1000, 31/1000)\n"
        "edge rho_5: length 49/100\nedge girdle: length 5/6\nedge rho_0: length 97/300\n"
        "edge rho_1: length 51/1000\nedge rho_2: length 11/1000\nedge rho_3: length 1/200\n"
        "edge rho_4: length 3/1000\n"), "")
    path = tmp_path / "delta.svg"
    assert invoke(capsys, *argv, "--svg", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8257e7a6e060421f2a6ce164b4d5bc393643db89ca9a1043a6df52462ca47811")


def test_atf_vianna_text(capsys):
    code, out, _ = invoke(capsys, "atf", "vianna", "2", "1", "1")
    assert code == 0
    assert out.splitlines()[0] == "triple: (2, 1, 1)"
    assert "signature: dets (1, 1, 4)" in out


def test_atf_vianna_600_levels_deep_exits_0_without_traceback(capsys, monkeypatch):
    _, u, p = fibonacci_markov_triple(1201)  # F_1199 and F_1201, 251 digits each
    monkeypatch.setattr(sys, "argv", ["pinstairs", "atf", "vianna", "1", str(u), str(p)])
    with pytest.raises(SystemExit) as exc:
        main()
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.splitlines()[0] == f"triple: (1, {u}, {p})"
    assert out.splitlines()[-1].startswith(f"signature: dets (1, {u * u}, {p * p})")
    assert out.splitlines()[-1].endswith("area 1/2")


def test_regulation_text_and_json(capsys):
    code, out, _ = invoke(capsys, "regulation", "5", "1")
    assert code == 0
    assert out.splitlines()[0] == "weight 7, culet index 1, 1 broken ruling(s)"
    assert out.splitlines()[1] == "ruling 1: C2, C3, C4 + E1 at C3"
    code, out, _ = invoke(capsys, "regulation", "5", "1", "--json")
    data = json.loads(out)
    assert data["attach_positions"] == [3]
    code, out, _ = invoke(capsys, "regulation", "5", "1", "--dot")
    assert out.startswith("graph dual {")
    code, out, err = invoke(capsys, "regulation", "5", "1", "--json", "--dot")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "pinstairs regulation: error: argument --dot: not allowed with argument --json")


def test_svg_rendering_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = invoke(capsys, "stair", "2", "1", "--svg", str(path), "--steps", "5")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"<svg")


def test_staircase_svg_has_corner_labels(tmp_path, capsys):
    path = tmp_path / "s.svg"
    invoke(capsys, "stair", "2", "1", "--svg", str(path), "--steps", "5")
    svg = path.read_text()
    for label in ["(1/2, 1/2)", "(5/2, 1/10)", "(1/10, 5/2)",
                  "(29/10, 5/58)", "(5/58, 29/10)"]:
        assert label in svg
    assert "sigma_2 = 2.914…" in svg
    assert svg.count("<circle") == 5


def test_staircase_one_step_is_the_unit_box(tmp_path, capsys):
    path = tmp_path / "s.svg"
    invoke(capsys, "stair", "1", "1", "--svg", str(path), "--steps", "1")
    svg = path.read_text()
    assert svg.count("<circle") == 1
    assert "(1, 1)" in svg


def test_vianna_svg_marks_nodes_for_big_vertices(tmp_path, capsys):
    path = tmp_path / "v.svg"
    invoke(capsys, "atf", "vianna", "2", "1", "1", "--svg", str(path))
    svg = path.read_text()
    # one branch cut: one dashed segment and one x marker (two strokes)
    assert svg.count('stroke-dasharray="4,4"') == 1
    path2 = tmp_path / "v3.svg"
    invoke(capsys, "atf", "vianna", "5", "2", "1", "--svg", str(path2))
    assert path2.read_text().count('stroke-dasharray="4,4"') == 2


def test_plain_simplex_has_no_cuts(tmp_path, capsys):
    path = tmp_path / "v111.svg"
    invoke(capsys, "atf", "vianna", "1", "1", "1", "--svg", str(path))
    assert 'stroke-dasharray="4,4"' not in path.read_text()


def test_delta_svg_has_girdle_dash(tmp_path, capsys):
    path = tmp_path / "d.svg"
    invoke(capsys, "atf", "delta", "2", "1", "1/2", "1/3", "--svg", str(path))
    svg = path.read_text()
    assert svg.count('stroke-dasharray="12,6"') == 1


def test_render_functions_reject_bad_specs():
    with pytest.raises(DomainError):
        RenderSpec("staircase", (F(0), F(0), F(0), F(1)))
    with pytest.raises(DomainError):
        RenderSpec("staircase", (F(0), F(1), F(0), F(1)), steps=0)
    with pytest.raises(DomainError):
        render_base_diagram(object())


def test_render_base_diagram_accepts_all_shapes():
    tri = delta_triangle(5, 1, F(1, 2), F(1, 3))
    assert render_base_diagram(tri).startswith("<svg")
    pav = pavilion_polygon(tri, [F(1, 100), F(19, 1000), F(17, 1000), F(1, 100)])
    assert render_base_diagram(pav).count('stroke-dasharray="12,6"') == 1
    assert render_base_diagram(vianna_triangle(1, 1, 1)).startswith("<svg")


def test_render_staircase_window_obeys_steps():
    spec = RenderSpec("staircase", (F(0), F(3), F(0), F(3)), steps=6)
    svg = render_staircase(5, 1, spec)
    assert "(2/5, 1/10)" in svg and "(433/145, 29/2165)" in svg


# ---------------------------------------------------------------- fuzzing

_TRIPLES = sorted({t for e in enumerate_tree(8) if max(e.triple) <= 10**4
                   for t in itertools.permutations(e.triple)})
_MARKOV = sorted({x for t in _TRIPLES for x in t})
_PAIRS = sorted({(p, q) for p in _MARKOV for q in companions(p).pair})
_SVG = "<svg path>"

_number = st.one_of(st.sampled_from(_MARKOV), st.sampled_from([q for _, q in _PAIRS]),
                    st.integers(min_value=-3, max_value=10**4)).map(str)
_pair = st.one_of(st.sampled_from(_PAIRS).map(lambda pq: [str(x) for x in pq]),
                  st.tuples(_number, _number).map(list))
_triple = st.one_of(st.sampled_from(_TRIPLES).map(lambda t: [str(x) for x in t]),
                    st.tuples(_number, _number, _number).map(list))
_small = st.integers(min_value=-2, max_value=6).map(str)
_rational = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-3, 60), st.integers(0, 60)),
    st.integers(-3, 5).map(str),
    st.sampled_from(["0.5", "1/2/3", "x", ""]),
)


def _opt(*flags):
    return st.one_of(st.just([]), st.just(list(flags)))


def _cat(*parts):
    """One argv from strategies of single words and of word lists, in order."""
    def flatten(xs):
        return [a for x in xs for a in (x if isinstance(x, list) else [x])]
    return st.tuples(*parts).map(flatten)


@st.composite
def _window(draw):
    lo = draw(st.integers(min_value=-20, max_value=20))
    return ["--lo", str(lo), "--hi", str(lo + draw(st.integers(min_value=-2, max_value=39)))]


# windows out to 10^40 exist only where Python limits int/str digits: without
# the limit each would ask for that many terms
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@st.composite
def _far_window(draw):
    """A window reaching 10^3 to 10^40 terms out.  Under the default limit of
    4300 digits it lies past the limit for every p from about 10^4 terms
    out, where it is refused before any term is computed; a wide one always
    does."""
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=10**3, max_value=10**40)) * draw(st.sampled_from([1, -1]))
        return ["--lo", str(lo), "--hi", str(lo + draw(st.integers(min_value=-2, max_value=39)))]
    far = draw(st.integers(min_value=2 * 10**4, max_value=10**40))
    return ["--lo", str(-far), "--hi", str(far)]


# from just past the output bound out to 10^40: each is refused before any box
# is built, by the step bound or, past the digit limit of its p, by that limit
_far_steps = st.one_of(
    st.integers(min_value=cli.MAX_STAIR_STEPS + 1, max_value=cli.MAX_STAIR_STEPS + 50),
    st.integers(min_value=cli.MAX_STAIR_STEPS + 1, max_value=10**40),
).map(str)


@st.composite
def _balls(draw):
    """p1 q1 a1 p2 q2 a2 p3 q3 a3, often around a Markov triple."""
    out = []
    for p in draw(_triple):
        mine = [str(q) for p2, q in _PAIRS if str(p2) == p]  # its companions, if Markov
        q = draw(st.sampled_from(mine) if mine and draw(st.booleans()) else _number)
        out += [p, q, draw(_rational)]
    return out


_argv = st.one_of(
    _cat(st.just(["markov", "tree", "--depth"]), _small, _opt("--json")),
    _cat(st.just(["markov", "companions"]), _number,
         st.one_of(st.just([]), _small.map(lambda d: ["--depth", d]))),
    _cat(st.just(["markov", "branch"]), _pair, _window()),
    *([_cat(st.just(["markov", "branch"]), _pair, _far_window())] if _DIGIT_LIMIT else []),
    _cat(st.just(["wahl"]), _pair, _opt("--json")),
    _cat(st.just(["stair"]), _pair, st.just("--alpha"), _rational,
         st.just("--beta"), _rational, _opt("--json")),
    _cat(st.just(["stair"]), _pair, st.just(["--svg", _SVG, "--steps"]),
         st.one_of(_small, _far_steps)),
    _cat(st.just(["capacity"]), _pair),
    _cat(st.just(["pack", "two"]), _pair, _rational, _pair, _rational),
    _cat(st.just(["pack", "three"]), _balls()),
    _cat(st.just(["atf", "delta"]), _pair, _rational, _rational,
         st.one_of(st.just([]), st.lists(_rational, max_size=6).map(
             lambda xs: ["--pavilion", ",".join(xs)])),
         _opt("--svg", _SVG)),
    _cat(st.just(["atf", "vianna"]), _triple, _opt("--svg", _SVG)),
    _cat(st.just(["regulation"]), _pair, st.sampled_from([[], ["--json"], ["--dot"]])),
    st.lists(st.sampled_from(["markov", "tree", "stair", "--json", "29", "-1", "x"]),
             max_size=4),
)

FUZZ_SECONDS = 10.0  # per run; the slowest runs seen take about 0.2 s


@settings(max_examples=300, deadline=None)
@given(_argv, st.sampled_from(["out.svg", "missing/out.svg", ""]))  # the last two unwritable
def test_fuzzed_argv_keeps_the_exit_code_contract(argv, svg):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, svg) if a == _SVG else a for a in argv]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < FUZZ_SECONDS, (argv, elapsed)


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback():
    # depth 12 prints 233 kB, past any pipe buffer, so the command is still
    # writing when the reader goes
    env = dict(os.environ)
    path = [str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.Popen([sys.executable, "-m", "pinstairs.cli_plot", "markov", "tree",
                             "--depth", "12"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        assert proc.stdout.readline() == b"d0: (1, 1, 1)\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and err == ""
    assert code == 1
