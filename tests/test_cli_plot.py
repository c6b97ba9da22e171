"""End-to-end CLI behaviour: exit codes, exact text, JSON, SVG determinism."""

import json
import sys
from fractions import Fraction

import pytest

import pinstairs.cli_plot as cli
from pinstairs.cli_plot import RenderSpec, main, render_base_diagram, render_staircase, run
from pinstairs.atf_geometry import delta_triangle, pavilion_polygon, vianna_triangle
from pinstairs.exact_core import DomainError

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
        raise AssertionError("contracted-curve count is not m - 1")

    monkeypatch.setattr(cli, "cmd_regulation", broken)
    code, out, err = invoke(capsys, "regulation", "29", "7")
    assert code == 3 and out == ""
    assert err == "internal error: contracted-curve count is not m - 1 (argv: regulation 29 7)\n"
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


def test_companions_of_a_fourteen_digit_markov_number(capsys):
    code, out, _ = invoke(capsys, "markov", "companions", "17167680177565")
    assert code == 0 and out.startswith("q ∈ {")
    code, _, err = invoke(capsys, "markov", "companions", "433", "--depth", "2")
    assert code == 1 and "does not prove" in err


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
    # (12,5) is a valid Wahl pair but 12 is not a Markov number
    code, out, _ = invoke(capsys, "wahl", "12", "5")
    assert code == 0
    assert "culet: none" in out


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


def test_atf_vianna_text(capsys):
    code, out, _ = invoke(capsys, "atf", "vianna", "2", "1", "1")
    assert code == 0
    assert out.splitlines()[0] == "triple: (2, 1, 1)"
    assert "signature: dets (1, 1, 4)" in out


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
