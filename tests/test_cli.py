"""End-to-end command tests, run in process through main()."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import z2zu.cli
import z2zu.search
from z2zu.cli import _build_parser, _dump, main
from z2zu.core import (
    MAX_CODE_WORD_BITS,
    additive_span,
    gray_image,
    parse_matrix,
    parse_matrix_file,
    span,
)
from z2zu.errors import InternalVerificationFailure, MatrixParseError
from z2zu.presets import PRESETS, preset_code
from z2zu.ring import RingElem
from z2zu.weights import ColumnProfile


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_file(key):
    return "data/ex" + key.replace(".", "_") + ".txt"


def test_cached_parser_carries_no_flag_into_the_next_call(capsys):
    # --json, --quiet and --seed default to SUPPRESS, so each is absent
    # unless given in that call
    search = ["search", "--alpha", "2..4", "--beta", "1..3",
              "--budget", "2000", "--target", "one-weight"]
    calls = [["analyze", data_file("5.4"), "--json"],
             ["--quiet", "reproduce", "4.3a"],
             ["analyze", data_file("5.4")],
             search + ["--seed", "7"],
             search]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert fresh[0][1] != fresh[2][1] and fresh[3][1] != fresh[4][1]
    _build_parser.cache_clear()
    assert [run(capsys, argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1


# ---------------------------------------------------------------- analyze


def test_analyze_too_many_words_exits_2(tmp_path, capsys):
    # 27 unit rows: a 2^27-word code, past the word-array cap
    n = MAX_CODE_WORD_BITS + 1
    rows = [" ".join("1" if j == i else "0" for j in range(n)) + " |"
            for i in range(n)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(rows) + "\n")
    rc, out, err = run(capsys, ["analyze", str(path)])
    assert rc == 2
    assert out == ""
    assert err == ("error: code has 2^27 words; building them is capped "
                   "at 2^26\n")


def test_analyze_human(capsys):
    rc, out, _ = run(capsys, ["analyze", data_file("3.6")])
    assert rc == 0
    assert "shape: alpha=7 beta=1 (N=9)" in out
    assert "lee enumerator: x^9 + 3x^3y^6" in out
    assert "gray image: [9,2,6] (optimal)" in out
    assert "dual (macwilliams): cardinality 128, min lee weight 2" in out
    assert "classification: one_lee_weight" in out
    assert "weight_sum_identity: pass" in out


def test_analyze_json_shape(capsys):
    rc, out, _ = run(capsys, ["analyze", data_file("3.6"), "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert list(obj) == [
        "shape", "rows_u_closed", "cardinality", "type", "standard_form",
        "lee", "gray", "dual", "classification", "checks", "warnings",
    ]
    assert obj["shape"] == {"alpha": 7, "beta": 1, "n": 9}
    assert obj["type"] == "(7,1;2,0,0)"
    assert obj["lee"]["poly"] == "x^9 + 3x^3y^6"
    assert obj["lee"]["counts"] == [[0, 1], [6, 3]]
    assert obj["gray"] == {"n": 9, "k": 2, "d": 6, "optimality": "optimal"}
    assert obj["dual"]["cardinality"] == 128
    assert obj["checks"]["one_weight_relations"] is True
    assert obj["warnings"] == []


def test_json_is_byte_identical_and_flag_position_free(capsys):
    outputs = []
    for argv in (["--json", "analyze", data_file("5.6")],
                 ["analyze", "--json", data_file("5.6")],
                 ["analyze", data_file("5.6"), "--json"],
                 ["analyze", data_file("5.6"), "--json"]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        outputs.append(out)
    assert len(set(outputs)) == 1


def test_analyze_warns_when_rows_not_u_closed(capsys):
    rc, out, _ = run(capsys, ["analyze", data_file("5.4"), "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["rows_u_closed"] is False
    assert any("not u-closed" in w for w in obj["warnings"])
    # the analyzed object is the 32-word closure, not the 16-word subgroup
    assert obj["cardinality"] == 32


def test_analyze_trivial_span_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "zero.txt"
    f.write_text("0 0 | 0\n")
    rc, _, err = run(capsys, ["analyze", str(f)])
    assert rc == 2
    assert "zero code" in err


def test_analyze_skips_two_weight_relations_when_not_projective(
    capsys, tmp_path
):
    # weights 1 and 2, and the zero column puts a weight-1 word in the dual
    f = tmp_path / "zero-column.txt"
    f.write_text("1 0 0 |\n0 1 0 |\n")
    rc, out, _ = run(capsys, ["analyze", str(f), "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["classification"]["two_lee_weight"] is True
    assert obj["classification"]["projective"] is False
    assert obj["checks"]["two_weight_relations"] == "skipped: not projective"


def test_missing_file(capsys):
    rc, _, err = run(capsys, ["analyze", "data/no_such_file.txt"])
    assert rc == 2
    assert "error:" in err


def test_parse_error_cites_position(capsys, tmp_path):
    f = tmp_path / "ragged.txt"
    f.write_text("1 0 | u\n1 | u\n")
    rc, _, err = run(capsys, ["analyze", str(f)])
    assert rc == 2
    assert "line 2" in err


# ------------------------------------------------------------------- dual


def test_dual_command(capsys):
    rc, out, _ = run(capsys, ["dual", data_file("5.7")])
    assert rc == 0
    assert "dual cardinality: 2048" in out
    assert ("dual enumerator: x^16 + 140x^12y^4 + 448x^10y^6 + 870x^8y^8"
            " + 448x^6y^10 + 140x^4y^12 + y^16") in out
    assert "dual gray image: [16,11,4]" in out


def test_dual_of_zero_code_is_whole_ambient(capsys, tmp_path):
    f = tmp_path / "zero.txt"
    f.write_text("0 |\n")
    rc, out, _ = run(capsys, ["dual", str(f)])
    assert rc == 0
    assert "dual cardinality: 2" in out
    assert "dual enumerator: x + y" in out


def test_dual_large_ambient_downgrades_to_transform(capsys, tmp_path):
    f = tmp_path / "wide.txt"
    row = " ".join(["1"] * 28)
    f.write_text(row + " |\n")
    rc, out, _ = run(capsys, ["dual", str(f), "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["source"] == "macwilliams"
    assert len(obj["generators"]) == 27
    assert obj["gray"] == [28, 27, 2]


def count_calls(monkeypatch, name):
    """Wrap ``z2zu.core.<name>`` at each of its bindings in the loaded
    z2zu modules; the returned list gets one (args, result) per call."""
    fn = getattr(sys.modules["z2zu.core"], name)
    calls = []

    def counted(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "z2zu" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("command", ["analyze", "dual", "gray",
                                     "standard-form", "macwilliams",
                                     "classify"])
def test_each_file_command_builds_one_code(monkeypatch, capsys, command):
    # every command spans the file's rows once; analyze also builds the
    # bare subgroup once, to tell whether the rows were u-closed
    built = []
    for name in ("span", "additive_span"):
        fn = getattr(z2zu.cli, name)
        monkeypatch.setattr(z2zu.cli, name,
                            lambda *a, fn=fn, name=name:
                            built.append(name) or fn(*a))
    for path in sorted(Path("data").iterdir()):
        built.clear()
        rc, out, _ = run(capsys, ["--json", command, str(path)])
        assert rc == 0
        if command != "analyze":
            assert built == ["span"], path
            continue
        assert sorted(built) == ["additive_span", "span"], path
        shape, rows = parse_matrix_file(path)
        assert (json.loads(out)["rows_u_closed"]
                == additive_span(shape, rows).is_module()), path


@pytest.mark.parametrize("key", list(PRESETS))
def test_analyze_computes_each_invariant_once(monkeypatch, capsys, key):
    duals = count_calls(monkeypatch, "dual")
    lee_counts = count_calls(monkeypatch, "_lee_counts")
    profiles = []
    monkeypatch.setattr("z2zu.weights.ColumnProfile",
                        lambda *a: profiles.append(a) or ColumnProfile(*a))
    rc, out, _ = run(capsys, ["analyze", data_file(key), "--json"])
    assert rc == 0
    # the zero-column warning and weight_sum_identity share one profile
    assert len(profiles) == 1
    # the code's words, and the dual's only when they were counted; the
    # dual code is built exactly when its words are counted, as analyze
    # prints none of its rows
    algebraic = json.loads(out)["dual"]["source"] == "algebraic"
    assert len(duals) == algebraic
    assert len(lee_counts) == 1 + algebraic


def test_analyze_reports_a_failing_check_instead_of_dropping_it(
    monkeypatch, capsys
):
    # 4.3a is one-weight and formally self-dual, so the even-weight
    # criterion applies; a failure inside it is not read as "skipped"
    rc, out, _ = run(capsys, ["analyze", data_file("4.3a"), "--json"])
    assert rc == 0
    assert json.loads(out)["checks"]["fsd_even_weight_criterion"] is True

    def fail(code):
        raise InternalVerificationFailure("criterion broke")

    monkeypatch.setattr("z2zu.cli.verify_fsd_even_weight_criterion", fail)
    rc, out, err = run(capsys, ["analyze", data_file("4.3a"), "--json"])
    assert (rc, out) == (3, "")
    assert err == "internal verification failure: criterion broke\n"


def test_dual_command_on_transform_route_builds_no_dual_words(
    monkeypatch, capsys, tmp_path
):
    f = tmp_path / "wide.txt"
    f.write_text(" ".join(["1"] * 28) + " |\n")
    duals = count_calls(monkeypatch, "dual")
    # analyze prints no dual rows, so it builds no dual code
    rc, out, _ = run(capsys, ["analyze", str(f), "--json"])
    assert rc == 0
    assert json.loads(out)["dual"]["cardinality"] == 2 ** 27
    assert duals == []
    rc, out, _ = run(capsys, ["dual", str(f)])
    assert rc == 0
    assert "dual gray image: [28,27,2]" in out
    [(_, dual_code)] = duals
    assert dual_code.cardinality == 2 ** 27
    assert dual_code._array is None


# ------------------------------------------------------------------- gray


def test_gray_with_words(capsys):
    rc, out, _ = run(capsys, ["gray", data_file("4.3a"), "--words"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "gray image: [2,1,2] (unknown)"
    assert lines[1] == "weight enumerator: x^2 + y^2"
    assert lines[2:] == ["00", "11"]


def test_gray_json_words_are_the_image(capsys):
    for path in sorted(Path("data").iterdir()):
        rc, out, _ = run(capsys, ["gray", str(path), "--json", "--words"])
        assert rc == 0
        obj = json.loads(out)
        image = gray_image(span(*parse_matrix_file(path)))
        assert obj["words"] == [format(w, f"0{obj['n']}b")
                                for w in image.words], path


def test_gray_without_words_builds_no_image(monkeypatch, capsys):
    def refuse(code):
        raise AssertionError("gray image built")

    monkeypatch.setattr("z2zu.cli.gray_image", refuse)
    rc, out, err = run(capsys, ["gray", data_file("5.7")])
    assert (rc, err) == (0, "")
    assert out.startswith("gray image: [16,5,8] (optimal)\n")
    rc, out, err = run(capsys, ["gray", data_file("5.7"), "--json"])
    assert (rc, err) == (0, "")
    assert [json.loads(out)[k] for k in ("n", "k", "d")] == [16, 5, 8]


# ---------------------------------------------------------- standard-form


def test_standard_form_command(capsys):
    rc, out, _ = run(capsys, ["standard-form", data_file("5.5")])
    assert rc == 0
    assert "1 0 0 0 1 1 | 0 u 0 u" in out
    assert "# type = (6,4;2,1,0)" in out
    assert "# binary columns (original order): [1, 2, 0, 3, 4, 5]" in out
    rc, quiet_out, _ = run(capsys,
                           ["standard-form", data_file("5.5"), "--quiet"])
    assert rc == 0
    assert "original order" not in quiet_out


def test_data_file_outputs_are_pinned(capsys):
    # the --json output of analyze, classify, standard-form (the full
    # rows), dual (the dual's un-permuted standard-form rows) and gray
    # (the Gray parameters and enumerator) on every bundled matrix
    expected = json.loads(
        (Path(__file__).parent / "data_file_outputs.json").read_text())
    assert sorted(expected) == sorted(p.name for p in Path("data").iterdir())
    for name, outputs in expected.items():
        for command, text in outputs.items():
            rc, out, err = run(capsys, ["--json", command, f"data/{name}"])
            assert (rc, out, err) == (0, text, ""), (command, name)


def test_standard_form_json(capsys):
    rc, out, _ = run(capsys, ["standard-form", data_file("5.5"), "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert list(obj) == ["type", "rows", "binary_column_order",
                         "ring_column_order"]
    assert obj["type"] == "(6,4;2,1,0)"
    assert len(obj["rows"]) == 3


# ------------------------------------------------- macwilliams / classify


def test_macwilliams_command(capsys):
    rc, out, _ = run(capsys, ["macwilliams", data_file("3.6")])
    assert rc == 0
    assert "primal enumerator: x^9 + 3x^3y^6" in out
    assert ("dual enumerator: x^9 + 9x^7y^2 + 27x^6y^3 + 27x^5y^4"
            " + 27x^4y^5 + 27x^3y^6 + 9x^2y^7 + y^9") in out


def test_macwilliams_json_agrees_with_analyze(capsys):
    for path in sorted(Path("data").iterdir()):
        rc, out, _ = run(capsys, ["macwilliams", str(path), "--json"])
        assert rc == 0
        obj = json.loads(out)
        rc, out, _ = run(capsys, ["analyze", str(path), "--json"])
        assert rc == 0
        report = json.loads(out)
        assert obj["primal"] == report["lee"], path
        assert obj["dual"]["counts"] == report["dual"]["counts"], path
        assert obj["dual"]["poly"] == report["dual"]["poly"], path


def test_classify_command(capsys):
    rc, out, _ = run(capsys, ["classify", data_file("5.6"), "--json"])
    assert rc == 0
    assert json.loads(out) == {
        "one_lee_weight": False,
        "two_lee_weight": True,
        "projective": True,
        "formally_self_dual": False,
        "self_orthogonal": True,
        "self_dual": False,
        "nonzero_weights": [12, 16],
        "dual_min_lee_weight": 3,
        "dual_source": "macwilliams",
    }
    # the human form prints the same fields in the same order, the
    # weights as a list
    rc, out, err = run(capsys, ["classify", data_file("5.6")])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "one_lee_weight: False",
        "two_lee_weight: True",
        "projective: True",
        "formally_self_dual: False",
        "self_orthogonal: True",
        "self_dual: False",
        "nonzero_weights: [12, 16]",
        "dual_min_lee_weight: 3",
        "dual_source: macwilliams",
    ]


# --------------------------------------------------------------- reproduce


def test_reproduce_single(capsys):
    rc, out, _ = run(capsys, ["reproduce", "5.5"])
    assert rc == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out


def test_reproduce_reports_known_type_discrepancy(capsys):
    rc, out, _ = run(capsys, ["reproduce", "3.6"])
    assert rc == 0
    assert "DISCREPANCY-KNOWN" in out
    assert "computed (2, 0, 0) vs stated (1, 0, 1)" in out


def test_reproduce_all(capsys):
    rc, out, _ = run(capsys, ["reproduce", "all", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert obj["assertions"] == 95
    assert [o["example"] for o in obj["examples"]] == list(PRESETS)
    # every name, status and detail string, byte for byte as stored
    assert out == (Path(__file__).parent / "reproduce_all.json").read_text()


def test_reproduce_fails_on_an_altered_preset(monkeypatch, capsys):
    p = PRESETS["5.5"]
    monkeypatch.setitem(PRESETS, "5.5", replace(p, gray=(16, 5, 9)))
    rc, out, _ = run(capsys, ["reproduce", "5.5"])
    assert rc == 4
    assert (f"FAIL  gray parameters: expected (16, 5, 9), "
            f"got {p.gray!r}") in out
    assert "1 failure(s)" in out


def pinned_json_objects():
    """Every JSON object pinned under tests/: each --json text of the
    data files, reproduce all, the survey and each search hit line."""
    here = Path(__file__).parent
    texts = [(here / "reproduce_all.json").read_text()]
    for outputs in json.loads(
            (here / "data_file_outputs.json").read_text()).values():
        texts += outputs.values()
    for path in sorted((here / "search_outputs").iterdir()):
        text = path.read_text()
        texts += text.splitlines() if path.suffix == ".jsonl" else [text]
    return [json.loads(t) for t in texts]


def test_dump_is_json_dumps_with_indent_2():
    objects = pinned_json_objects()
    assert len(objects) > 50
    objects += [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}]},
        [[[[{"deep": []}]]]],
        {"flags": [True, False, 0, 1, None, -1, 2 ** 70]},
        (1, (2, ("x",)), ["y", (None,)]),
        [0.5, -0.0, 1e300, 3.0, float("inf")],
        {"q\"uote": "back\\slash", "ctl": "\x00\t\n\x1f\x7f",
         "text": "\u00e9 \u2211 \U0001d53d \u2028", "": ""},
        "top-level", 7, True, None, 2.5,
        # only exact (int, int) tuples take the pair path
        ((True, 1),), ((1, False),), ((None, 1),), ((1, 2 ** 70),),
        ((-(2 ** 70), 0),), ((RingElem.U, 1),), ((1, 2, 3),), ((1,),),
        ((0.5, 1),), ((1, 2.0),), (("1", 2),), ((1, 2), [3, 4]),
        [(1, 2), 3], [(1, 2), (3, "x")], [(1, 2), None], [[1, 2], (3, 4)],
        [(1, 2), (3, 4, 5)], [(1, (2, 3))], [(0, 1), (2, 3)],
        {"counts": ((0, 1), (2, 3)), "deep": [[((4, 5),)]]},
    ]
    for obj in objects:
        assert _dump(obj) == json.dumps(obj, indent=2)


def analyze_objects(monkeypatch, capsys, paths):
    """The objects analyze --json hands to the JSON writer, one per path."""
    import z2zu.cli
    seen = []
    dump = z2zu.cli._dump
    monkeypatch.setattr(z2zu.cli, "_dump",
                        lambda obj: seen.append(obj) or dump(obj))
    for path in paths:
        assert run(capsys, ["--json", "analyze", str(path)])[0] == 0
    assert len(seen) == len(paths)
    return seen


def test_dump_of_live_analyze_objects(monkeypatch, capsys, tmp_path):
    # enumerator entries arrive as tuples of (int, int) here, not as the
    # lists a pinned text reads back as
    rng = random.Random(36)
    paths = sorted(Path("data").iterdir())
    for k in range(4):
        beta = rng.randint(5, 30)
        alpha = rng.randint(max(0, 40 - 2 * beta), 70 - 2 * beta)
        path = tmp_path / f"random{k}.txt"
        path.write_text("".join(
            " ".join(rng.choice("01") for _ in range(alpha)) + " | "
            + " ".join(rng.choice("01uv") for _ in range(beta)) + "\n"
            for _ in range(rng.randint(3, 6))))
        paths.append(path)
    objects = analyze_objects(monkeypatch, capsys, paths)
    assert any(obj["shape"]["n"] > 64 for obj in objects)
    for obj in objects:
        assert type(obj["lee"]["counts"]) is tuple
        assert all(type(e) is tuple for e in obj["dual"]["counts"])
        assert _dump(obj) == json.dumps(obj, indent=2)


def test_matrix_file_with_a_byte_order_mark(capsys, tmp_path):
    # a leading BOM, as some editors save UTF-8, is not part of the text;
    # with CRLF line ends the analyze output is still the pinned one
    pins = json.loads(
        (Path(__file__).parent / "data_file_outputs.json").read_text())
    for path in sorted(Path("data").iterdir()):
        text = path.read_text(encoding="utf-8")
        copy = tmp_path / path.name
        copy.write_bytes(b"\xef\xbb\xbf"
                         + text.replace("\n", "\r\n").encode("utf-8"))
        assert parse_matrix_file(copy) == parse_matrix_file(path)
        assert run(capsys, ["--json", "analyze", str(copy)]) == (
            0, pins[path.name]["analyze"], "")
    # parse_matrix reads the text it is given: a BOM there is a token
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("\ufeff1 0 | u\n")
    assert str(err.value) == (
        "line 1, column 1: invalid binary token '\\ufeff1' (expected 0 or 1)")


def test_reproduce_unknown_id(capsys):
    rc, _, err = run(capsys, ["reproduce", "9.9"])
    assert rc == 2
    assert "unknown example" in err


# ------------------------------------------------------------------ search


def test_search_exhaustive_stream(capsys):
    rc, out, err = run(capsys, ["search", "--target", "one-weight",
                                "--alpha", "2..3", "--beta", "1",
                                "--rows", "2"])
    assert rc == 0
    assert err.strip() == "# 2 hit(s)"
    hits = [json.loads(line) for line in out.splitlines()]
    assert [h["gray"] for h in hits] == [[4, 1, 4], [5, 1, 5]]
    assert hits[0]["generators"] == ["1 1 | u"]
    assert hits[0]["flags"]["one_lee_weight"] is True


def test_search_random_is_reproducible(capsys):
    argv = ["search", "--target", "one-weight", "--alpha", "4",
            "--beta", "5", "--rows", "3", "--seed", "7",
            "--budget", "100000"]
    rc1, out1, err1 = run(capsys, argv)
    rc2, out2, err2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert err1 == err2


def test_search_random_hits_keep_their_first_drawn_rows(capsys):
    # a seeded random search prints each hit with the rows of the first
    # draw that produced its code
    rc, out, err = run(capsys, ["search", "--target", "one-weight",
                                "--alpha", "1..3", "--beta", "0..2",
                                "--rows", "2", "--seed", "2",
                                "--budget", "300", "--json"])
    assert rc == 0
    assert err == "# 6 hit(s)\n"
    hits = [json.loads(line) for line in out.splitlines()]
    assert [(h["alpha"], h["beta"], h["generators"]) for h in hits] == [
        (1, 0, ["0 |", "1 |"]),
        (1, 1, ["0 | 0", "1 | v"]),
        (1, 1, ["1 | u", "0 | 0"]),
        (2, 0, ["1 1 |", "1 1 |"]),
        (2, 1, ["0 0 | 0", "1 1 | u"]),
        (3, 0, ["1 1 0 |", "1 0 1 |"]),
    ]


@pytest.mark.parametrize("target, hits", [("one-weight", 6),
                                           ("two-weight-projective", 13)])
def test_search_random_output_is_pinned(capsys, target, hits):
    # a --seed names one stream of draws: its hits, rows and all, stay
    # byte for byte as stored
    rc, out, err = run(capsys, ["search", "--alpha", "2..6",
                                "--beta", "1..4", "--rows", "3",
                                "--budget", "20000", "--seed", "7",
                                "--target", target])
    assert rc == 0
    assert err == f"# {hits} hit(s)\n"
    name = "seed7_" + target.replace("-", "_") + ".jsonl"
    assert out == (Path(__file__).parent / "search_outputs" / name).read_text()


@pytest.mark.parametrize("target, hits", [("one-weight", 28),
                                           ("two-weight-projective", 25),
                                           ("fsd-one-weight", 2)])
def test_search_exhaustive_output_is_pinned(capsys, target, hits):
    # the exhaustive walk of every code of alpha <= 4, beta <= 2 at 3
    # rows: its hits, rows and all, stay byte for byte as stored
    rc, out, err = run(capsys, ["search", "--alpha", "0..4",
                                "--beta", "0..2", "--rows", "3",
                                "--target", target])
    assert rc == 0
    assert err == f"# {hits} hit(s)\n"
    name = "exhaustive_" + target.replace("-", "_") + ".jsonl"
    assert out == (Path(__file__).parent / "search_outputs" / name).read_text()


def test_search_fsd_target_hits_are_survey_survivors(capsys):
    # the target keeps codes meeting both one-weight relations, which a
    # zero column breaks, of |C|^2 = 2^N, which with N = lambda(|C| - 1)
    # admits only |C| = 2 at N = 2: of the survey's four survivors it
    # hits (|u) and (1,1|), not (0,1|) or (1,0|)
    rc, out, _ = run(capsys, ["search", "--verify-thm-4.5",
                              "--alpha", "4", "--beta", "2", "--json"])
    survivors = json.loads(out)["survivors"]
    assert rc == 0 and len(survivors) == 4
    rc, out, _ = run(capsys, ["search", "--alpha", "0..4", "--beta", "0..2",
                              "--rows", "3", "--target", "fsd-one-weight"])
    hits = [{key: hit[key] for key in ("alpha", "beta", "generators")}
            for hit in map(json.loads, out.splitlines())]
    assert rc == 0
    assert hits == [{"alpha": 0, "beta": 1, "generators": ["| u"]},
                    {"alpha": 2, "beta": 0, "generators": ["1 1 |"]}]
    assert all(hit in survivors for hit in hits)


def test_search_budget_below_one_is_an_input_error(capsys):
    for budget in ("0", "-5"):
        rc, out, err = run(capsys, ["search", "--target", "one-weight",
                                    "--alpha", "2", "--beta", "1",
                                    "--budget", budget])
        assert rc == 2
        assert out == ""
        assert "budget of at least 1" in err


def test_search_mode_flag_is_rejected(capsys):
    # --budget alone picks the stream: random with it, exhaustive without
    for mode in ("exhaustive", "random"):
        rc, out, err = run(capsys, ["search", "--target", "one-weight",
                                    "--alpha", "2", "--beta", "0",
                                    "--rows", "1", "--mode", mode,
                                    "--budget", "5"])
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments: --mode" in err


def test_search_verify_classification(capsys):
    rc, out, _ = run(capsys, ["search", "--verify-thm-4.5",
                              "--alpha", "4", "--beta", "2"])
    assert rc == 0
    assert ("4 survivors out of 11150 codes examined; one-weight formally "
            "self-dual classification confirmed") in out


def test_search_verify_classification_output_is_pinned(capsys):
    # the survey of alpha <= 4, beta <= 2 at 3 rows: its count and
    # survivors, generators and all, stay byte for byte as stored
    rc, out, _ = run(capsys, ["search", "--verify-thm-4.5",
                              "--alpha", "4", "--beta", "2", "--json"])
    assert rc == 0
    pinned = Path(__file__).parent / "search_outputs" / "verify_thm_4_5.json"
    assert out == pinned.read_text()


def test_search_verify_classification_mismatch_exits_4(monkeypatch, capsys):
    expected = z2zu.search._EXPECTED_FSD_SURVIVORS
    monkeypatch.setattr(z2zu.search, "_EXPECTED_FSD_SURVIVORS", expected[1:])
    rc, out, err = run(capsys, ["search", "--verify-thm-4.5",
                                "--alpha", "4", "--beta", "2"])
    assert (rc, out) == (4, "")
    assert err == ("classification mismatch: unexpected survivors "
                   "[AdditiveCode(alpha=2, beta=0, cardinality=2)], "
                   "missing []\n")


def test_search_verify_classification_refuses_ignored_flags(capsys):
    survey = ["search", "--verify-thm-4.5", "--alpha", "4", "--beta", "2"]
    for extra, message in (
        (["--budget", "5"], "takes no --budget"),
        (["--target", "one-weight"], "takes no --target"),
        (["--include", data_file("5.7")], "takes no --include"),
    ):
        rc, out, err = run(capsys, survey + extra)
        assert (rc, out) == (2, "")
        assert err == f"error: --verify-thm-4.5 {message}\n"
    for alpha, beta in (("3..4", "2"), ("4", "1..2")):
        rc, out, err = run(capsys, ["search", "--verify-thm-4.5",
                                    "--alpha", alpha, "--beta", beta])
        assert (rc, out) == (2, "")
        assert "surveys alpha and beta from 0" in err
    rc, out, _ = run(capsys, ["search", "--verify-thm-4.5",
                              "--alpha", "0..2", "--beta", "0..1", "--json"])
    assert rc == 0 and json.loads(out)["matches"] is True


def test_search_verify_classification_guards_the_walk(capsys):
    # no rows would survey the zero code alone; at 3 rows the top
    # shapes (6, 3) and (7, 1) alone hold 2^36 and 2^27 generator
    # tuples, past the exhaustive cap, the survey's one guard; (7, 0) at
    # 1 row fits it
    for argv, message in (
        (["--alpha", "4", "--beta", "2", "--rows", "0"],
         "max_rows must be positive"),
        (["--alpha", "6", "--beta", "3"], "exhaustive cap"),
        (["--alpha", "7", "--beta", "1"], "exhaustive cap"),
    ):
        rc, out, err = run(capsys, ["search", "--verify-thm-4.5"] + argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and message in err
    rc, out, _ = run(capsys, ["search", "--verify-thm-4.5", "--alpha", "7",
                              "--beta", "0", "--rows", "1", "--json"])
    assert rc == 0 and json.loads(out)["matches"] is True


@pytest.mark.parametrize("survey", [False, True])
@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("text", ["1..", "..3", "x", "1..2..3"])
def test_search_malformed_range_names_the_flag(capsys, survey, flag, text):
    argv = {"--alpha": "2", "--beta": "1", flag: text}
    head = ["--verify-thm-4.5"] if survey else ["--target", "one-weight"]
    rc, out, err = run(capsys, ["search"] + head + [
        f"--alpha={argv['--alpha']}", f"--beta={argv['--beta']}"])
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} takes N or LO..HI, got {text!r}\n"


def test_search_backwards_or_negative_range_is_refused_by_the_space(capsys):
    for argv, message in (
        (["--target", "one-weight", "--alpha=3..1"], "(3, 1)"),
        (["--target", "one-weight", "--alpha=-1"], "(-1, -1)"),
        (["--verify-thm-4.5", "--alpha=-1"], "(0, -1)"),
    ):
        rc, out, err = run(capsys, ["search", "--beta=1"] + argv)
        assert (rc, out, err) == (2, "", f"error: bad alpha range {message}\n")


def test_search_space_too_large(capsys):
    rc, _, err = run(capsys, ["search", "--target", "one-weight",
                              "--alpha", "20", "--beta", "20",
                              "--rows", "5"])
    assert rc == 2
    assert "exhaustive cap" in err


def test_search_space_too_large_in_total(capsys):
    # each shape alone fits the cap (at most 2^26 tuples), but the 27
    # shapes together hold 2^27 - 2 tuples
    rc, out, err = run(capsys, ["search", "--target", "one-weight",
                                "--alpha", "0..26", "--beta", "0",
                                "--rows", "1"])
    assert (rc, out) == (2, "")
    assert err == ("error: space holds 134217726 generator tuples; "
                   "the exhaustive cap is 67108864\n")


@pytest.mark.parametrize("argv", [
    ["--target", "one-weight", "--alpha", "1", "--beta", "0"],
    ["--verify-thm-4.5", "--alpha", "2", "--beta", "1"],
])
def test_search_space_too_large_on_one_shape(capsys, argv):
    # 2^(N * 15000) tuples on the top shape alone: refused by the cap,
    # before the exact count, too long to print, is built
    rc, out, err = run(capsys, ["search"] + argv + ["--rows", "15000"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "the exhaustive cap is" in err


def test_search_random_rows_past_the_block_cap(capsys, monkeypatch):
    # 10^9 rows would ask getrandbits for gigabytes of words per block:
    # refused before any draw, as an input error
    def no_draws(self, *args):
        raise AssertionError("a draw was taken")

    monkeypatch.setattr(random.Random, "getrandbits", no_draws)
    rc, out, err = run(capsys, ["search", "--target", "one-weight",
                                "--alpha", "2..6", "--beta", "1..4",
                                "--budget", "1", "--rows", "1000000000"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "the cap is 1048576" in err


def test_search_requires_target(capsys):
    rc, _, err = run(capsys, ["search", "--alpha", "2", "--beta", "0"])
    assert rc == 2
    assert "--target is required" in err


def test_search_include(capsys):
    rc, out, _ = run(capsys, ["search", "--target", "two-weight-projective",
                              "--alpha", "8", "--beta", "4", "--rows", "1",
                              "--budget", "10",
                              "--seed", "3", "--include", data_file("5.7")])
    assert rc == 0
    hits = [json.loads(line) for line in out.splitlines()]
    best = [h for h in hits if h["gray"] == [16, 5, 8]]
    assert best and best[0]["optimality"] == "optimal"


def test_search_include_outside_range(capsys):
    rc, _, err = run(capsys, ["search", "--target", "one-weight",
                              "--alpha", "2", "--beta", "1",
                              "--include", data_file("5.7")])
    assert rc == 2
    assert "outside" in err


# ------------------------------------------------------------------- misc


def test_version(capsys):
    rc, out, _ = run(capsys, ["--version"])
    assert rc == 0
    assert out.startswith("z2zu ")


def test_data_files_match_embedded_presets():
    for key in PRESETS:
        shape, rows = parse_matrix_file(data_file(key))
        assert additive_span(shape, rows) == preset_code(key), key


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "z2zu.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("z2zu ")


def test_package_runs_as_a_module():
    # python -m z2zu, from the source tree alone: the version, and
    # analyze's pinned text byte for byte
    root = Path(__file__).resolve().parent.parent
    pinned = json.loads((root / "tests" / "data_file_outputs.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, out in (
        (["--version"], f"z2zu {z2zu.__version__}\n"),
        (["--json", "analyze", "data/ex5_6.txt"], pinned["ex5_6.txt"]["analyze"]),
    ):
        proc = subprocess.run([sys.executable, "-m", "z2zu", *argv], cwd=root,
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_help_mentions_exit_codes(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "exit codes: 0 ok, 2 bad input" in out
