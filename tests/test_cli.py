"""Tests for the command-line front end: verbs, formats, exit codes,
schema validity of JSON reports, and deterministic output."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ltskit.cli import EXIT_FAIL, EXIT_OK, EXIT_PARSE, main, schema_text

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_SUB = str(ROOT / "tests" / "data" / "eiii_dIII.sub")
SCHEMA = json.loads(schema_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


# -- geodesic lengths ------------------------------------------------------


def test_geodesic_quoted_length(capsys):
    code, out, _ = run(capsys, "geodesic", "length",
                       "--H", "(9*l1 + 5*l2)/sqrt(21)")
    assert code == EXIT_OK
    assert out.strip() == "4/3*pi*sqrt(21)"


def test_geodesic_json(capsys):
    code, doc = run_json(capsys, "geodesic", "length",
                         "--H", "(9*l1 + 5*l2)/sqrt(21)")
    assert code == EXIT_OK
    assert doc["command"] == "geodesic length"
    assert doc["data"]["closed"] is True
    assert doc["data"]["length"] == "4/3*pi*sqrt(21)"
    assert doc["data"]["coeff"] == "4/3"
    assert doc["data"]["radicand"] == 21


def test_geodesic_not_closed(capsys):
    code, doc = run_json(capsys, "geodesic", "length",
                         "--H", "l2 + sqrt(2)*l5")
    assert code == EXIT_OK
    assert doc["data"]["closed"] is False
    assert "length" not in doc["data"]


# Literals nested beyond the scalar grammar's depth limit, by parentheses
# and by unary minus signs.
DEEP_PARENS = "(" * 400 + "1" + ")" * 400
DEEP_MINUS = "-" * 2000 + "1"


def test_geodesic_bad_expression(capsys):
    for argv in (("--H", "3*l9"), ("--H", "l1/0"),
                 ("--H", f"{DEEP_PARENS}*l1"), ("--H", f"({DEEP_MINUS})*l1"),
                 ("--H", "l1", "--space", "EIII")):
        code, _, err = run(capsys, "geodesic", "length", *argv)
        assert code == EXIT_PARSE, argv
        assert "error:" in err, argv
    _, _, err = run(capsys, "geodesic", "length", "--H", "l1", "--space", "EIII")
    assert err == "error: geodesic lengths are modeled for G2group only\n"


# -- lts check -------------------------------------------------------------


def test_lts_check_example_file(capsys):
    code, doc = run_json(capsys, "lts", "check", EXAMPLE_SUB)
    assert code == EXIT_OK
    assert doc["status"] == "PASS"
    assert doc["data"]["is_lts"] is True
    assert doc["data"]["dim"] == 20
    assert doc["data"]["rank"] == 2
    assert doc["data"]["complexity"] == "complex"


def test_lts_check_example_markdown(capsys):
    code, out, _ = run(capsys, "lts", "check", EXAMPLE_SUB)
    assert code == EXIT_OK
    assert "- dim: 20" in out.splitlines()


def test_lts_check_missing_file(capsys):
    code, _, err = run(capsys, "lts", "check", "/no/such/file.sub")
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_lts_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.sub"
    bad.write_text("space: EIII\nM[l9](1, 0, 0)\n")
    code, _, err = run(capsys, "lts", "check", str(bad))
    assert code == EXIT_PARSE
    # a file that is not UTF-8 (here a UTF-16 byte-order mark)
    bad.write_bytes(b"\xff\xfe" + "space: EIII\n".encode("utf-16-le"))
    code, _, err = run(capsys, "lts", "check", str(bad))
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_lts_check_failing_subspace(capsys, tmp_path):
    # the flat plus one full 8-dimensional chart is not bracket-closed
    lines = ["space: EIII", "a(1, 0)", "a(0, 1)"]
    for slot in range(4):
        for c in ("1", "i"):
            coords = ["0"] * 4
            coords[slot] = c
            lines.append("M[l1](" + ", ".join(coords) + ")")
    f = tmp_path / "not_lts.sub"
    f.write_text("\n".join(lines) + "\n")
    code, doc = run_json(capsys, "lts", "check", str(f))
    assert code == EXIT_FAIL
    assert doc["status"] == "FAIL"
    assert doc["data"]["is_lts"] is False
    assert doc["data"]["dim"] == 10


# -- space verbs -----------------------------------------------------------


def test_space_info_markdown(capsys):
    code, out, _ = run(capsys, "space", "info", "EIII")
    assert code == EXIT_OK
    assert "restricted root system: BC2" in out
    assert "| 2l1 | 1 |" in out


def test_space_info_json(capsys):
    code, doc = run_json(capsys, "space", "info", "EIII")
    assert code == EXIT_OK
    assert doc["data"]["ambient_dim"] == 78
    assert doc["data"]["dim"] == 32
    assert doc["data"]["rank"] == 2
    mults = {r["label"]: r["multiplicity"]
             for r in doc["data"]["restricted_roots"]}
    assert mults == {"l1": 8, "l2": 8, "l3": 6, "l4": 6, "2l1": 1, "2l2": 1}


def test_space_info_unknown_name(capsys):
    code, _, err = run(capsys, "space", "info", "EV")
    assert code == EXIT_PARSE
    assert "unknown space" in err


def test_space_verify_foundations_group(capsys):
    code, doc = run_json(capsys, "space", "verify-foundations", "G2group")
    assert code == EXIT_OK
    assert doc["status"] == "PASS"
    counts = doc["data"]["counts"]
    assert counts["FAIL"] == 0 and counts["SKIPPED"] == 3
    labels = [r["label"] for r in doc["data"]["rows"]]
    assert "jacobi-exhaustive" in labels
    assert "killing-negative-definite" in labels
    assert "jacobi-operator-law" in labels


def test_space_verify_foundations_hermitian(capsys):
    code, doc = run_json(capsys, "space", "verify-foundations", "EIII")
    assert code == EXIT_OK
    rows = {r["label"]: r for r in doc["data"]["rows"]}
    assert rows["complex-structure"]["status"] == "PASS"
    assert rows["orbit-tables"]["status"] == "PASS"
    assert doc["data"]["counts"] == {"PASS": 10, "FAIL": 0, "SKIPPED": 0}


# -- catalog verbs ---------------------------------------------------------


def test_catalog_verify_markdown_table(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "EIV")
    assert code == EXIT_OK
    assert "| label | status |" in out
    assert "| `(AII)` | PASS |" in out


def test_catalog_containments_json(capsys):
    code, doc = run_json(capsys, "catalog", "containments", "G2group")
    assert code == EXIT_OK
    assert doc["data"]["kind"] == "containments"
    assert doc["data"]["counts"]["FAIL"] == 0


def test_catalog_derived(capsys):
    code, doc = run_json(capsys, "catalog", "derived", "EIV",
                         "--host", "(AII)")
    assert code == EXIT_OK
    assert doc["data"]["counts"]["FAIL"] == 0
    assert doc["data"]["counts"]["SKIPPED"] == 3


def test_catalog_derived_host_space_mismatch(capsys):
    code, _, err = run(capsys, "catalog", "derived", "EIV",
                       "--host", "(DIII)")
    assert code == EXIT_PARSE
    assert "belongs to space EIII" in err


def test_catalog_derived_unknown_host(capsys):
    code, _, err = run(capsys, "catalog", "derived", "EIII",
                       "--host", "(XYZ)")
    assert code == EXIT_PARSE


def test_catalog_derived_checks_before_building(capsys, monkeypatch):
    built = []
    for module in ("ltskit.cli", "ltskit.catalog"):
        monkeypatch.setattr(f"{module}.build_space", built.append)
    code, _, err = run(capsys, "catalog", "derived", "EIV", "--host", "(DIII)")
    assert code == EXIT_PARSE
    assert "belongs to space EIII" in err
    code, doc = run_json(capsys, "catalog", "derived", "EIV",
                         "--host", "(Sp2)")
    assert code == EXIT_OK
    assert doc["data"]["counts"]["SKIPPED"] == 11
    assert built == []


# -- curvature -------------------------------------------------------------


def test_curvature_eval_json(capsys):
    code, doc = run_json(capsys, "curvature", "eval", "EIII",
                         "--x", "sharp[l1](1)", "--y", "M[l1](1, 0, 0, 0)",
                         "--z", "sharp[l1](1)")
    assert code == EXIT_OK
    assert doc["data"]["norm_sq"] == "1"
    assert doc["data"]["a_component"] == ["0", "0"]
    assert doc["data"]["charts"] == {"l1": ["-1", "0", "0", "0"]}


def test_curvature_eval_flat_arguments_commute(capsys):
    code, doc = run_json(capsys, "curvature", "eval", "G2group",
                         "--x", "a(1, 0)", "--y", "a(0, 1)",
                         "--z", "a(1, 1)")
    assert code == EXIT_OK
    assert doc["data"]["is_zero"] is True


def test_curvature_eval_bad_vector(capsys):
    for x in ("M[l9](1)", "a(1/0, 0)", f"a({DEEP_PARENS}, 0)",
              f"a({DEEP_MINUS}, 0)", "a(1,0) + ", "a(1, 0,)"):
        code, _, err = run(capsys, "curvature", "eval", "EIII",
                           "--x", x, "--y", "a(1, 0)", "--z", "a(0, 1)")
        assert code == EXIT_PARSE, x
        assert "error:" in err, x


# -- global options --------------------------------------------------------


def test_unknown_verb(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_PARSE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "space" in out and "catalog" in out


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LTSKIT_SEED", "7")
    code, _, _ = run(capsys, "geodesic", "length", "--H", "l1")
    assert code == EXIT_OK
    monkeypatch.setenv("LTSKIT_SEED", "notanumber")
    code, _, err = run(capsys, "geodesic", "length", "--H", "l1")
    assert code == EXIT_PARSE
    assert "LTSKIT_SEED" in err


def test_jobs_option_is_rejected(capsys):
    code, _, err = run(capsys, "space", "info", "EIII", "--jobs", "0")
    assert code == EXIT_PARSE
    assert "--jobs" in err


GOLDEN = ROOT / "tests" / "data" / "golden"

# default stdout of each command, pinned byte for byte to its file
GOLDEN_COMMANDS = {
    "lts_check_eiii_dIII.json": ("lts", "check", EXAMPLE_SUB,
                                 "--format", "json"),
    "curvature_eval_EIII.json": ("curvature", "eval", "EIII",
                                 "--x", "M[l1](1, 0, 0, 0)", "--y", "a(1, 0)",
                                 "--z", "M[l1](1, 0, 0, 0)",
                                 "--format", "json"),
    "geodesic_length.json": ("geodesic", "length",
                             "--H", "(9*l1 + 5*l2)/sqrt(21)",
                             "--format", "json"),
    "space_info_EIII.md": ("space", "info", "EIII"),
}


def test_deterministic_output(capsys):
    argv = ("lts", "check", EXAMPLE_SUB, "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert json.loads(out1)
    assert out1 == out2
    for name, argv in GOLDEN_COMMANDS.items():
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK, argv
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), argv


# -- models verify ---------------------------------------------------------


def test_models_verify_with_samples(capsys, tmp_path):
    rows = []
    ident = [["1" if i == j else "0" for j in range(10)] for i in range(10)]
    rot = [row[:] for row in ident]
    rot[0][0], rot[0][1] = "3/5", "-4/5"
    rot[1][0], rot[1][1] = "4/5", "3/5"
    text = "\n".join(" ".join(r) for r in ident) + "\n\n" + \
           "\n".join(" ".join(r) for r in rot) + "\n"
    f = tmp_path / "samples.txt"
    f.write_text(text)
    code, doc = run_json(capsys, "models", "verify", "--samples", str(f))
    assert code == EXIT_OK
    assert doc["status"] == "PASS"
    assert doc["data"]["counts"]["FAIL"] == 0
    assert doc["data"]["counts"]["PASS"] >= 50
    labels = [r["label"] for r in doc["data"]["rows"]]
    assert any(lbl.startswith("so10-model:") for lbl in labels)
    assert any(lbl.startswith("cartan-so10:") for lbl in labels)


def test_models_verify_rejects_bad_samples(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("\n".join(" ".join("2" if i == j else "0"
                                    for j in range(10))
                           for i in range(10)) + "\n")
    code, _, err = run(capsys, "models", "verify", "--samples", str(f))
    assert code == EXIT_PARSE
    assert "orthogonal" in err
    f.write_text("1/0 0\n0 1\n")
    code, _, err = run(capsys, "models", "verify", "--samples", str(f))
    assert code == EXIT_PARSE
    assert "zero denominator" in err


# -- parser-facing arguments -----------------------------------------------

# Arbitrary text, text joined from the grammars' tokens and pieces, and sums
# or lines of well-formed pieces, which reach past the parser into analysis.
WELL_FORMED = ("a(1, 0)", "a(0, 1)", "M[l1](1)", "M[l2](i)", "sharp[l5](1)",
               "2*l1", "l2/sqrt(3)", "(l1 + l2)/2")
GRAMMAR_TOKENS = ("a", "M", "sharp", "[", "]", "l1", "l2", "2l1", "(", ")",
                  ",", "+", "-", "*", "/", "0", "1", "3", "i", "sqrt", " ",
                  "\n")
FUZZ_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(GRAMMAR_TOKENS + WELL_FORMED),
             max_size=20).map("".join),
    st.builds(str.join, st.sampled_from((" + ", " - ", "\n")),
              st.lists(st.sampled_from(WELL_FORMED), min_size=1, max_size=4)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=FUZZ_TEXT)
@example(text="--")
def test_parser_facing_arguments_never_raise(tmp_path, text):
    sub_file = tmp_path / "fuzz.sub"
    sub_file.write_text("space: G2group\n" + text + "\n", encoding="utf-8")
    for argv in (["curvature", "eval", "G2group", f"--x={text}",
                  "--y=a(1, 0)", "--z=a(0, 1)"],
                 ["geodesic", "length", f"--H={text}"],
                 ["lts", "check", str(sub_file)]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_PARSE), argv
