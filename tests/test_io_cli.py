"""File format round trips, rejection of malformed input, CLI contract."""

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lie2 import screening
from lie2.algebra import LieAlgebra, abelian
from lie2.cli import build_parser, main
from lie2.errors import ContradictionError, FileFormatError
from lie2.field import gf
from lie2.fileio import dumps, load, loads, save
from lie2.fixtures import delta0, f6, f7, gl, graded, torus, u2, witt
from lie2.restricted import TwoMap

GOOD_HEADER = "lie2algebra 1\nname t\ndim 2\nfield_degree 1\n"


def upper_pairs(g):
    """The brackets [b_i, b_j], i < j, that build g."""
    return {(i, j): g.table[i][j] for i in range(g.dim) for j in range(i + 1, g.dim)}


def roundtrip(build):
    g, tm = build() if callable(build) else build
    text = dumps(g, tm)
    g2, tm2 = loads(text)
    assert g2.dim == g.dim
    assert g2.field == g.field
    assert g2.name == g.name
    assert g2.table == g.table
    assert tm2.images == tm.images
    assert dumps(g2, tm2) == text  # byte-stable
    return text


@pytest.mark.parametrize("build", [
    f6, f7, u2, lambda: gl(2), lambda: gl(3), lambda: torus(3),
    lambda: torus(2, k=3), lambda: witt(2), lambda: delta0((2, 1, 2, 1, 1, 1, 1)),
])
def test_roundtrip_fixtures(build):
    roundtrip(build)


def test_save_load_file(tmp_path):
    g, tm = f6()
    path = tmp_path / "f6.l2a"
    save(g, tm, path)
    g2, tm2 = load(path)
    assert g2.table == g.table and tm2.images == tm.images


@pytest.mark.parametrize("name", ["f6 #2", "  padded  ", "a\ndim 3", "f6_\u03b1", "form\x0cfeed"])
def test_names_that_would_not_read_back_are_refused(tmp_path, name):
    g, tm = f6()
    g = LieAlgebra(g.field, g.dim, upper_pairs(g), name)
    with pytest.raises(ValueError, match="printable ASCII"):
        dumps(g, tm)
    path = tmp_path / "bad.l2a"
    with pytest.raises(ValueError):
        save(g, tm, path)
    assert not path.exists()


@pytest.mark.parametrize("name", ["f6 2", "two  spaces", "x_perm", "", None])
def test_names_read_back_as_written(name):
    g, tm = f6()
    text = dumps(LieAlgebra(g.field, g.dim, upper_pairs(g), name), tm)
    g2, tm2 = loads(text)
    assert g2.name == (name or "unnamed") and dumps(g2, tm2) == text


def test_gf8_coefficients_serialize_little_endian():
    g, tm = torus(1, k=3)
    text = dumps(g, tm)
    assert "twomap 0 100" in text  # the element 1 is bit 0 first


def test_unsupported_version():
    with pytest.raises(FileFormatError) as err:
        loads("lie2algebra 999\ndim 1\nfield_degree 1\ntwomap 0 0\n")
    assert err.value.code == "UnsupportedVersion"
    assert err.value.lineno == 1


@pytest.mark.parametrize("version", ["001", "01", "+1", "\uff11"])
def test_version_has_one_spelling(version):
    # a header that loads is the header that save writes back
    with pytest.raises(FileFormatError) as err:
        loads(f"lie2algebra {version}\ndim 1\nfield_degree 1\ntwomap 0 0\n")
    assert err.value.code == "UnsupportedVersion"


def test_diagonal_entry_rejected():
    text = GOOD_HEADER + "bracket 1 1 0,1\ntwomap 0 0,0\ntwomap 1 0,0\n"
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "AlternatingViolation"


def test_lower_triangle_rejected():
    text = GOOD_HEADER + "bracket 1 0 0,1\ntwomap 0 0,0\ntwomap 1 0,0\n"
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "NonSymmetricEntry"


def test_duplicate_bracket_rejected():
    text = GOOD_HEADER + "bracket 0 1 0,1\nbracket 0 1 0,1\ntwomap 0 0,0\ntwomap 1 0,0\n"
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "DuplicateEntry"


def test_vector_length_checked():
    text = GOOD_HEADER + "bracket 0 1 0,1,0\ntwomap 0 0,0\ntwomap 1 0,0\n"
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "DimensionMismatch"


def test_field_element_width_checked():
    text = "lie2algebra 1\nname t\ndim 1\nfield_degree 3\ntwomap 0 10\n"
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "MalformedField"


def test_missing_twomap_lines():
    text = GOOD_HEADER + "bracket 0 1 0,1\ntwomap 0 0,0\n"
    with pytest.raises(FileFormatError):
        loads(text)


# a second dim or field_degree line would redefine the space that earlier
# bracket lines were parsed in: a crash in LieAlgebra.from_pairs for the
# first file, a different algebra over GF(2) for the second; a second name
# line would silently rename the algebra
REPEATED_DIM = "lie2algebra 1\nname t\ndim 3\nfield_degree 1\nbracket 0 2 1,0,0\ndim 2\n" \
    "twomap 0 0,0\ntwomap 1 0,0\n"
REPEATED_DEGREE = "lie2algebra 1\nname t\ndim 2\nfield_degree 2\nbracket 0 1 11,00\n" \
    "field_degree 1\ntwomap 0 0,0\ntwomap 1 0,0\n"
REPEATED_NAME = "lie2algebra 1\nname first\nname second\ndim 1\nfield_degree 1\ntwomap 0 0\n"
REPEATED = [(REPEATED_DIM, 6), (REPEATED_DEGREE, 6), (REPEATED_NAME, 3)]


@pytest.mark.parametrize("text, lineno", REPEATED)
def test_repeated_dim_or_field_degree_rejected(text, lineno):
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "DuplicateEntry" and err.value.lineno == lineno


@pytest.mark.parametrize("command", ["verify", "decompose", "rank", "screen", "simple"])
def test_cli_refuses_repeated_dim_or_field_degree(tmp_path, capsys, command):
    for i, (text, lineno) in enumerate(REPEATED):
        path = tmp_path / f"repeated{i}.l2a"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {lineno}: DuplicateEntry")
        assert not captured.out


_FUZZ_SEEDS = [dumps(*build()) for build in (
    lambda: torus(2, k=3), lambda: gl(2), f6,
    lambda: (abelian(2, k=2), TwoMap([0b0001, 0b0100])),
)]
_FUZZ_BYTES = st.sampled_from(b"0123456789 ,#\n-+xabdegilmnprtw_")


@st.composite
def _mutated_file(draw):
    data = bytearray(draw(st.sampled_from(_FUZZ_SEEDS)).encode("ascii"))
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert":
            data.insert(pos, draw(_FUZZ_BYTES))
        elif pos < len(data):
            if op == "replace":
                data[pos] = draw(_FUZZ_BYTES)
            else:
                del data[pos]
    return data.decode("ascii")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_file())
def test_fuzz_loads_refuses_or_returns_a_consistent_algebra(text):
    try:
        g, tm = loads(text)
    except FileFormatError:
        return
    assert len(g.table) == g.dim and all(len(row) == g.dim for row in g.table)
    assert len(tm.images) == g.dim
    bits = g.field.k * g.dim
    assert all(not v >> bits for row in g.table for v in row)
    assert all(not v >> bits for v in tm.images)


def test_missing_twomap_lines_on_a_huge_dim_is_a_cheap_refusal():
    with pytest.raises(FileFormatError) as err:
        loads("lie2algebra 1\ndim 999999999\nfield_degree 1\n")
    assert "999999999 twomap lines missing, the first for index 0" in str(err.value)


@pytest.mark.parametrize("text, code", [
    ("lie2algebra " + "1" * 5000 + "\n", "UnsupportedVersion"),
    ("lie2algebra 1\ndim " + "1" * 5000 + "\n", "Malformed"),
    ("lie2algebra 1\ndim 1\nfield_degree " + "1" * 5000 + "\n", "Malformed"),
])
def test_digit_strings_past_the_int_conversion_limit_are_refused(text, code):
    # int() raises ValueError on more than 4300 digits
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == code


@pytest.mark.parametrize("text", [
    "lie2algebra 1\ndim ²\n",  # str.isdigit accepts the superscript two
    "lie2algebra 1\ndim 02\nfield_degree 1\ntwomap 0 0,0\ntwomap 1 0,0\n",
    "lie2algebra 1\ndim 2\nfield_degree +1\ntwomap 0 0,0\ntwomap 1 0,0\n",
    GOOD_HEADER + "bracket +0 0_1 1,0\ntwomap 0 0,0\ntwomap 1 0,0\n",
    GOOD_HEADER + "bracket 00 1 1,0\ntwomap 0 0,0\ntwomap 1 0,0\n",
    GOOD_HEADER + "bracket -0 1 1,0\ntwomap 0 0,0\ntwomap 1 0,0\n",
    GOOD_HEADER + "twomap ٠ 0,0\ntwomap 1 0,0\n",  # Arabic-Indic zero
    GOOD_HEADER + "twomap 0_0 0,0\ntwomap 1 0,0\n",
    GOOD_HEADER + "twomap 0 0,0\ntwomap １ 0,0\n",  # fullwidth one
], ids=["superscript-dim", "zero-led-dim", "signed-degree", "signed-bracket", "zero-led-bracket",
        "negative-zero-bracket", "arabic-indic-twomap", "underscored-twomap", "fullwidth-twomap"])
def test_counts_and_indices_are_plain_ascii_decimals(text):
    # one spelling per number, so a file that loads saves back to the same bytes
    with pytest.raises(FileFormatError) as err:
        loads(text)
    assert err.value.code == "Malformed"


def test_missing_header():
    with pytest.raises(FileFormatError) as err:
        loads("dim 2\nfield_degree 1\n")
    assert err.value.code == "MissingHeader"


def test_comments_and_blank_lines_ignored():
    text = "# a comment\nlie2algebra 1\n\nname t\ndim 1\nfield_degree 1\ntwomap 0 1\n"
    g, tm = loads(text)
    assert g.dim == 1 and tm.images == (1,)


# -- CLI ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("algebras")
    out = {}
    for name, build in [
        ("f6", f6), ("torus3", lambda: torus(3)), ("gl2", lambda: gl(2)),
        ("equal2", lambda: delta0((2,) * 7)), ("u1", lambda: delta0((2, 1, 1, 1, 1, 1, 1))),
        ("u2", u2), ("abelian25", lambda: (abelian(25), TwoMap([0] * 25))),
    ]:
        g, tm = build()
        path = root / f"{name}.l2a"
        save(g, tm, path)
        out[name] = str(path)
    bad = root / "bad.l2a"
    bad.write_text(
        "lie2algebra 1\nname broken\ndim 2\nfield_degree 1\n"
        "bracket 0 1 0,1\ntwomap 0 0,0\ntwomap 1 0,0\n"
    )
    out["bad"] = str(bad)
    g, tm = u2()
    pairs = upper_pairs(g)
    pairs[(0, 1)] ^= 1  # bit 0 of bracket (0, 1) flipped: [t_0, t_1] = t_0
    out["u2jacobi"] = str(root / "u2jacobi.l2a")
    save(LieAlgebra(g.field, g.dim, pairs, "u2jacobi"), tm, out["u2jacobi"])
    return out


def test_cli_verify_ok(files, capsys):
    assert main(["verify", files["f6"]]) == 0
    out = capsys.readouterr().out
    assert "lie axioms: ok" in out and "2-map axioms: ok" in out


def test_cli_parser_is_built_once_and_reused(files, capsys):
    assert build_parser() is build_parser()
    # options given to one call do not leak into the next
    assert main(["verify", files["f6"], "--report", "json"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert main(["verify", files["f6"]]) == 0
    assert capsys.readouterr().out.startswith("algebra f6")


def test_cli_verify_json(files, capsys):
    import json

    assert main(["verify", files["f6"], "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lie_ok"] and payload["two_map_ok"] and payload["dim"] == 6


def test_cli_verify_catches_broken_two_map(files, capsys):
    # [e0, e1] = e1 with e0^[2] = 0 violates the adjoint axiom
    rc = main(["verify", files["bad"]])
    assert rc == 1
    # each violating vector prints as its coefficients, as in the JSON report
    out = capsys.readouterr().out
    assert "2-map axioms: TwoMapReport(adjoint=[((1,0), 1)])" in out


U2_JACOBI = [(0, 1, 4), (0, 1, 5), (0, 1, 8), (0, 1, 9), (0, 1, 12), (0, 1, 14)]


def test_cli_verify_reports_jacobi_violations(files, capsys):
    import json

    assert main(["verify", files["u2jacobi"]]) == 1
    out = capsys.readouterr().out
    assert f"lie axioms: LieReport(jacobi={U2_JACOBI})\n" in out
    assert main(["verify", files["u2jacobi"], "--report", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["lie_ok"] is False
    assert payload["jacobi_violations"] == [list(v) for v in U2_JACOBI]
    assert payload["alternating_violations"] == [] and payload["symmetry_violations"] == []


def test_cli_verify_malformed_file(tmp_path, capsys):
    p = tmp_path / "nope.l2a"
    p.write_text("lie2algebra 2\n")
    assert main(["verify", str(p)]) == 2
    assert "UnsupportedVersion" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "decompose", "rank", "screen", "simple"])
def test_cli_unreadable_file_is_a_clean_refusal(tmp_path, capsys, command):
    missing = tmp_path / "missing.l2a"
    non_ascii = tmp_path / "latin.l2a"
    non_ascii.write_bytes(b"lie2algebra 1\nname caf\xe9\n")
    for path, code in [(missing, "Unreadable"), (tmp_path, "Unreadable"), (non_ascii, "NonAscii")]:
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and code in err and "Traceback" not in err


def test_load_unreadable_raises_file_format_error(tmp_path):
    with pytest.raises(FileFormatError) as err:
        load(tmp_path / "missing.l2a")
    assert err.value.code == "Unreadable" and err.value.lineno is None
    p = tmp_path / "bad.l2a"
    p.write_bytes(b"lie2algebra 1\nname ok\ndim \xff\n")
    with pytest.raises(FileFormatError) as err:
        load(p)
    assert err.value.code == "NonAscii" and err.value.lineno == 3


def test_cli_entrypoint_missing_file_has_no_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lie2.cli", "verify", str(tmp_path / "missing.l2a")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: Unreadable") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_cli_closed_stdout_exits_141_without_traceback(files, unbuffered):
    # the reader of the pipe is gone before the first line: unbuffered, the
    # first print fails; buffered, the flush at the end of the command does
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lie2.cli", "decompose", files["f6"]],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_cli_decompose(files, capsys):
    assert main(["decompose", files["f6"]]) == 0
    out = capsys.readouterr().out
    assert "torus dim 3, cartan dim 3, nil dim 0\n" in out
    assert "configuration: Delta1" in out
    assert "triangulable: yes" in out
    assert "standard: yes" in out
    assert "(1,0,0) dim 1" in out


def test_cli_decompose_past_the_old_split_ceiling(tmp_path, capsys):
    # dim h = 17: the Cartan split is linear algebra, not a 2^17 enumeration
    path = tmp_path / "graded20.l2a"
    save(*graded({1: 1, 2: 1, 4: 1}, nil_dim=14), path)
    assert main(["decompose", str(path)]) == 0
    assert "torus dim 3, cartan dim 17, nil dim 14\n" in capsys.readouterr().out


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cli_decompose_names_a_torus_that_is_maximal_only_over_this_field(tmp_path, capsys,
                                                                         degree):
    # demo 03's abelian algebra with e0 -> e1 -> e0 + e1: the squaring map
    # fixes nothing over GF(2) or GF(4), so h = g holds semisimple elements
    # outside the zero torus; over GF(8) they are toral and the split holds
    path = tmp_path / "twisted.l2a"
    save(LieAlgebra(gf(1), 2, {}, "twisted"), TwoMap([0b10, 0b11]), path)
    code = main(["decompose", str(path), "--field-degree", str(degree)])
    captured = capsys.readouterr()
    if degree < 3:
        field = "GF(2)" if degree == 1 else "GF(2^2)"
        assert code == 2 and not captured.out
        assert captured.err == (
            "error: 2-nilpotent part does not complement the torus in h: h holds a semisimple "
            f"element outside the torus, so the torus is maximal over {field} but not over a "
            "larger field\n"
        )
    else:
        assert code == 0 and "torus dim 2, cartan dim 2, nil dim 0\n" in captured.out


def test_cli_screen_exit_codes(files, capsys):
    assert main(["screen", files["equal2"]]) == 0
    assert "PassesNecessaryConditions" in capsys.readouterr().out
    assert main(["screen", files["f6"]]) == 10
    assert "NotSimpleWitness" in capsys.readouterr().out
    assert main(["screen", files["torus3"]]) == 20
    assert "OutOfScope" in capsys.readouterr().out


def test_cli_contradiction_has_its_own_exit_code(files, capsys, monkeypatch):
    # f6 has three roots, so the screen goes through the missing-roots obstruction
    def contradicted(*args):
        raise ContradictionError("obstruction containment failed")

    monkeypatch.setattr(screening, "missing_roots_obstruction", contradicted)
    assert main(["screen", files["f6"]]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: contradiction: obstruction containment failed\n"
    assert not captured.out


def test_cli_simple(files, capsys):
    assert main(["simple", files["f6"]]) == 0
    assert "not simple" in capsys.readouterr().out
    # the oracle's ceiling is k*n <= 20
    assert main(["simple", files["abelian25"]]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: simplicity oracle needs 2^25 closures, budget is 2^20\n"
    assert not captured.out


def test_cli_rank_stabilization(files, capsys):
    assert main(["rank", files["gl2"], "--max-field-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "field degree 1: toral rank 2" in out
    assert "field degree 2: toral rank 2" in out
    assert "stabilization: rank equal at degrees 1 and 2" in out


def test_cli_rank_reports_refused_degree_and_continues(files, capsys):
    # over GF(4) the dim-15 u2 needs 2^30 toral candidates, beyond the budget
    assert main(["rank", files["u2"]]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "field degree 1: toral rank 3"
    assert out[1].startswith("field degree 2: refused (") and "2^30" in out[1]
    assert len(out) == 2  # one computed degree: no stabilization to compare


def test_cli_rank_exits_2_when_every_degree_is_refused(files, capsys):
    assert main(["rank", files["abelian25"], "--max-field-degree", "1"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("field degree 1: refused (") and "2^25" in out


@pytest.mark.parametrize("argv", [
    ["decompose", "--field-degree", "17"],
    ["decompose", "--field-degree", "-1"],
    ["rank", "--max-field-degree", "17"],
    ["rank", "--max-field-degree", "0"],
])
def test_cli_out_of_range_numbers_are_usage_errors(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], files["f6"], *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {argv[1]}: {argv[2]} is " in captured.err and not captured.out


def test_cli_range_ends_are_accepted(files, capsys):
    assert main(["decompose", files["f6"], "--field-degree", "0"]) == 0
    assert main(["rank", files["u2"], "--max-field-degree", "16"]) == 0
    out = capsys.readouterr().out
    assert "field degree 16: refused (" in out


@pytest.mark.parametrize("argv", [
    ["rank", "--mode", "greedy"],
    ["decompose", "--torus", "greedy"],
])
def test_cli_torus_search_has_no_mode_option(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], files["f6"], *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {argv[1]} greedy" in captured.err and not captured.out


@pytest.mark.parametrize("argv, message", [
    (["simple", "F", "--budget", "8"], "unrecognized arguments: --budget 8"),
    (["--seed", "7", "paper-suite"], "invalid choice: '7'"),
], ids=["budget", "seed"])
def test_cli_has_no_tuning_options(files, capsys, argv, message):
    # every check is exhaustive and the oracle's ceiling is a constant
    with pytest.raises(SystemExit) as exc:
        main([files["f6"] if a == "F" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_cli_paper_suite_with_fixture_dir(files, tmp_path, capsys):
    # extra directory containing one good file; the suite runs it too
    import shutil

    d = tmp_path / "extra"
    d.mkdir()
    shutil.copy(files["f6"], d / "mine.l2a")
    rc = main(["paper-suite", "--fixtures", str(d)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SUMMARY" in out and "failures=0" in out


def test_cli_paper_suite_refuses_a_fixtures_path_that_is_not_a_directory(files, tmp_path, capsys):
    # a missing directory or a file path used to glob nothing and report a clean suite
    for path in (tmp_path / "missing", files["f6"]):
        assert main(["paper-suite", "--fixtures", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: Unreadable: --fixtures {path}: not a directory\n"
        assert not captured.out
    proc = subprocess.run(
        [sys.executable, "-m", "lie2.cli", "paper-suite", "--fixtures", str(tmp_path / "missing")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cli_entrypoint_subprocess(files):
    proc = subprocess.run(
        [sys.executable, "-m", "lie2.cli", "screen", files["f6"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 10
    assert "NotSimpleWitness" in proc.stdout
