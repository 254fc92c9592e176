import hashlib
import json
import shlex
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barlog import ipbenv
from barlog import cli
from barlog.cli import Config, json_chunks, load_config, parse_term, run
from barlog.harmonic import eval_sum, eval_tagged, mpl_harmonic_expand
from barlog.hyperlog import ONE, PARAM, HyperlogTerm
from barlog.ipbenv import DEFAULT_DEGREE_CAP
from barlog.relgen import generate_all, verify_relation
from barlog.words import FORM_BASE, LIE_BASE, WordPoly
from json_oracle import poly_to_dict, relation_to_dict
from mp_series import DPS, mp_series


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """The barlog lines of the sh block under "## Command line" in the
    README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("barlog ")]


def test_readme_command_examples_run(capsys):
    # Each example exits 0, and its comment holds: 19 basis elements at
    # degree 2, 32 series terms for the eval example, and an empty index
    # entry exits 2.
    commands = _readme_commands()
    assert len(commands) == 8
    outputs = {}
    for line in commands:
        code, out, err = capture(capsys, shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        outputs[line] = out
    assert json.loads(outputs["barlog basis --degree 2"])["dimension"] == 19
    (eval_line,) = (line for line in commands if " eval " in line)
    assert json.loads(outputs[eval_line])["terms_used"] == 32
    argv = shlex.split(eval_line.replace("L[2,1|one,param]@z1",
                                         "L[2,,1|one,one,param]@z1"))[1:]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert "empty entry" in err


def test_basis_json(capsys):
    code, out, _ = capture(capsys, ["basis", "--degree", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 19
    assert len(data["elements"]) == 19


def test_basis_b0(capsys):
    code, out, _ = capture(capsys, ["basis", "--degree", "2", "--b0"])
    assert json.loads(out)["dimension"] == 10
    assert code == 0


def test_determinism(capsys):
    _, out1, _ = capture(capsys, ["relations", "--degree", "2"])
    _, out2, _ = capture(capsys, ["relations", "--degree", "2"])
    assert out1 == out2


def test_relations_verified(capsys):
    code, out, _ = capture(capsys, [
        "relations", "--degree", "2", "--verify",
        "--z1", "0.3", "--z2", "0.4", "--terms", "2000"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 10
    assert all(r["verified"] for r in data["relations"])


def test_harmonic(capsys):
    code, out, _ = capture(capsys, ["harmonic", "--left", "2",
                                    "--right", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 3
    assert data["recursion_matches"] is True


def test_harmonic_rejects_bad_input(capsys):
    # An entry below 1 is named by its flag, as a malformed one is.
    for flag, text, argv in (
            ("--left", "-1,2", ["--left=-1,2", "--right", "1"]),
            ("--left", "0", ["--left", "0", "--right", "1"]),
            ("--right", "1,0", ["--left", "2", "--right", "1,0"])):
        code, out, err = capture(capsys, ["harmonic"] + argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: {flag} expects comma-separated positive "
                       f"integers, got {text!r}\n")
    for point in ("0.3", "0.3,0.4,0.5"):
        code, out, err = capture(capsys, ["harmonic", "--left", "2",
                                          "--right", "1",
                                          "--numeric", point])
        assert (code, out) == (2, "")
        assert "expects z1,z2" in err
    for flag, argv in (("--left", ["--left", "1,", "--right", "1"]),
                       ("--right", ["--left", "2", "--right", "a"])):
        code, out, err = capture(capsys, ["harmonic"] + argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {flag} expects comma-separated "
                              "positive integers"), err


def test_parameter_out_of_range_names_its_coordinate(capsys):
    for argv, message in (
            (["relations", "--degree", "2", "--verify", "--z1", "1.5"],
             "|z1| = 1.5 must be <= 1"),
            (["eval", "--term", "L[1|param]@z1", "--z1", "0.3",
              "--z2", "-2"], "|z2| = 2.0 must be <= 1"),
            # The right factor Li_1(z2) is a series in z2.
            (["harmonic", "--left", "2", "--right", "1",
              "--numeric", "0.3,1.0"], "|z2| = 1.0 must be < 1")):
        code, out, err = capture(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_harmonic_bound_covers_both_sides(capsys):
    # The left side is a product of two series: its bound is each
    # factor's bound times the other factor, plus the product of bounds.
    code, out, _ = capture(capsys, ["harmonic", "--left", "2", "--right",
                                    "1", "--numeric", "0.3,0.4"])
    assert code == 0
    a = eval_tagged(((2,), (1, 0), "12"), 0.3, 0.4)
    b = eval_tagged(((1,), (1, 0), "12"), 0.4, 0.3)
    lhs_bound = (abs(a.value) * b.truncation_bound
                 + abs(b.value) * a.truncation_bound
                 + a.truncation_bound * b.truncation_bound)
    _, rhs_bound = eval_sum(mpl_harmonic_expand((2,), (1,)), 0.3, 0.4)
    assert lhs_bound > 0
    assert json.loads(out)["bound"] == pytest.approx(lhs_bound + rhs_bound,
                                                     rel=1e-12, abs=0)


def test_harmonic_terms(capsys):
    argv = ["harmonic", "--left", "2", "--right", "1,1",
            "--numeric", "0.3,0.4"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    default = json.loads(out)
    # A cap of 2000 does not bind at (0.3, 0.4), so every series stops
    # where it does by default; 20 terms leave a tail the bound must show.
    code, out, _ = capture(capsys, argv + ["--terms", "2000"])
    assert code == 0
    assert json.loads(out) == default
    default_bound = default["bound"]
    code, out, _ = capture(capsys, argv + ["--terms", "20"])
    assert code == 0
    assert json.loads(out)["bound"] > default_bound
    code, out, err = capture(capsys, argv + ["--terms", "0"])
    assert (code, out) == (2, "")
    assert "must be positive" in err


def test_eval(capsys):
    code, out, _ = capture(capsys, [
        "eval", "--term", "L[2,1|one,param]@z1",
        "--z1", "0.3", "--z2", "0.4", "--terms", "2000"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][0] - 0.010756440930465) < 1e-10


def test_eval_default_length_is_adaptive_and_honest(capsys):
    argv = ["eval", "--term", "L[2,1|one,param]@z1",
            "--z1", "0.3", "--z2", "0.4"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["terms_used"] < 200
    assert data["bound"] > 0
    ref, ref_tail = mp_series(parse_term(argv[2]), 0.3, 0.4)
    with mpmath.workdps(DPS):
        error = abs(mpmath.mpc(*data["value"]) - ref)
    assert error <= data["bound"] + ref_tail
    # --terms is a cap
    code, out, _ = capture(capsys, argv + ["--terms", "10"])
    assert code == 0
    assert json.loads(out)["terms_used"] == 10


def test_numeric_checks_pass_at_default_settings(capsys):
    code, out, _ = capture(capsys, ["verify", "--degree", "3"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = capture(capsys, ["harmonic", "--left", "2", "--right",
                                    "1,1", "--numeric", "0.3,0.4"])
    assert code == 0
    data = json.loads(out)
    assert data["recursion_matches"] is True
    assert 0 < data["bound"]
    assert data["residual"] <= Config().tolerance + data["bound"]


def test_infinite_bound_fails_numeric_checks(capsys):
    # At z1 = 0.9 a cap of one or three terms is too small for the tail
    # majorant of a depth-2 term to converge, so its bound is inf.  Some
    # relations agree exactly at one term (residual 0.0); an infinite
    # bound must not let them, or the harmonic check, pass.
    code, out, _ = capture(capsys, ["relations", "--degree", "3",
                                    "--verify", "--z1", "0.9",
                                    "--terms", "1"])
    assert code == 1
    rels = {(tuple(r["w1"]), tuple(r["w2"])): r
            for r in json.loads(out)["relations"]}
    exact = rels[(("Z11", "Z11"), ("Z22",))]
    assert exact["residual"] == 0.0
    assert exact["verified"] is False
    code, out, _ = capture(capsys, ["harmonic", "--left", "1,1", "--right",
                                    "1", "--numeric", "0.9,0.4",
                                    "--terms", "3"])
    assert code == 1
    data = json.loads(out)
    assert data["residual"] <= Config().tolerance
    assert data["bound"] is None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_infinite_bound_is_written_as_null(capsys):
    code, out, _ = capture(capsys, [
        "eval", "--term", "L[1,1,1,1|one,one,one,one]@z1",
        "--z1", "0.9", "--z2", "0.4", "--terms", "1"])
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["bound"] is None
    assert data["terms_used"] == 1


def test_non_finite_floats_are_rejected():
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            "".join(json_chunks({"a": [1, x]}))


@pytest.mark.parametrize("term, entry", [("L[2,300|one,one]@z1", "300"),
                                         ("L[1000|one]@z1", "1000")])
def test_huge_index_entry_is_a_domain_error(capsys, term, entry):
    code, out, err = capture(capsys, ["eval", "--term", term,
                                      "--z1", "0.3", "--z2", "0.4"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: index entry {entry} is too large")


def test_huge_index_entry_within_float_range_evaluates(capsys):
    # 8**300 is still a float, and the sum stops at its first stop test,
    # n = 8, so L[300|one] at 0.3 is 0.3 plus terms below the rounding.
    code, out, _ = capture(capsys, ["eval", "--term", "L[300|one]@z1",
                                    "--z1", "0.3", "--z2", "0.4"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [0.3, 0.0]
    assert data["terms_used"] == 8
    assert 0 < data["bound"] < 1e-14


_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text()
                 | st.fractions().map(str))
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.lists(st.text(max_size=4), max_size=5)
                      | st.lists(st.text(max_size=4), max_size=5).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example(())
@example(("z1", "z12"))
@example({"w": ("z1", "\u00e9"), "v": [(), ("a",)]})
@example(("z1", ("z2",)))
@example(((), ()))
@example(("z1", 1))
@example(("z1", None, ["z2"]))
def test_json_chunks_match_indented_json_dumps(x):
    # A tuple of strings (a word) is written as one chunk; a tuple that
    # holds anything else, nested tuples included, one item at a time.
    assert "".join(json_chunks(x)) == json.dumps(x, indent=2, sort_keys=True)


def test_a_word_is_one_chunk():
    # _Rendered text is a str, but is written as it is: a tuple holding
    # one takes the item-by-item path, not the cached word.
    assert list(json_chunks(("z1", "z12"), "\n  ")) == [
        '[\n    "z1",\n    "z12"\n  ]']
    assert list(json_chunks(())) == ["[]"]
    assert "".join(json_chunks((cli._Rendered("1"), "a"))) == \
        '[\n  1,\n  "a"\n]'


_polys = st.sampled_from((FORM_BASE, LIE_BASE)).flatmap(
    lambda a: st.dictionaries(
        st.lists(st.sampled_from(a), max_size=4).map(tuple),
        st.integers(-3, 3) | st.fractions(max_denominator=6),
        max_size=6).map(lambda terms: WordPoly(a, terms)))
_poly_values = st.recursive(
    _polys | _json_scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)


def _polys_as_dicts(x):
    if isinstance(x, WordPoly):
        return poly_to_dict(x)
    if isinstance(x, dict):
        return {k: _polys_as_dicts(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_polys_as_dicts(v) for v in x]
    return x


@settings(max_examples=300, deadline=None)
@given(_poly_values)
@example(WordPoly.zero(FORM_BASE))
@example({"a": [WordPoly.unit(LIE_BASE)]})
@example([WordPoly(FORM_BASE, {("z12", "z1"): Fraction(-3, 4), (): 2})])
def test_json_chunks_render_a_polynomial_as_its_dict(x):
    # A WordPoly is written straight from its terms, in the text
    # json.dumps gives json_oracle.poly_to_dict of it, at any indent.
    assert "".join(json_chunks(x)) == json.dumps(_polys_as_dicts(x),
                                                 indent=2, sort_keys=True)


def test_harmonic_tol(tmp_path, capsys):
    argv = ["harmonic", "--left", "2", "--right", "1", "--numeric",
            "0.3,0.4"]
    code, out, err = capture(capsys, argv + ["--tol", "nan"])
    assert (code, out) == (2, "")
    assert err == ("error: --tol (tolerance) must be finite and positive, "
                   "got nan\n")
    # The flag overrides the config key, as it does for every command.
    cfg = tmp_path / "cfg"
    cfg.write_text("tolerance = nan\n")
    code, out, err = capture(capsys, argv + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "got nan" in err
    _, default, _ = capture(capsys, argv)
    assert capture(capsys, argv + ["--config", str(cfg), "--tol", "1e-6"]
                   ) == (0, default, "")


def test_each_setting_flag_writes_its_config_field(tmp_path, capsys,
                                                    monkeypatch):
    seen = []
    _, help_line, add_args = cli._COMMANDS["verify"]
    monkeypatch.setitem(cli._COMMANDS, "verify", (
        lambda args, cfg: (seen.append(cfg), lambda: (), 0), help_line,
        add_args))
    cfg = tmp_path / "cfg"
    cfg.write_text("degree_cap = 3\ntolerance = 1\nformat = text\n")
    command = ["verify", "--degree", "1"]
    for argv, expected in (
            (command, Config()),
            (command + ["--config", str(cfg)],
             Config(degree_cap=3, tolerance=1.0, format="text")),
            (["--format", "json", "--config", str(cfg)] + command
             + ["--terms", "7", "--tol", "0.5", "--degree-cap", "4"],
             Config(4, 7, 0.5, "json"))):
        seen.clear()
        assert capture(capsys, argv)[::2] == (0, "")
        assert seen == [expected]
        # A config value has the type of its field's default.
        assert list(map(type, seen[0])) == list(map(type, Config()))


def test_decompose(capsys):
    code, out, _ = capture(capsys, ["decompose", "--degree", "2",
                                    "--direction", "1x2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["pairs"]) == 10


def test_verify_command(capsys):
    code, out, _ = capture(capsys, [
        "verify", "--degree", "1", "--terms", "1000"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_errors(capsys):
    code, _, err = capture(capsys, ["nosuchcommand"])
    assert code == 2
    code, _, err = capture(capsys, ["eval", "--term", "garbage",
                                    "--z1", "0", "--z2", "0"])
    assert code == 2
    assert "malformed term" in err
    code, _, err = capture(capsys, ["basis", "--degree", "9"])
    assert code == 2  # over the default degree cap


def test_out_file(tmp_path, capsys):
    target = tmp_path / "basis.json"
    code, out, _ = capture(capsys, ["basis", "--degree", "1",
                                    "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dimension"] == 5


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("format = text\nseries_terms = 500  # small\n")
    assert load_config(str(cfg)) == {"format": "text", "series_terms": 500}
    code, out, _ = capture(capsys, ["basis", "--degree", "1",
                                    "--config", str(cfg)])
    assert code == 0
    assert out.startswith("degree: 1")
    # flags override the file
    code, out, _ = capture(capsys, ["basis", "--degree", "1",
                                    "--config", str(cfg),
                                    "--format", "json"])
    assert json.loads(out)["dimension"] == 5


def test_config_value_error_names_its_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("format = text\ndegree_cap = abc\n")
    with pytest.raises(ValueError) as info:
        load_config(str(cfg))
    assert str(info.value).startswith(f"{cfg}:2: degree_cap: ")
    assert "'abc'" in str(info.value)
    code, out, err = capture(capsys, ["basis", "--degree", "1",
                                      "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert f"{cfg}:2: degree_cap" in err
    # An unreadable path, the empty one too, is an error, not no file.
    for path in (str(tmp_path / "missing"), ""):
        code, out, err = capture(capsys, ["basis", "--degree", "2",
                                          "--config", path])
        assert (code, out) == (2, ""), path
        assert err.startswith("error: [Errno 2] "), path


def test_config_validation():
    with pytest.raises(ValueError):
        Config(degree_cap=0).validate()
    with pytest.raises(ValueError):
        Config(tolerance=-1).validate()


def test_parse_term():
    t = parse_term("L[2,1|one,param]@z2")
    assert t == HyperlogTerm(2, (2, 1), (ONE, PARAM))
    assert parse_term("L[|]@z1") == HyperlogTerm(1, (), ())
    with pytest.raises(ValueError):
        parse_term("L[2|bogus]@z1")
    # An empty entry is a typo, not a shorter term.
    for text in ("L[2,,1|one,,one]@z1", "L[,2|,one]@z1", "L[2,|one,]@z1",
                 "L[2|one,]@z1", "L[,|,]@z1"):
        with pytest.raises(ValueError, match="empty entry"):
            parse_term(text)


def test_zero_terms_and_tol_are_rejected(capsys):
    code, out, err = capture(capsys, [
        "eval", "--term", "L[2|one]@z1", "--z1", "0.3", "--z2", "0.4",
        "--terms", "0"])
    assert (code, out) == (2, "")
    assert err == "error: --terms (series_terms) must be positive, got 0\n"
    # A NaN tolerance would fail every comparison, and so every check.
    for tol, shown in (("0", "0.0"), ("nan", "nan"), ("inf", "inf")):
        code, out, err = capture(capsys, [
            "verify", "--degree", "1", "--terms", "500", "--tol", tol])
        assert (code, out) == (2, "")
        assert err == ("error: --tol (tolerance) must be finite and "
                       f"positive, got {shown}\n")


@pytest.mark.parametrize("argv, config, message", [
    (["relations", "--degree", "2", "--tol", "nan"], None,
     "--tol (tolerance) must be finite and positive, got nan"),
    (["relations", "--degree", "2", "--verify", "--terms", "0"], None,
     "--terms (series_terms) must be positive, got 0"),
    (["relations", "--degree", "1", "--degree-cap", "-1"], None,
     "--degree-cap (degree_cap) must be positive, got -1"),
    (["relations", "--degree", "1"], "degree_cap = 0\n",
     "--degree-cap (degree_cap) must be positive, got 0"),
    (["relations", "--degree", "1", "--verify"], "series_terms = -5\n",
     "--terms (series_terms) must be positive, got -5"),
    (["relations", "--degree", "1", "--verify"], "tolerance = -1e-3\n",
     "--tol (tolerance) must be finite and positive, got -0.001"),
    (["basis", "--degree", "1"], "format = xml\n",
     "--format (format) must be json or text, got 'xml'"),
])
def test_bad_setting_names_its_flag_and_key(tmp_path, capsys, argv, config,
                                            message):
    if config is not None:
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert capture(capsys, argv) == (2, "", f"error: {message}\n")


def test_degree_out_of_range_is_rejected_by_every_degree_command(capsys):
    for argv in (["basis", "--degree", "2"],
                 ["phi", "--w1", "Z11", "--w2", "Z22"],
                 ["relations", "--degree", "2"],
                 ["decompose", "--degree", "2"],
                 ["verify", "--degree", "2", "--terms", "50"]):
        code, out, err = capture(capsys, argv + ["--degree-cap", "1"])
        assert (code, out) == (2, ""), argv
        assert "exceeds cap 1" in err
        if "--degree" in argv:
            argv[argv.index("--degree") + 1] = "-1"
            code, out, err = capture(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert "degree must be nonnegative" in err


def test_each_kernel_coefficient_is_certified_once(capsys, monkeypatch):
    # Chen's condition runs once per certified kernel, on the weighted
    # combination of its 32 coefficients at degree 3: verify certifies
    # both directions, and basis --b0 the 1x2 one.  The relations read
    # C_3 and certify nothing, so basis --b0 then relations runs 1.
    # duality reads formspace._chen_failure where it certifies.
    from barlog import duality, formspace

    calls = []
    chen_failure = formspace._chen_failure

    def counted(p):
        calls.append(p)
        return chen_failure(p)

    monkeypatch.setattr(formspace, "_chen_failure", counted)
    caches = (duality._certified_kernel, duality._certified_rest,
              formspace._bar0_basis)
    for argvs, expected in (
            ([["verify", "--degree", "3"]], 2),
            ([["basis", "--degree", "3", "--b0"],
              ["relations", "--degree", "3"]], 1)):
        for cached in caches:
            cached.cache_clear()
        calls.clear()
        try:
            for argv in argvs:
                assert capture(capsys, argv)[0] == 0, argv
        finally:
            for cached in caches:
                cached.cache_clear()
        assert len(calls) == expected, argvs


@pytest.mark.parametrize("argv,digest", [
    ("verify --degree 3",
     "da84623f2f7acbb205bc32003a56ef35a8b6254f1f7bba5118721b162156a246"),
    ("relations --degree 3 --verify",
     "ff16d7b8510192cb7c4fc0416db116751bc42309b3519e79c2d35dff19fb1973"),
])
def test_each_relation_is_checked_by_verify_relation(capsys, monkeypatch,
                                                     argv, digest):
    # Both commands check each of the 32 degree-3 relations with one
    # call of relgen.verify_relation, and write the output they wrote
    # when a second checker did it.
    from barlog import relgen

    calls = []
    verify = relgen.verify_relation

    def counted(r, *args):
        calls.append(r)
        return verify(r, *args)

    monkeypatch.setattr(relgen, "verify_relation", counted)
    code, out, _ = capture(capsys, argv.split())
    assert code == 0
    assert calls == generate_all(3)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_one_default_degree_cap(capsys):
    assert Config().degree_cap == DEFAULT_DEGREE_CAP == 6
    for command in ("basis", "relations", "decompose", "verify"):
        code, out, err = capture(capsys, [command, "--degree", "7"])
        assert (code, out) == (2, ""), command
        assert f"exceeds cap {DEFAULT_DEGREE_CAP}" in err


def test_degree_cap_option_is_honored_by_every_degree_command(
        capsys, monkeypatch):
    # Below the default cap, degree 4 runs only on --degree-cap 4, which
    # relations and verify must pass down to the relations, phi and the
    # kernel.
    monkeypatch.setattr(ipbenv, "DEFAULT_DEGREE_CAP", 3)
    for command in ("basis", "relations", "decompose", "verify"):
        code, out, err = capture(capsys, [command, "--degree", "4",
                                          "--degree-cap", "4"])
        assert code == 0, (command, err)
        if command == "relations":
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "854bc85d9dff63506eb57ffbacca7898"
                "0acd62b9ff5debaf4d0ea55ae0e81eef")


def test_radius_is_not_an_option(tmp_path, capsys):
    for argv in (["basis", "--degree", "1", "--radius", "0.5"],
                 ["relations", "--degree", "1", "--verify", "--jobs", "2"]):
        code, out, _ = capture(capsys, argv)
        assert (code, out) == (2, ""), argv
    cfg = tmp_path / "cfg"
    cfg.write_text("radius = 0.5\n")
    code, out, err = capture(capsys, ["basis", "--degree", "1",
                                      "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "unknown key 'radius'" in err


def test_relations_degree_5_golden(capsys):
    # SHA-256 of the stdout of the route that solved each pair's
    # preimage against the Chen-condition nullspace basis (kept as the
    # reference construction in tests/chen_oracle.py).
    code, out, _ = capture(capsys, ["relations", "--degree", "5"])
    assert code == 0
    assert json.loads(out)["count"] == 308
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b7a712563ecdcd320c0bc79cf45ec080a84af6738bb93b64cfc2702270c05ba8")


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("degree", range(6))
def test_streamed_relations_equal_the_dict_payload(tmp_path, capsys, degree,
                                                   verify):
    # relations writes each relation straight from its Relation; the
    # reference is json_chunks of the relation_to_dict payload.
    argv = ["relations", "--degree", str(degree)] + ["--verify"] * verify
    records = []
    for r in generate_all(degree):
        checked = {}
        if verify:
            report = verify_relation(r, (0.3, 0.4))
            checked = {"verified": report["passed"],
                       "residual": report["residual"]}
        records.append(relation_to_dict(r, **checked))
    expected = "".join(json_chunks({"degree": degree, "count": len(records),
                                    "relations": records})) + "\n"
    assert capture(capsys, argv) == (0, expected, "")
    target = tmp_path / "relations.json"
    assert capture(capsys, argv + ["--out", str(target)]) == (0, "", "")
    assert target.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("items", [[], ["1"], ['"a"', "[]", "{}"]])
def test_streamed_list_equals_the_whole_list(items):
    # A list, a tuple and an iterator are written alike, at any depth, as
    # json.dumps writes the list; so is _list_json of the items' text.
    values = list(map(json.loads, items))
    for wrap in (lambda v: v, lambda v: {"a": [v]}):
        expected = json.dumps(wrap(values), indent=2, sort_keys=True)
        for x in (values, tuple(values), iter(values)):
            assert "".join(json_chunks(wrap(x))) == expected
    assert cli._list_json(items, "\n") == json.dumps(values, indent=2)


@pytest.mark.parametrize("argv", [
    "decompose --degree 3", "decompose --degree 3 --format text",
    "basis --degree 2", "relations --degree 3"])
def test_output_is_written_in_chunks(monkeypatch, capsys, argv):
    # No command builds its whole output as one string before writing.
    _, expected, _ = capture(capsys, argv.split())
    chunks = []
    monkeypatch.setattr(cli, "_write", lambda it, out: chunks.extend(it))
    assert run(argv.split()) == 0
    assert len(chunks) > 1
    assert "".join(chunks) == expected


@pytest.mark.parametrize("argv, digest", [
    ("relations --degree 5 --verify",
     "0c537d70f18d1f649bfbdfc042abec0c153f8deedc8fa1dc043ec4df9781faef"),
    ("relations --degree 5 --format text",
     "c1757b8cec1183fee4713d0f252de3aeeb019098e1b34a0f8b7870cc42104be1"),
    ("relations --degree 4 --verify --format text",
     "f87f903c504fd842e88a9b95a99871f966566c2d1b0b0c797194cc940f919eb4"),
])
def test_relations_outputs_golden(capsys, argv, digest):
    # SHA-256 of the stdout of each command while the whole payload was
    # built as one string before it was written.
    code, out, _ = capture(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("verify --degree 4",
     "735f1d556aa02c36a5cc766d5667f1552dedff799a55167de9b53b5253d30d02"),
    ("verify --degree 4 --format text",
     "ed024dc9be2cc6ec19a0e399ac3785cbc6f1b48282c6960849ed5c0a19bcdedd"),
])
def test_verify_degree_4_golden(capsys, argv, digest):
    # SHA-256 of the stdout of verify at the default point and settings,
    # as it was written before the run settings became one record.
    code, out, _ = capture(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["basis", "--degree", "4"],
     "c9f459c98a2a51213d5a4668c31fdf4c0d5212dffd2039482a3bacb671f60f50"),
    (["basis", "--degree", "4", "--b0"],
     "d30aa01d5892ad2e4dc34e10371a750ec1cc2852bdb6c511c81e72cae0eaf1a0"),
    (["basis", "--degree", "5", "--b0"],
     "d46a0eee2ab0321c758577c03c296df47950725c0afd86d6e1ca0ed82c5a5b85"),
])
def test_basis_degree_4_golden(capsys, argv, digest):
    # SHA-256 of the stdout of the canonical RREF bases of the
    # Chen-condition nullspace, before their construction moved to the
    # kernel decomposition.
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("decompose --degree 4 --format text",
     "2b4596fe8e52b2c154c7e7c44b82a26651b67fb7aa32ae7bb6966a8e09b3cd86"),
    ("decompose --degree 4 --direction 2x1 --format text",
     "1fccdd2352f9de128822c733a3812dde29da1068b9ce760466b475bd5a40d557"),
    ("decompose --degree 4",
     "2b15bf33888d1f9a0f7af73842a5ae594cacafd0aa7e954095d638aba6ebd944"),
    ("decompose --degree 4 --direction 2x1",
     "410b97d7a96e6b498737f3f9642813d35f839c10361f2e58ebf0e81ce546eb14"),
    ("decompose --degree 0",
     "c7da0984d238e0cbe05c39712960e9bcd3c3a268e799dcf36128fe16a0922889"),
    ("phi --w1 Z11,Z12 --w2 Z22",
     "dd555225aaa38fb521b0b4cc66a6dc60f4c28d610ab109163b16d32c250a1e17"),
    ("phi --w1 Z22,Z12 --w2 Z11 --direction 2x1",
     "7421f994d612540e46d1b91f6a89b43051ca2619c88892ac4f9438d4ff81943b"),
    ("phi --w1 Z11,Z12 --w2 Z22 --format text",
     "a50e95f059ece1d3416709f5d9b22528cd6fa1fa73fe2d83233e02769b6e05c3"),
    # 2x1 coefficients at degrees 5 and 6, read through sigma.
    ("phi --w1 Z22,Z12 --w2 Z11,Z1,Z11 --direction 2x1",
     "f0c63f5cffe63acadc402d3c983de554ba90d926fc59c2cffef7186bfe496782"),
    ("phi --w1 Z22,Z12 --w2 Z11,Z1,Z11 --direction 2x1 --format text",
     "09c29279eb8cb68922510a594330c9598ab1c700efd08a2925d1a58b352d8a08"),
    ("phi --w1 Z22,Z12,Z12 --w2 Z11,Z1,Z11 --direction 2x1",
     "561ae8a62c9eaac0cb95d76f389fb8c5605bdc930217737fdf6641e608711c00"),
    ("basis --degree 3",
     "348037b3686e55a018781bdc22bcae7844f1b85bcde2ae2925161a685d42d12f"),
    ("basis --degree 3 --b0",
     "232246378ecb1b47331a9c9bb7f69e7aff9430602af1b60340b1f07974e14c81"),
    ("basis --degree 3 --format text",
     "47c6ac2b4c973fe4f2c67e36c13088553a4609dbad4ed2555a6990ccb286d2f6"),
    # The terms in sorted tag order, and the numeric check's series
    # summed in the expansion's own term order.
    ("harmonic --left 2,1 --right 1,2 --numeric 0.3,0.4",
     "241c3b62389897fa2cc1d37baa85ff3d0d05ce59203ba8847dcbc5e05ce103c9"),
    ("harmonic --left 3,1,2 --right 2,1,1",
     "4d94ea4428fdbdc6ad86c14547fdec6491de92951dde6e10aad3f473328830db"),
    ("harmonic --left 2,1,1 --right 1,3 --numeric 0.3,0.4 --format text",
     "97ad6a214351338e908a223cdf2ac847425ffa66b878715b65ee8b229c963c17"),
])
def test_polynomial_outputs_golden(capsys, argv, digest):
    # SHA-256 of the stdout of each command while its polynomials were
    # rendered through json_oracle.poly_to_dict; the empty word of
    # degree 0 is written as [].
    code, out, _ = capture(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

