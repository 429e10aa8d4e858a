import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm import cli, decision, enumerator, isoperimetry, sidki
from weakcomm.cli import main
from weakcomm.errors import AlphabetError, CheckFailure, WeakcommError
from weakcomm.presentations import AllElements, parse_presentation, sidki_double


@pytest.fixture
def enumerated(monkeypatch):
    """The presentations that enumerate_cosets is called on, in order."""
    calls = []
    real = enumerator.enumerate_cosets

    def counting(pres, *args, **kwargs):
        calls.append(pres)
        return real(pres, *args, **kwargs)

    for module in (enumerator, decision, cli, sidki):
        monkeypatch.setattr(module, "enumerate_cosets", counting)
    return calls


def test_parse_command(capsys):
    assert main(["parse", "-p", "< a | a^3 >"]) == 0
    out = capsys.readouterr().out
    assert "Z/3" in out


def test_usage_errors(capsys):
    assert main(["parse", "-p", "< a | a^3"]) == 3
    assert main(["parse"]) == 3
    assert main(["verify", "-p", "<a|a^2>", "--max-cosets", "-1"]) == 3


def test_missing_file_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["parse", "--file", missing]) == 3
    assert main(["area", "-p", "< a, b | [a,b] >", "--check", missing]) == 3
    assert main(["--config", missing, "parse", "-p", "< a | >"]) == 3
    assert "usage error" in capsys.readouterr().err


def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe{")
    assert main(["parse", "--file", str(binary)]) == 3
    assert main(["--config", str(binary), "parse", "-p", "< a | >"]) == 3
    assert "usage error" in capsys.readouterr().err


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"radius": "3"}, {"guard": True}, {"witness": 2}):
        cfg.write_text(json.dumps(bad))
        assert main(["--config", str(cfg), "parse", "-p", "< a | >"]) == 3
    assert "wrong type" in capsys.readouterr().err


def test_config_with_malformed_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ('{"radius": 3', "[1, 2]"):
        cfg.write_text(bad)
        assert main(["--config", str(cfg), "parse", "-p", "< a | >"]) == 3
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "JSON object" in err


@pytest.mark.parametrize("doc", [
    '{"word": "[a,b]"',
    '{"word": "[a,b]"}',
    '{"word": "[a,b]", "factors": [{"theta": "1", "relator": 0}]}',
    '{"word": "[a,b]", "factors": [{"theta": "1", "relator": "0", "sign": 1}]}',
    '{"word": 3, "factors": []}',
    '["word", "factors"]',
])
def test_malformed_certificate_is_usage_error(tmp_path, capsys, doc):
    cert = tmp_path / "cert.json"
    cert.write_text(doc)
    assert main(["area", "-p", "< a, b | [a,b] >", "--check", str(cert)]) == 3
    assert "usage error" in capsys.readouterr().err


def test_budget_exhaustion_exit_code(capsys):
    assert main(["realize", "-p", "< a, b | >", "--max-cosets", "50"]) == 2


def test_out_of_memory_is_budget_exhausted(monkeypatch, capsys):
    """A MemoryError, here injected in place of the parse of a huge exponent,
    ends in exit 2 with one line on stderr, not a traceback."""
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_presentation", exhausted)
    assert main(["parse", "-p", "< a | a^99999999999 >"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "budget exhausted: out of memory\n"
    assert "Traceback" not in captured.out


def test_verify_and_json_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "-p", "<a|a^2>", "--json", str(out1)]) == 0
    assert main(["verify", "-p", "<a|a^2>", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema_version"] == 1
    assert doc["orders"]["X"] == 4
    assert doc["config"]["max_cosets"] == 1_000_000
    assert all(c["pass"] for c in doc["checks"])


def test_double_command(capsys):
    assert main(["double", "-p", "< a | a^2 >"]) == 0
    out = capsys.readouterr().out
    assert "a~" in out
    assert main(["double", "-p", "< a | >", "--witness", "len:1"]) == 0
    out = capsys.readouterr().out
    assert "may present a proper pre-image" in out


def test_realize_command(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["realize", "-p", "< a | a^2 >", "--double",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_cosets"] == 4
    assert main(["realize", "-p", "< a | a^3 >", "--strategy", "felsch"]) == 0


def test_realize_double_with_felsch(capsys):
    text = "< a, b | a^2, b^2, (a*b)^3 >"
    assert main(["realize", "-p", text, "--double", "--strategy", "felsch",
                 "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    double = sidki_double(parse_presentation(text), AllElements())
    expected = enumerator.enumerate_cosets(double, [], strategy="felsch").to_json()
    assert doc["table"] == json.loads(expected)


def test_engel_command(capsys):
    assert main(["engel", "-p", "< a,b | a^4, b^2*a^-2, b^-1*a*b*a >"]) == 0
    out = capsys.readouterr().out
    assert "n=2 d=2" in out and "verdict=True" in out


def test_engel_command_runs_without_numpy():
    """numpy is no runtime dependency: a fresh interpreter runs a command
    whose Engel scan is the heaviest group work and never imports it."""
    q8 = "< a, b | a^4, b^2*a^-2, b^-1*a*b*a >"
    code = ("import sys\n"
            "from weakcomm.cli import main\n"
            f"assert main(['engel', '-p', {q8!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    done = _fresh_python(code, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "verdict=True" in done.stdout


def _fresh_python(code: str, timeout: float,
                  hash_seed: str | None = None) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("args", [
    ["realize", "--double", "--strategy", "hlt"],
    ["realize", "--double", "--strategy", "felsch"],
    ["verify"],
], ids=["realize-hlt", "realize-felsch", "verify"])
def test_reports_do_not_depend_on_the_hash_seed(args):
    """Coset tables are numbered in discovery order, which no set or dict
    order may reach: the JSON reports on A4 agree under two hash seeds."""
    argv = [*args, "-p", "< a, b | a^2, b^3, (a*b)^3 >", "--json", "-"]
    code = ("import sys\n"
            "from weakcomm.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    runs = [_fresh_python(code, timeout=120, hash_seed=seed) for seed in ("1", "2")]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert '"schema_version"' in runs[0].stdout     # the JSON report came out
    assert runs[0].stdout == runs[1].stdout


def test_parse_finishes_on_a_dense_relation_matrix():
    """The 6 x 7 exponent matrix of this presentation once kept the Smith
    form running for minutes; its abelianization is trivial."""
    pres = ("< a, b, c, d, e, f | a^-8*b^8*c^-7*d^3*e^-6*f^-2, "
            "a^6*b^-8*c^-5*d^-4*e^4*f^3, a^3*b^7*c^-7*d^1*e^8*f^8, "
            "a^2*b^-7*c^5*d^5*e^4*f^-9, a^3*b^-1*c^-2*d^-5*e^-6*f^-3, "
            "a^7*b^-6*c^3*d^6*f^7, a^-4*b^-1*c^4*d^-3*e^-1*f^5 >")
    code = ("import sys\n"
            "from weakcomm.cli import main\n"
            f"sys.exit(main(['parse', '-p', {pres!r}]))\n")
    done = _fresh_python(code, timeout=30)
    assert done.returncode == 0, done.stderr
    assert "abelianization: 0" in done.stdout.splitlines()


def test_modules_command(capsys):
    assert main(["modules", "-p", "< a,b | a^2, b^2, (a*b)^3 >"]) == 0
    out = capsys.readouterr().out
    assert "W structure" in out and "ok=True" in out


def test_wp_command(capsys):
    code = main(["wp", "-p", "<a|a^2>", "--word", "[a,a~]", "--word", "a*a~"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[a,a~]: trivial" in out
    assert "a*a~: nontrivial" in out


def test_wp_enumerates_the_base_once(enumerated, capsys):
    text = "< a, b | a^2, b^2, (a*b)^3 >"
    assert main(["wp", "-p", text, "--word", "a*b~", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert doc["oracle"] == "finite"
    assert enumerated.count(parse_presentation(text)) == 1


def test_wp_reports_a_repeated_word_alike(capsys):
    word = "a^-1*b^-1*a^-1*a~*b*a~"
    assert main(["wp", "-p", "< a, b | a^2, b^2, [a, b] >", "--word", word,
                 "--word", word, "--json", "-"]) == 0
    out = capsys.readouterr().out
    first, second = json.loads(out[out.index("{"):])["results"]
    assert first["witness"] == second["witness"] == "{'n_cosets': 32, 'image_order': 2}"


def test_infinite_base_doubles_without_enumerating(enumerated, capsys):
    assert main(["double", "-p", "< a | >", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert enumerated == []
    doc = json.loads(out[out.index("\n{") + 1:])
    assert doc["meta"] == {"witness_policy": "len:2", "may_be_preimage": True}
    # an explicit policy is refused before enumerating, whatever the budget
    assert main(["double", "-p", "< a | >", "--witness", "all",
                 "--max-cosets", "50"]) == 2
    assert enumerated == []
    assert "budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["double"], ["realize", "--double"], ["wp", "--word", "a*a~"],
    ["growth", "--double", "--radius", "3"],
], ids=["double", "realize", "wp", "growth"])
def test_every_double_refuses_an_infinite_base_before_enumerating(
        enumerated, capsys, argv):
    assert main(argv + ["--witness", "all", "-p", "< a, b | [a, b] >"]) == 2
    assert "free rank 2" in capsys.readouterr().err
    assert enumerated == []


def test_growth_refuses_a_radius_below_three_before_enumerating(enumerated, capsys):
    assert main(["growth", "--double", "-p", "< a, b | a^2, b^3, (a*b)^4 >",
                 "--radius", "2"]) == 3
    assert "four ball sizes" in capsys.readouterr().err
    assert enumerated == []


def test_growth_of_an_infinite_double_fails_fast(capsys):
    assert main(["growth", "--double", "-p", "< a, b | [a,b] >",
                 "--radius", "3"]) == 2
    assert "free rank 4" in capsys.readouterr().err


def test_realize_refuses_an_infinite_group_before_enumerating(enumerated, capsys):
    assert main(["realize", "-p", "< a, b | [a,b] >"]) == 2
    assert "infinite (free rank 2)" in capsys.readouterr().err
    assert main(["realize", "--double", "-p", "< a | >"]) == 2
    assert "infinite (free rank 2)" in capsys.readouterr().err
    assert enumerated == []
    # a finite group still enumerates, up to the budget
    assert main(["realize", "-p", "< a | a^100 >", "--max-cosets", "50"]) == 2
    assert len(enumerated) == 1
    assert "exceeded budget of 50" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "engel", "modules"])
def test_structure_commands_refuse_an_infinite_base_before_enumerating(
        enumerated, capsys, command):
    assert main([command, "-p", "< a | >"]) == 2
    assert "infinite (free rank 1)" in capsys.readouterr().err
    assert enumerated == []


@pytest.mark.parametrize("error, code, label", [
    (AlphabetError("symbol c not in declared alphabet"), 3, "usage error"),
    (WeakcommError("coset table is not transitive"), 4, "internal error"),
], ids=["AlphabetError", "WeakcommError"])
def test_library_errors_end_in_their_exit_code(monkeypatch, capsys, error, code,
                                               label):
    def failing(args, config):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "parse", failing)
    assert main(["parse", "-p", "< a | >"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{label}: {error}\n"
    assert "Traceback" not in captured.out + captured.err


def test_a_relator_that_fails_under_rho_is_a_failed_check(monkeypatch, capsys):
    """rho's middle block is pi, so one relator check under rho covers both
    maps; a relator that fails it ends in exit 1, not a usage error."""
    real = sidki.signed_letters
    monkeypatch.setattr(sidki, "signed_letters", lambda p, w: real(p, w) + (1,))
    text = "< a, b | a^2, b^2, (a*b)^3 >"
    with pytest.raises(CheckFailure) as failure:
        sidki.build(parse_presentation(text))
    assert failure.value.name == "rho_well_defined"
    assert main(["verify", "-p", text]) == 1
    assert capsys.readouterr().err.startswith("check failed: check 'rho_well_defined'")


def test_a_certificate_that_fails_its_own_checker_is_an_internal_error(
        monkeypatch, capsys):
    monkeypatch.setattr(isoperimetry, "check_certificate", lambda pres, cert: False)
    assert main(["area", "--grid", "3"]) == 4
    assert capsys.readouterr().err == \
        "internal error: grid certificate failed its checker\n"


def test_double_falls_back_to_short_witnesses_when_the_base_overflows(capsys):
    assert main(["double", "-p", "< a, b | a^2, b^3, (a*b)^5 >",
                 "--max-cosets", "30", "--json", "-"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("\n{") + 1:])
    assert doc["meta"] == {"witness_policy": "len:2", "may_be_preimage": True}


def test_wp_over_bounded_witnesses_builds_the_base_oracle(enumerated, capsys):
    """With --witness len:k the base table is not enumerated for the double,
    so wp picks the base's oracle itself."""
    text = "< a | a^2 >"
    assert main(["wp", "-p", text, "--witness", "len:1", "--word", "a*a~",
                 "--word", "[a, a~]", "--json", "-"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["oracle"] == "finite"
    assert [(r["verdict"], r["reason"]) for r in doc["results"]] == [
        ("nontrivial", "rho coordinate nontrivial"),
        ("trivial", "explicit area certificate")]
    assert enumerated.count(parse_presentation(text)) == 1


def test_wp_unknown_exit_code(capsys):
    code = main(["wp", "-p", "<a|a^2>", "--word", "(a*a~)^2", "--budget", "3"])
    assert code == 2
    assert "unknown" in capsys.readouterr().out


def test_growth_command_doubled_line(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["growth", "-p", "<a|>", "--double", "--radius", "6",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sizes"] == [1, 5, 13, 25, 41, 61, 85]
    assert doc["classification"] == "PolynomialDegree(2)"
    assert doc["heuristic_flag"] is True


def test_area_commands(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["area", "--grid", "3", "--json", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    cert_file = tmp_path / "bare.json"
    cert_file.write_text(json.dumps(doc["certificate"]))
    assert main(["area", "-p", "< a, b | [a,b] >", "--check", str(cert_file)]) == 0
    assert main(["area", "-p", "< a, b | [a,b] >", "--min-search", "[a,b]",
                 "--max-area", "2", "--max-radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "minimal area: 1" in out
    assert main(["area"]) == 3


def test_area_min_search_without_certificate(capsys):
    assert main(["area", "--min-search", "[a^2, b^2]", "--max-area", "3",
                 "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "minimal area: unknown within bounds" in out.splitlines()
    assert '"minimal_area": null' in out


@pytest.mark.parametrize("flag", ["--max-radius", "--max-area"], ids=["radius", "area"])
@pytest.mark.parametrize("word", ["[a,b]", "1"], ids=["commutator", "identity"])
def test_area_min_search_with_negative_radius_is_usage_error(capsys, flag, word):
    # a negative bound is refused before the identity's area 0 is read off
    assert main(["area", "--min-search", word, flag, "-1"]) == 3
    captured = capsys.readouterr()
    assert "minimal area" not in captured.out
    assert flag[2:].replace("-", "_") in captured.err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 4, "witness": "len:1"}))
    assert main(["--config", str(cfg), "growth", "-p", "<a|>", "--double"]) == 0
    out = capsys.readouterr().out
    assert "[1, 5, 13, 25, 41]" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["--config", str(bad), "parse", "-p", "< a | >"]) == 3


@pytest.mark.parametrize("argv", [
    ["verify", "--bogus"],
    ["verify", "-p", "<a|a^2>", "--guard", "abc"],
    [],
    ["parse", "-p", "< a | a^2 >", "--radius", "3"],
], ids=["unknown-flag", "non-integer", "no-command", "unread-flag"])
def test_argument_errors_are_usage_errors(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--guard" in capsys.readouterr().out


# -- fuzzing the argument grammar ------------------------------------------------

READS = {"parse": (), "double": ("witness", "max-cosets"),
         "realize": ("witness", "max-cosets"),
         "verify": ("max-cosets", "guard"), "engel": ("max-cosets", "guard"),
         "modules": ("max-cosets", "guard"),
         "wp": ("witness", "max-cosets", "budget"),
         "growth": ("witness", "max-cosets", "radius"), "area": ()}
VALID = {"witness": ["all", "len:2"], "max-cosets": ["100", "500"],
         "guard": ["50", "1000"], "budget": ["5", "500"], "radius": ["0", "3"]}
INVALID = ["0", "-1", "abc", "len:x"]
OWN = {"realize": [[], ["--double"], ["--double", "--strategy", "felsch"]],
       "wp": [["--word", "a*a~"], ["--word", "[a,a~]", "--word", "b"]],
       "growth": [[], ["--double"]],
       "area": [["--grid", "2"], ["--min-search", "[a,b]", "--max-area", "1",
                                  "--max-radius", "1"], ["--check", "missing.json"],
                []]}
PRESENTATIONS = [None, "< a | a^2 >", "< a, b | a^2, b^2, (a*b)^3 >", "< a | >",
                 "< a | a^2"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(READS)))
    argv = [command]
    pres = draw(st.sampled_from(PRESENTATIONS))
    if pres is not None:
        argv += ["-p", pres]
    argv += draw(st.sampled_from(OWN.get(command, [[]])))
    # mostly flags the command reads, with valid values; sometimes any subset
    reads = st.sets(st.sampled_from(READS[command])) if READS[command] \
        else st.just(set())
    flags = sorted(draw(st.one_of(reads, reads, reads,
                                  st.sets(st.sampled_from(sorted(VALID))))))
    for flag in flags:
        values = INVALID if draw(st.integers(0, 3)) == 0 else VALID[flag]
        argv += [f"--{flag}", draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv += ["--json", "-"]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    non_integer = any(v in ("abc", "len:x") for f, v in zip(argv, argv[1:])
                      if f in ("--max-cosets", "--guard", "--budget", "--radius"))
    misuse = "--bogus" in argv or non_integer or \
        any(flag not in READS[command] for flag in flags)
    return argv, misuse


@pytest.fixture(scope="module")
def small_limits(tmp_path_factory):
    """A config that keeps the default limits small, so every run is quick."""
    path = tmp_path_factory.mktemp("fuzz") / "limits.json"
    path.write_text(json.dumps({"max_cosets": 500, "radius": 3}))
    return str(path)


@settings(max_examples=100, deadline=None)
@given(case=argvs())
def test_every_argv_ends_in_a_documented_exit_code(small_limits, case):
    argv, misuse = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", small_limits] + argv)
    assert code in {0, 1, 2, 3, 4}, argv
    assert "Traceback" not in err.getvalue()
    if misuse:
        assert code == 3, (argv, err.getvalue())
