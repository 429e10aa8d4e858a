import json

import pytest

from weakcomm.cli import main


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


def test_engel_command(capsys):
    assert main(["engel", "-p", "< a,b | a^4, b^2*a^-2, b^-1*a*b*a >"]) == 0
    out = capsys.readouterr().out
    assert "n=2 d=2" in out and "verdict=True" in out


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


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 4, "witness": "len:1"}))
    assert main(["--config", str(cfg), "growth", "-p", "<a|>", "--double"]) == 0
    out = capsys.readouterr().out
    assert "[1, 5, 13, 25, 41]" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["--config", str(bad), "parse", "-p", "< a | >"]) == 3
