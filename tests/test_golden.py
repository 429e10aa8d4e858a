"""Pinned report digests: the sha256 of stdout, stderr and the exit code of
in-process CLI runs, on the structure suite and a few larger bases, on each
word-problem stage, and on the growth, area, realize, double and parse
commands.  A refactor that claims identical outputs must leave every digest
as it is.

The table is rewritten only from a trusted commit, never to make a change
pass: run ``python -m tests.test_golden`` there, with ``src`` on the path,
and paste its output over ``DIGESTS``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from weakcomm.cli import main
from weakcomm.isoperimetry import grid_certificate

BASES = {
    "C2": "< a | a^2 >",
    "C3": "< a | a^3 >",
    "C2xC2": "< a, b | a^2, b^2, [a, b] >",
    "C4": "< a | a^4 >",
    "S3": "< a, b | a^2, b^2, (a*b)^3 >",
    "D4": "< r, s | r^4, s^2, (r*s)^2 >",
    "Q8": "< a, b | a^4, b^2*a^-2, b^-1*a*b*a >",
    "D5": "< r, s | r^5, s^2, (r*s)^2 >",
    "C2xC4": "< a, b | a^2, b^4, [a, b] >",
    "A4": "< a, b | a^2, b^3, (a*b)^3 >",
    "D8": "< r, s | r^8, s^2, (r*s)^2 >",
    "S4": "< a, b | a^2, b^3, (a*b)^4 >",
    "SL23": "< a, b | a^3*b^-3, a^3*(a*b)^-2 >",
}
GRID = "< a, b | [a, b] >"
CERT = "{cert}"     # replaced by the path of a grid certificate file

CASES = {
    **{f"{cmd}:{name}": [cmd, "-p", text, "--json", "-"]
       for cmd in ("verify", "engel", "modules") for name, text in BASES.items()},
    "verify-guard-50:S3": ["verify", "-p", BASES["S3"], "--guard", "50"],
    "wp-trivial:S3": ["wp", "-p", BASES["S3"], "--word", "a*a^-1", "--json", "-"],
    "wp-stage1:S3": ["wp", "-p", BASES["S3"], "--word", "a*b~", "--json", "-"],
    "wp-stage2:C2xC2": ["wp", "-p", BASES["C2xC2"], "--word", "[a,b~]",
                        "--json", "-"],
    "wp-coset-quotient:A4": ["wp", "-p", BASES["A4"], "--word",
                             "a^-1*b*a^-1*b^-1*a^-1*a~*b*a*b^-1*a~", "--json", "-"],
    "wp-symmetric-image:F2": ["wp", "-p", "< a, b | >", "--witness", "len:1",
                              "--word", "[a*b, a~*b~]", "--json", "-"],
    "wp-base-oracle:C2": ["wp", "-p", BASES["C2"], "--witness", "len:1",
                          "--word", "a*a~", "--word", "[a, a~]", "--json", "-"],
    "growth:F2": ["growth", "-p", "< a, b | >", "--json", "-"],
    "growth:X(Z)": ["growth", "-p", "< a | >", "--double", "--json", "-"],
    "growth:X(S3)": ["growth", "-p", BASES["S3"], "--double", "--json", "-"],
    **{f"area-grid:{n}": ["area", "--grid", str(n), "--json", "-"]
       for n in range(1, 13)},
    "area-check:grid-4": ["area", "-p", GRID, "--check", CERT, "--json", "-"],
    "area-min-search": ["area", "--min-search", "[a^2, b^2]"],
    **{f"realize-{s}:{name}": ["realize", "-p", BASES[name], "--double",
                               "--strategy", s, "--json", "-"]
       for s in ("hlt", "felsch") for name in ("S3", "D4")},
    "double:S3": ["double", "-p", BASES["S3"], "--json", "-"],
    "double:Z": ["double", "-p", "< a | >", "--json", "-"],
    "double-overflow:A5": ["double", "-p", "< a, b | a^2, b^3, (a*b)^5 >",
                           "--max-cosets", "30", "--json", "-"],
    "parse:S3": ["parse", "-p", BASES["S3"], "--json", "-"],
    "parse:Z2": ["parse", "-p", "< a, b | [a, b] >", "--json", "-"],
}

DIGESTS = {
    'verify:C2': '712c6b307fc574213212d776398bfa06b3a2262c7f9e6fade2637fb75ebe6e2f',
    'verify:C3': 'a4b395b7f34435ce61f19beb95a9f71f8c431d78324a83f472ed2aa1109b7e8e',
    'verify:C2xC2': '151b6be395adde0aeeff937d78a0acd738fd2aca3db7f2d9db321b8fa220b542',
    'verify:C4': '5eb1c16fb56623b51342107d39a2e2b1560e092ecace01cba8e2ad08d879db23',
    'verify:S3': 'ac76c5f2853792ea0b63168d062b1e7408f77564f8d2540c9c216790bfdc2ff6',
    'verify:D4': '5b3f940c4ccfedc391be067833e84da965fa129ba78868027f6c69e76f837aa4',
    'verify:Q8': 'cc9e67f9330b62ba95988bfc6b2785eeb2c496a632b224beb336650061db816c',
    'verify:D5': '605ac68023b98ad25b426303ad0bf6ef175b5b702b8366fd232239a48dfcc6da',
    'verify:C2xC4': 'c57ef25d994f08934630e6c7b00c5bd295edb075568875be9771b7757811914c',
    'verify:A4': 'f57ff4b608220e314feb53d09f6b71c0b1bfb58fb013775969b12ba4b3430232',
    'verify:D8': 'de5c1b58728c439d73709b6391e0a304b280da81a21f1e1f35195cb16107e074',
    'verify:S4': 'b3f62d5a06cb9a9231712f85024e79985de44ae88f9d6922fa2e07ee6cd335d7',
    'verify:SL23': 'd0e184641304f10a2092886d33216cb67bf3531d6016bacc071a49a79566285a',
    'engel:C2': '4c884b3c94f6cee30573b17aec5a81a328123cf4316ce2dd481d55c124b7fac8',
    'engel:C3': '88b76e470af948a9d05267c1afa4e414828d30079dba190f4040728c46c7aa6d',
    'engel:C2xC2': '68eba04127827ef8f928972a7d632aaf42648acf34d09cb39255b8f1dcce2449',
    'engel:C4': 'ff4cc87e59194801f5f8fa32484f8ed915a3ca96f4ef1602221daa23df210347',
    'engel:S3': '5e03dab8f814fd054b907628695350e446c7c036161a860d6f4a4a0bb27b8eb0',
    'engel:D4': 'bcfa720fa7288083012b75365a1617b917cc5a926cfb746d3bb45dba1f5dd91c',
    'engel:Q8': '2e5fedcf501a70984fb84ee5b860fc81b2d116d6dc93c831dc53a3634fbc4688',
    'engel:D5': '5e03dab8f814fd054b907628695350e446c7c036161a860d6f4a4a0bb27b8eb0',
    'engel:C2xC4': 'f284987c7f2d4decc7c27cf66b228ade0f30d33cce13f46987ac192b77a674ac',
    'engel:A4': '5e03dab8f814fd054b907628695350e446c7c036161a860d6f4a4a0bb27b8eb0',
    'engel:D8': 'e5e29b21deeac90bc326d67d136b43dd47e197b54b087231cd39d8286d4c0474',
    'engel:S4': '5e03dab8f814fd054b907628695350e446c7c036161a860d6f4a4a0bb27b8eb0',
    'engel:SL23': '5e03dab8f814fd054b907628695350e446c7c036161a860d6f4a4a0bb27b8eb0',
    'modules:C2': '418467bfc3918d6c3516555e9a6f104ebe275fc9326086234298f5735633ef72',
    'modules:C3': '3858f93fdcf68efaf58ff31762031d2e90581284204e089f1ffbd762659762af',
    'modules:C2xC2': '35a1cfac0e50286183c3530be5da3af961f81b02f3052288e7285c0483294436',
    'modules:C4': '61d64719ff88919ccc07654fa7f7c95d92773c9f3a1777f7d1bd3e85113645e0',
    'modules:S3': 'dbf8b5b77bbe0d595879e7959ac451e204ed29dcbf87591332503f766784f89e',
    'modules:D4': 'd4de4670a2c6f7e8207e8013f055a3bf0897a7551b6cc54bc8ed6bf454844c79',
    'modules:Q8': '5510c61e70e2dd1afb02b93380c6e898c39ddc3daa536e4cba74f481fc260353',
    'modules:D5': '1fb14b01e101be22b95b45cae99323db946d2e7b7b748901b5c2d2032bc18d8c',
    'modules:C2xC4': '00e82ed7018f182c15d05f4b27eddf4d910fdbd99611008834ec1da0334831f1',
    'modules:A4': 'fd1a0c1f1ea01bc0c8042cc9f1c473169d1a4507490b0c84aa4b6e5c8c88a340',
    'modules:D8': '604368df4d51d9cd950e13296d9e6da9b4515534d98352d307928c9df802c5a5',
    'modules:S4': 'ec033e7bd19147a392612e65f7569a5bccbcf2cfcaeb9ef87afb274ef99ffb42',
    'modules:SL23': '4351a33d4a61d0fd647706a32a8f3353e3999618094fb6c990cd2c06a381ccf6',
    'verify-guard-50:S3': 'f59f31c40b1349b2985fa1e7d8683ac443c6492252a57a58d89da97aab3ef0f5',
    'wp-trivial:S3': '64698c16aa7f8c7588ac29d0e086213ad7a4d50636c141c36d5d523b44d50331',
    'wp-stage1:S3': '83f65a2a42435bab28bb0570930a874ecbf427dc0f12078d10299e3c5339f699',
    'wp-stage2:C2xC2': 'fa4dc20bba8713cfee9573f92e5aafcbb4702613c1478ae2117539b84e7336f3',
    'wp-coset-quotient:A4': 'c30f1b7ac72fdab32a8826ace4f976851aa58d5e97aab95bfcb7cdfd6039bfb7',
    'wp-symmetric-image:F2': '82f52773359697943caac6436d875eb01482b38020001cf318acd4d8a7b3a38b',
    'wp-base-oracle:C2': 'c9ba3b08866d757d657e4e4b16aef67b2ec97d2dc134324276030b4aa451d765',
    'growth:F2': '246a6a3e1da97df8bb5072f4c0c8e4b4342b802ff79de7898071a927d7df8dbc',
    'growth:X(Z)': '86068d825a35f25fd94407902e161d656a51851fa65bfbe8902836dbd1e91440',
    'growth:X(S3)': '782636d6435fd1e35808946ce02375cbc474bcf25584970111129dff959f8ab2',
    'area-grid:1': 'b855aa803578c7a2b5517f4f4f9f9b56a05e38dd460919fb2044867b1af7fd2e',
    'area-grid:2': '22b13679486e28041943f0a2058caf036ef8a4b03db334ee128c3faec14c0193',
    'area-grid:3': '2748bc7c68d5816cab3d0ec72089030760362a2eb0ef68538503b8c12031bb16',
    'area-grid:4': 'd5626326d92201f3e49edc87468a4a85b5ed9ac5a0d98d8eace8473ca7d43bc9',
    'area-grid:5': '47eebdddf8f915cfd82900152e327a52bdfa8c715d6a79a8b2c1a39cb4a4bce8',
    'area-grid:6': '1d10fbed549613f7bc7af8629e6ae13bf69f47b7f1a68da0531fcaade8f240aa',
    'area-grid:7': 'e6325edf806f7d36b17ba0a4d781359adec8bd3af074d0a48071477cd5ea4e03',
    'area-grid:8': '64295b4c515d08d08f872897cafbdeae2c2eaf3ddad57dd3aee73149a34cc1a2',
    'area-grid:9': 'a42d02c5d763cfd74b072e40e0edf41ab5c6fc6cefec3e1b73e99243e1455306',
    'area-grid:10': 'a0734c232ff1818152ebd1f86f82f4765f7f3fd00d136b11db0112ff45969e13',
    'area-grid:11': '915c3d5a9d1f4ca31df584fbc0b1c8a2cc16ca4c234a6d544cfb4b77e7687f93',
    'area-grid:12': '5bdd1e7993e6c8e4dd1b3e7f96f004c5305ca5f6777a113cd2f860263da66f3a',
    'area-check:grid-4': '34880a3867ab67236a298d4e4e8f3e4fae2055165faff03926f7bb4fedb865b7',
    'area-min-search': 'def2e814db4c010675983153164ddd627db8fb62c46e74d7b27e963a25bb9698',
    'realize-hlt:S3': 'b22c82445b5e2002f2337f9c63079b77db651654d1abab1b630bac51e91084ee',
    'realize-hlt:D4': '1ee98a90140933299a6d5dd707a3ddaa0817961518f8c77142571044598be04c',
    'realize-felsch:S3': 'a9505ddd2c2853152350fc384785bd59bfff995b720217496bd630f75a032650',
    'realize-felsch:D4': '07200024efe5219a82b61549c2e9ab1b085965e2f0c9398a6f071e67d3bbe2f7',
    'double:S3': '12c1b2148388c4fc66b76a81ef87dba2099a1542301fa8e4a1c645c50ddb41a2',
    'double:Z': 'b5fdc27633da529548606bcca73bc67806bc784033ebf5326be540d26af38707',
    'double-overflow:A5': '3d5b0a8f1979363a4f015dd42b56f1ece6aef30f7bf3d7ca6398cab8b121a6b4',
    'parse:S3': '80236b523221ea26c8540289c53841171111a1a174d7a2704e22ecd23acb8d49',
    'parse:Z2': '5a38b52d868eed99b3ab3aed8ee051c849391d72391e0d2f7543b18c06b748bc',
}


def digest(argv: list[str], cert_path: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cert_path if a == CERT else a for a in argv])
    doc = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def write_certificate(folder: Path) -> str:
    path = folder / "grid4.json"
    path.write_text(grid_certificate(4).to_json(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return write_certificate(tmp_path_factory.mktemp("golden"))


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest(name, cert_path):
    assert digest(CASES[name], cert_path) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        path = write_certificate(Path(folder))
        sys.stdout.write("DIGESTS = {\n" + "".join(
            f"    {name!r}: {digest(argv, path)!r},\n"
            for name, argv in CASES.items()) + "}\n")
