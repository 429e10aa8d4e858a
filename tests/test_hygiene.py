"""Source hygiene: every name a library module imports is used in it,
every function, class and method it defines has a caller outside the tests,
every name the benchmark tracer wraps exists, and no module reads another
module's private names."""

import ast
import importlib
from pathlib import Path

import pytest

import weakcomm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weakcomm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLER_DIRS = ("src", "scripts", "perfbench")

# definitions with no caller outside the tests, each with its reason; the
# package exports (``weakcomm.__all__``) need no entry
NO_CALLER_NEEDED = {
    "cli._Parser.error": "argparse calls it on a malformed command line",
    "permgroups.PermGroup.center": "a perfbench/tracer.py target",
    "permgroups.PermGroup.is_n_engel": "a perfbench/tracer.py target",
    "permgroups.GroupHom.kernel": "a perfbench/tracer.py target",
    **{f"isoperimetry.{name}": "isoperimetry experiment, verified by "
       "acceptance criteria 8 and 9"
       for name in ("central_transform", "distortion_bracket",
                    "c_n_candidate_l_word", "c_n_letters",
                    "free_commutator_instance", "lifting_to_json",
                    "lifting_from_json", "rho_of_spelling", "pbar_image")},
}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def definitions(path: Path) -> list[str]:
    """Top-level functions and classes, and the methods of the classes,
    as ``module.name`` and ``module.Class.method``; dunder methods are
    called by the language, so they are left out."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(f"{path.stem}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return out


def referenced_names() -> set[str]:
    """Every name and attribute that code outside the tests mentions."""
    names = set()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    referenced = referenced_names() | set(weakcomm.__all__)
    uncalled = [d for path in MODULES for d in definitions(path)
                if d.rsplit(".", 1)[1] not in referenced
                and d not in NO_CALLER_NEEDED]
    assert uncalled == []


def test_every_allowed_definition_exists():
    defined = {d for path in MODULES for d in definitions(path)}
    assert set(NO_CALLER_NEEDED) <= defined


def tracer_targets() -> list[tuple]:
    """``TARGETS`` of ``perfbench/tracer.py``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_exists():
    missing = []
    for layer, owner_name, attr, _ in tracer_targets():
        module = importlib.import_module(f"weakcomm.{layer}")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(".".join(p for p in (layer, owner_name, attr) if p))
    assert missing == []


def private_reads(path: Path) -> list[str]:
    """A relative import of a private name, and a private attribute that the
    module reads but defines nowhere (as a function, class, assignment or
    parameter); dunder names are the language's and are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, (ast.Name, ast.Attribute)) and \
                isinstance(node.ctx, ast.Store):
            defined.add(node.id if isinstance(node, ast.Name) else node.attr)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{path.stem}:{node.lineno} imports {alias.name}"
                      for alias in node.names if private(alias.name)]
        elif isinstance(node, ast.Attribute) and private(node.attr) and \
                node.attr not in defined:
            found.append(f"{path.stem}:{node.lineno} reads .{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert [f for path in MODULES for f in private_reads(path)] == []
