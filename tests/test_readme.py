"""Code is named in README.md as `module.name` or `module.Name.attr`, and in
the docstrings and comments of src/qude as ``name`` or ``a.b``: every such
name must exist, so that a rename or a deletion cannot leave the README or
the source pointing at code that is gone."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qude").glob("*.py"))
MODULES = ("cli", "dynamics", "train", "metrics", "models", "tomography", "qcore")
# the whole text between backticks; a pattern such as `cli.cmd_<verb>` is no name
REFERENCE = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*){{1,2}})`")
# the whole text between double backticks, a name or a dotted name; numpy's are skipped
SOURCE_REFERENCE = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def test_readme_references_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    references = sorted(set(REFERENCE.findall(text)))
    assert references
    missing = []
    for reference in references:
        module, *names = reference.split(".")
        obj = importlib.import_module(f"qude.{module}")
        for name in names:
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append(reference)
    assert not missing, f"README.md names code that does not exist: {missing}"


def source_identifiers() -> set[str]:
    """Every identifier src/qude defines or uses: its modules, and each def,
    class, argument, keyword, attribute, import and name, with the string
    constants that are identifiers (verbs, kinds, keys)."""
    names = {path.stem for path in SOURCES}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."), {node.asname} - {None})
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def test_source_references_resolve():
    names = source_identifiers()
    missing = []
    for path in SOURCES:
        for reference in SOURCE_REFERENCE.findall(path.read_text(encoding="utf-8")):
            if not reference.startswith("np.") and not set(reference.split(".")) <= names:
                missing.append(f"{path.name}: {reference}")
    assert not missing, f"src/qude names code that does not exist: {missing}"
