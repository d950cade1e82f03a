"""README.md names code as `module.name` or `module.Name.attr`: every such
name must exist, so that a rename or a deletion cannot leave the README
pointing at code that is gone."""

import importlib
import re
from pathlib import Path

MODULES = ("cli", "dynamics", "train", "metrics", "models", "tomography", "qcore")
# the whole text between backticks; a pattern such as `cli.cmd_<verb>` is no name
REFERENCE = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*){{1,2}})`")


def test_readme_references_resolve():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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
