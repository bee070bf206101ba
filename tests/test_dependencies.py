"""Every third-party module imported under ``src/repro`` is declared.

A clean install brings only ``[project].dependencies`` from
``pyproject.toml``; importing anything else breaks ``import repro`` on
a fresh machine.
"""

import ast
import pathlib
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = set()
    for requirement in project.get("dependencies", ()):
        name = requirement
        for stop in "<>=!~[; ":
            name = name.split(stop)[0]
        names.add(name.lower().replace("-", "_"))
    return names


def imported_roots() -> set[str]:
    roots = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return roots


def test_every_third_party_import_is_declared():
    third_party = imported_roots() - set(sys.stdlib_module_names) - {"repro"}
    undeclared = third_party - declared_dependencies()
    assert not undeclared, f"imported but not in pyproject.toml: {sorted(undeclared)}"
