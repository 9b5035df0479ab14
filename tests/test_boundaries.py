"""Each lftcipher module uses only the public names of the others, and every
name the package exports resolves."""

import ast
from pathlib import Path

import pytest

import lftcipher

SRC = Path(lftcipher.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Every `_`-prefixed name that the module source imports from, or reads
    off, another lftcipher module."""
    tree = ast.parse(source)
    modules = set()  # local names bound to lftcipher modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "lftcipher"
            if not ours:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif node.module in (None, "lftcipher"):  # from . import gf2n
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_reads(path):
    assert private_reads(path.read_text()) == []


def test_detects_both_forms():
    source = (
        "from . import gf2n, lorenz\n"
        "from .gf2n import BinaryPoly, _moduli\n"
        "from lftcipher.sbox import _lft_table\n"
        "x = lorenz._load_kernel()\n"
        "y = gf2n.field(0x11D).__class__\n"
    )
    assert private_reads(source) == [
        "from .gf2n import _moduli",
        "from lftcipher.sbox import _lft_table",
        "lorenz._load_kernel",
    ]


@pytest.mark.parametrize("name", lftcipher.__all__)
def test_every_export_resolves(name):
    assert getattr(lftcipher, name) is not None


def _definitions(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _named(nodes) -> set[str]:
    """Names that the code reads, as Name, Attribute or import-alias nodes."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unreached(modules: dict[str, str], exempt: set[str]) -> list[str]:
    """`module.name` for each module-level definition that no code outside
    its own statement names, and that is neither exempt nor a dunder."""
    stmts = [(mod, stmt) for mod, source in modules.items() for stmt in ast.parse(source).body]
    reads = [_named([stmt]) for _, stmt in stmts]
    found = []
    for i, (mod, stmt) in enumerate(stmts):
        for name in _definitions(stmt):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                found.append(f"{mod}.{name}")
    return sorted(found)


def test_every_src_definition_is_reached():
    # the benchmark's workloads reach some analyses that no CLI path does
    workloads = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    exempt = set(lftcipher.__all__) | set(lftcipher._ANALYSIS)
    exempt |= _named([ast.parse(workloads.read_text())])
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreached(modules, exempt) == []


def test_unreached_reads_nodes_not_text():
    modules = {
        "a": "import numpy as np\nLIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
             "def helper():\n    return helper()\n\nclass Kept:\n    pass\n",
        "b": "from .a import used\nfrom . import a\n\n"
             "def main():\n    '''helper'''\n    return used(), a.Kept\n",
    }
    assert unreached(modules, {"main"}) == ["a.helper"]
