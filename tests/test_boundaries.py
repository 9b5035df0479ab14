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
