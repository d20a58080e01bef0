"""The package's export list: what __init__.py imports from its submodules."""

import ast
from pathlib import Path

import laurentfft


def _imported_names() -> list[str]:
    """The public names __init__.py binds by relative imports of its submodules."""
    tree = ast.parse(Path(laurentfft.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if not (alias.asname or alias.name).startswith("_")]


def test_all_is_exactly_the_imported_names():
    # a name removed from a submodule cannot linger in __all__, nor one be
    # imported and left out of it
    assert sorted(laurentfft.__all__) == sorted(_imported_names())


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from laurentfft import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(laurentfft.__all__)
