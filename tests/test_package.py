import ast
from pathlib import Path

import chanfact


def test_all_lists_every_public_name_imported_in_init():
    tree = ast.parse(Path(chanfact.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(chanfact.__all__) == set()
    assert all(hasattr(chanfact, name) for name in chanfact.__all__)
