"""The tolerance policy lives in chanfact.linalg.

Every numerical decision goes through ``Tolerance.close`` or a rank rule of
``linalg``, so no other module reads the tolerance fields or holds a
threshold of its own. The command line may read the fields of
``DEFAULT_TOL`` for its flag defaults and construct a ``Tolerance``.
"""

import ast
from pathlib import Path

import chanfact

SRC = Path(chanfact.__file__).parent
FIELDS = {"abs_tol", "rel_rank_tol"}
# exact domain bounds such as a mixing weight in (0, 1), not tolerances
BOUNDS = {0.0, 1.0}


def modules():
    """(file name, syntax tree) of every module but linalg."""
    found = [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
    ]
    assert {"channel.py", "cli.py", "factorization.py", "jsonio.py", "lmi.py", "schur.py"} <= {
        name for name, _ in found
    }
    return found


def is_named(node, name):
    return isinstance(node, ast.Name) and node.id == name


def threshold_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value not in BOUNDS


def test_only_linalg_reads_the_tolerance_fields():
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in FIELDS:
                if not (name == "cli.py" and is_named(node.value, "DEFAULT_TOL")):
                    offenders.append(f"{name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.Call) and any(kw.arg in FIELDS for kw in node.keywords):
                if not (name == "cli.py" and is_named(node.func, "Tolerance")):
                    offenders.append(f"{name}:{node.lineno} passes a tolerance field")
            elif isinstance(node, ast.Constant) and node.value in FIELDS:
                offenders.append(f"{name}:{node.lineno} names {node.value!r}")
    assert not offenders


def test_no_module_but_linalg_holds_a_threshold_literal():
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                if any(map(threshold_literal, [node.left, *node.comparators])):
                    offenders.append(f"{name}:{node.lineno} compares against a literal")
            elif isinstance(node, ast.arguments):
                if any(map(threshold_literal, node.defaults + node.kw_defaults)):
                    offenders.append(f"{name}:{node.lineno} has a literal default")
        for node in tree.body:
            if isinstance(node, ast.Assign) and threshold_literal(node.value):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                # FactorAlgebra has no Tolerance to read; its weight-sum check keeps its own
                if (name, targets) != ("factorization.py", ["WEIGHT_SUM_TOL"]):
                    offenders.append(f"{name}:{node.lineno} binds {targets} to a literal")
    assert not offenders


def test_the_scan_sees_a_literal_threshold():
    tree = ast.parse("def f(x, tol):\n    return x.abs_tol, x <= 1e-12, -1e-9 < x, 0.0 < x < 1.0\n")
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    flagged = [any(map(threshold_literal, [c.left, *c.comparators])) for c in compares]
    assert flagged == [True, True, False]


def test_jsonio_leaves_validity_decisions_to_the_library():
    # jsonio checks the format; the Hermitian test, algebra weights and shapes are
    # decided where the library decides them, so jsonio holds no norm or threshold
    offenders = []
    for node in ast.walk(dict(modules())["jsonio.py"]):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in {"frob", "WEIGHT_SUM_TOL"}:
            offenders.append(f"jsonio.py:{node.lineno} names {name}")
        elif name == "norm" and getattr(getattr(node, "value", None), "attr", None) == "linalg":
            offenders.append(f"jsonio.py:{node.lineno} takes np.linalg.norm")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "close":
            offenders.append(f"jsonio.py:{node.lineno} calls .close(")
    assert not offenders
