"""Layout guards: src/glad/ holds only code that src/glad/ itself uses, and
tests/oracles.py only references that some test uses."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glad"
TESTS = ROOT / "tests"


def public_definitions(path: pathlib.Path) -> set:
    """Public module-level functions and classes of one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def names_used(paths) -> set:
    """Every name and attribute named in the code of the given files; an
    import alone does not count."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_in_src():
    """Each public module-level function or class of src/glad/ is named
    somewhere in src/glad/ besides its own definition; code only tests call
    belongs in tests/."""
    paths = sorted(SRC.glob("*.py"))
    defined = {name: path.name for path in paths for name in public_definitions(path)}
    assert defined, f"no modules found in {SRC}"
    used = names_used(paths)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used)
    assert unused == []


def test_every_oracle_is_used_by_a_test():
    """Each public function or class of tests/oracles.py is named by some
    tests/test_*.py; an oracle that no test calls checks nothing."""
    defined = public_definitions(TESTS / "oracles.py")
    assert defined
    assert sorted(defined - names_used(TESTS.glob("test_*.py"))) == []
