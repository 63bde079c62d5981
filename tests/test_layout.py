"""Layout guard: src/glad/ holds only code that src/glad/ itself uses."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glad"


def test_every_public_name_is_used_in_src():
    """Each public module-level function or class of src/glad/ is named
    somewhere in src/glad/ besides its own definition; code only tests call
    belongs in tests/."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, f"no modules found in {SRC}"
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used)
    assert unused == []
