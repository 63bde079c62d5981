"""Layout guards: src/glad/ holds only code that src/glad/ itself or the
benchmark uses and imports only names it uses, every name the benchmark
imports from glad exists, and tests/oracles.py only references that some
test uses."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glad"
TESTS = ROOT / "tests"
BENCH = ROOT / "perfbench"


def module_definitions(path: pathlib.Path, private_functions: bool = False) -> set:
    """Public module-level functions and classes of one file, and with
    private_functions its private module-level functions too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in tree.body
            if isinstance(node, (*functions, ast.ClassDef))
            and (not node.name.startswith("_")
                 or private_functions and isinstance(node, functions))}


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


def glad_imports(paths) -> list:
    """(module, name) of every `from glad... import name` in the files."""
    return [(node.module, alias.name) for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "glad"
            for alias in node.names]


def test_every_public_name_is_used_in_src():
    """Each public module-level function or class of src/glad/, and each
    private module-level function, is named somewhere in src/glad/ besides
    its own definition, or imported by the benchmark under perfbench/; code
    only tests call belongs in tests/."""
    paths = sorted(SRC.glob("*.py"))
    defined = {name: path.name for path in paths
               for name in module_definitions(path, private_functions=True)}
    assert defined, f"no modules found in {SRC}"
    used = names_used(paths) | {name for _, name in glad_imports(BENCH.glob("*.py"))}
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used)
    assert unused == []


def test_every_import_in_src_is_used():
    """Each name a src/glad/ module imports is named again in that module,
    so an import of deleted or moved code cannot linger; __future__
    imports are directives, not names."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        unused += [f"{path.name}:{name}" for name in sorted(imported - names_used([path]))]
    assert unused == []


def test_every_oracle_is_used_by_a_test():
    """Each public function or class of tests/oracles.py is named by some
    tests/test_*.py; an oracle that no test calls checks nothing."""
    defined = module_definitions(TESTS / "oracles.py")
    assert defined
    assert sorted(defined - names_used(TESTS.glob("test_*.py"))) == []


def test_every_name_the_benchmark_imports_exists():
    """Each `from glad... import name` in perfbench/*.py names something
    src/glad/ still has, so a refactor cannot quietly break the benchmark's
    checks; the benchmark imports more than one such name."""
    imports = glad_imports(sorted(BENCH.glob("*.py")))
    assert len(imports) > 1
    missing = [f"{module}:{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
