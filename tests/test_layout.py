"""Layout guards: src/glad/ holds only code that src/glad/ itself or the
benchmark uses, methods and dataclass fields included, every glad option
is read by its command, src/glad/ and tests/ import only names they use,
every name the benchmark imports from glad exists, tests/oracles.py only
references that some test uses, and every exception type src/glad/
defines has an exit code."""

import argparse
import ast
import builtins
import dataclasses
import importlib
import inspect
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glad"
TESTS = ROOT / "tests"
BENCH = ROOT / "perfbench"


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def module_definitions(path: pathlib.Path, private_functions: bool = False) -> set:
    """Public module-level functions and classes of one file, and with
    private_functions its private module-level functions too."""
    tree = parse(path)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in tree.body
            if isinstance(node, (*functions, ast.ClassDef))
            and (not node.name.startswith("_")
                 or private_functions and isinstance(node, functions))}


def name_counts(trees) -> Counter:
    """How often each name and attribute is named in the given syntax
    trees; an import or a definition alone does not count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def attribute_reads(nodes) -> Counter:
    """How often each name is read as an attribute, or given as a string
    (as the keys of a getattr loop are), among the syntax nodes."""
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.value
                   for node in nodes
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Constant) and isinstance(node.value, str))


def names_used(paths) -> set:
    """Every name and attribute named in the code of the given files."""
    return set(name_counts(map(parse, paths)))


def glad_imports(paths) -> list:
    """(module, name) of every `from glad... import name` in the files."""
    return [(node.module, alias.name) for path in paths
            for node in ast.walk(parse(path))
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


def test_every_method_of_a_public_class_is_used_in_src():
    """Each method of a public class of src/glad/ is named somewhere in
    src/glad/ besides its own definition, unless Python calls it (a dunder
    such as __post_init__) or it overrides a base-class method (such as
    CliParser.error); a method only tests call belongs in tests/."""
    trees = {path: parse(path) for path in sorted(SRC.glob("*.py"))}
    used = name_counts(trees.values())
    methods, unused = 0, []
    for path, tree in trees.items():
        module = importlib.import_module(f"glad.{path.stem}")
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            bases = getattr(module, cls.name).__mro__[1:]
            for fn in cls.body:
                if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or fn.name.startswith("__") and fn.name.endswith("__")
                        or any(hasattr(base, fn.name) for base in bases)):
                    continue
                methods += 1
                if used[fn.name] == name_counts([fn])[fn.name]:
                    unused.append(f"{path.name}:{cls.name}.{fn.name}")
    assert methods > 3
    assert unused == []


def test_every_dataclass_field_is_read_in_src():
    """Each field of a dataclass of src/glad/ is read somewhere in src/glad/
    outside its own class's __post_init__, as an attribute or as a string
    (the keys of a getattr loop); a field that is only checked is a knob
    that does nothing. Names are counted, not types: a field is read when
    any attribute of its name is."""
    trees = {path: parse(path) for path in sorted(SRC.glob("*.py"))}
    reads = attribute_reads(node for tree in trees.values() for node in ast.walk(tree))
    fields, unread = 0, []
    for path, tree in trees.items():
        module = importlib.import_module(f"glad.{path.stem}")
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and dataclasses.is_dataclass(getattr(module, cls.name))):
                continue
            own = attribute_reads(node for fn in cls.body if isinstance(fn, ast.FunctionDef)
                                  and fn.name == "__post_init__" for node in ast.walk(fn))
            for f in dataclasses.fields(getattr(module, cls.name)):
                fields += 1
                if reads[f.name] == own[f.name]:
                    unread.append(f"{path.name}:{cls.name}.{f.name}")
    assert fields > 3
    assert unread == []


def test_every_cli_option_is_read_by_its_command():
    """Each option and argument of a glad subcommand is read as
    `args.<dest>` in the function its parser dispatches to; an option that
    command never reads is a setting that changes no run."""
    from glad import cli
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    unread = []
    for command, parser in commands.items():
        func = parser.get_default("func")
        reads = {node.attr for node in ast.walk(ast.parse(inspect.getsource(func)))
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "args"}
        unread += [f"{command}: {action.dest}" for action in parser._actions
                   if not isinstance(action, argparse._HelpAction) and action.dest not in reads]
    assert len(commands) == 5
    assert unread == []


def test_every_import_in_src_is_used():
    """Each name a src/glad/ or tests/ module imports is named again in that
    module, so an import of deleted or moved code cannot linger. Only a bare
    name uses an import (`x.copy()` does not use `import copy`); __future__
    imports are directives, not names."""
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = parse(path)
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        bare = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{name}" for name in sorted(imported - bare)]
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


def test_every_exception_type_has_an_exit_code():
    """Each exception class a src/glad/ module defines is a subclass of a
    type that an except clause of cli.main catches, so none of them can
    escape the exit-code contract as a traceback."""
    from glad import cli
    tree = parse(SRC / "cli.py")
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught += [getattr(cli, t.id, None) or getattr(builtins, t.id) for t in types]
    defined = [cls for path in sorted(SRC.glob("*.py"))
               for _, cls in inspect.getmembers(importlib.import_module(f"glad.{path.stem}"),
                                                inspect.isclass)
               if cls.__module__ == f"glad.{path.stem}" and issubclass(cls, BaseException)]
    assert {"UsageError", "DatasetError", "NumericError"} <= {cls.__name__ for cls in defined}
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, tuple(caught))] == []
