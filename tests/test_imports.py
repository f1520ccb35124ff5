"""Every name a module of the package imports is used in that module, and
every module-level private name is read somewhere in the package.  A CLI
call imports neither `dataclasses` nor the `inspect` it pulls in.  Each value
is built in one step: no class defines `__post_init__`, and only `record.py`
writes fields with `object.__setattr__`.

`__init__.py` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import README_MAP, python

SRC = Path(__file__).resolve().parent.parent / "src" / "tropmaps"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by the import statements of `source` that no other
    expression in it reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_unused_names():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from .rational import format_rational as fmt, parse_rational\n"
              "def f(x: Fraction) -> str:\n"
              "    return fmt(json.dumps(x))\n")
    assert unused_imports(source) == [(2, "os"), (3, "parse_rational")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _reads(tree):
    """Every name a tree reads: loaded names, attribute names and the names
    a from-import takes from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_private_names(sources):
    """(module, line, name) for each private function, class or assignment at
    the top level of a module in `sources` ({module: source}) that no other
    statement of any module reads."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    own = [Counter(_reads(stmt)) for _, stmt in statements]
    total = sum(own, Counter())
    unread = []
    for (module, stmt), reads in zip(statements, own):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names = [n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)]
        else:
            continue
        unread += [(module, stmt.lineno, name) for name in names
                   if _is_private(name) and total[name] == reads[name]]
    return sorted(unread)


def test_detects_unread_private_names():
    sources = {
        "a": ("_read = 1\n"
              "_unread, public = 2, 3\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1)\n"
              "class _Attr:\n"
              "    _own = _read\n"
              "__dunder__ = 4\n"),
        "b": ("from .a import _read\n"
              "import a\n"
              "x = a._Attr\n"),
    }
    assert unread_private_names(sources) == [("a", 2, "_unread"), ("a", 3, "_recursive")]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def second_writes(sources):
    """(module, line, what) for each `__post_init__` a class in `sources`
    ({module: source}) defines and each `object.__setattr__` outside record.py."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                found += [(module, f.lineno, "__post_init__") for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"
                  and module != "record.py"):
                found.append((module, node.lineno, "object.__setattr__"))
    return sorted(found)


def test_detects_second_writes():
    source = ("class P:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "def __post_init__():\n"
              "    pass\n")
    assert second_writes({"a.py": source, "record.py": source}) == [
        ("a.py", 2, "__post_init__"), ("a.py", 3, "object.__setattr__"),
        ("record.py", 2, "__post_init__")]


def test_each_value_is_built_in_one_step():
    assert second_writes({p.name: p.read_text() for p in SOURCES}) == []


def test_a_cli_call_imports_no_dataclasses():
    code = ("import sys\n"
            "from tropmaps import cli\n"
            "cli.main(['eval', '-', '--at', '1/2', '--json'])\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    # -S: no site start-up, so only what tropmaps and the call import counts
    with python(["-S", "-c", code]) as proc:
        out, _ = proc.communicate(json.dumps(README_MAP).encode())
    assert (proc.returncode, out.decode().splitlines()) == (0, ['{"value": "2"}', "[]"])


def test_every_file_parses_as_python_3_10():
    """The grammar of the oldest Python the project supports.  ast.parse
    checks feature_version on a best-effort basis, and it does not check
    the standard library API at all: a 3.11-only function still passes."""
    root = SRC.parent.parent
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
