"""Every definition under ``src/repro`` is reached by something other than a test.

A definition counts as reached when its name is referenced by the package
itself, a benchmark, an example, the perfbench harness or a document.
Tests alone do not count: a helper only tests use belongs in ``tests/``.

The definitions checked are top-level functions, classes and UPPERCASE
constants of every module, and the methods of top-level classes; dunders
are exempt.  References are words:

- Python files (``src/``, ``benchmarks/``, ``examples/``, ``perfbench/``)
  contribute every name their code reads and every attribute it touches,
  plus string literals that name attributes: a dotted path anywhere, an
  identifier as a call's second argument (``getattr(obj, "name")``, and
  perfbench's ``tracer.patch(module, "name", ...)``).  Definition lines,
  assignments, imports, ``__all__`` entries and docstrings are not uses,
  so a package re-export does not reach a name, and neither does a string
  that only happens to spell it (an application named ``"dot_product"``).
- The program's Markdown documents (:data:`DOCS`) contribute the words of
  their code spans and code blocks.  The change log and the roadmap, which
  describe this code's past and plans, and the paper and snippet digests,
  which describe other code, are not read.  A document missing from
  :data:`DOCS` can only make the check stricter.

Words do not see which class a method belongs to, so a method counts as
reached when any class's member of that name is used: the check can miss
dead code, never flag live code.
"""

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
#: Directories of Python files that reach the package (besides ``src/``).
USERS = ("benchmarks", "examples", "perfbench")
#: Markdown documents of the program, relative to the repository root.
DOCS = (
    "README.md", "ARCHITECTURE.md", "OBSERVABILITY.md", "PERFORMANCE.md",
    "RECONFIGURATION.md", "RESILIENCE.md", "SERVICE.md", "perfbench/README.md",
)
#: Qualified names of definitions that no word in the tree names but that
#: run anyway (say, a hook a framework calls), each with its reason.
ALLOWED = {}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree):
    """Ids of the string constants that are docstrings."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def _all_entries(tree):
    """Ids of the string constants listed in ``__all__``."""
    ids = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return ids


def python_uses(tree):
    """Words a module's code uses: names, attributes and identifier strings."""
    skip = _docstrings(tree) | _all_entries(tree)
    # ``getattr(obj, "name")``, ``patch(module, "name", ...)``: the second
    # argument of a call names an attribute.
    attr_args = {
        id(node.args[1]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and len(node.args) > 1
    }
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            # ``import name as alias`` is a use of ``name`` under another word.
            words.update(a.name for a in node.names if a.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and _DOTTED.fullmatch(node.value)
            and ("." in node.value or id(node) in attr_args)
        ):
            words.update(node.value.split("."))
    return words


def markdown_uses(text):
    """Words in a Markdown file's code spans and code blocks."""
    return {w for span in _CODE.findall(text) for w in _WORD.findall(span)}


def definitions(path, tree):
    """``(qualified name, word)`` for each checked definition of a module."""
    module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((f"{module}.{node.name}", node.name))
        elif isinstance(node, ast.ClassDef):
            found.append((f"{module}.{node.name}", node.name))
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((f"{module}.{node.name}.{member.name}", member.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    found.append((f"{module}.{target.id}", target.id))
    return [(qual, word) for qual, word in found if not _is_dunder(word)]


def unreached():
    """Qualified names of the package's definitions that nothing outside tests uses."""
    words = set()
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        words |= python_uses(tree)
        defined += definitions(path, tree)
    for user in USERS:
        for path in sorted((ROOT / user).rglob("*.py")):
            words |= python_uses(ast.parse(path.read_text(), filename=str(path)))
    for doc in DOCS:
        words |= markdown_uses((ROOT / doc).read_text())
    return sorted(qual for qual, word in defined if word not in words and qual not in ALLOWED)


def test_every_definition_is_reached_outside_tests():
    assert (ROOT / "perfbench").is_dir() and (ROOT / "benchmarks").is_dir()
    assert all(reason.strip() for reason in ALLOWED.values()), "an allowlist entry gives no reason"
    missing = unreached()
    assert not missing, (
        "definitions only tests reach (delete them, move them into tests/, "
        f"or allowlist them with a reason): {missing}"
    )


def test_scanner_sees_uses_not_definitions_or_exports():
    tree = ast.parse(
        '"""Module doc naming doc_only."""\n'
        "from .m import exported, renamed as alias\n"
        '__all__ = ["exported"]\n'
        "def defined_only():\n"
        '    """Calls nothing."""\n'
        "    return used_name(obj.used_attr, 'patched_name', 'pkg.mod.dotted')\n"
    )
    words = python_uses(tree)
    assert {"used_name", "obj", "used_attr", "patched_name", "dotted", "renamed"} <= words
    assert not {"doc_only", "exported", "defined_only", "Calls"} & words
    assert markdown_uses("the word call, and `policy.retry` in code\n") == {"policy", "retry"}
