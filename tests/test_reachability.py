"""Reachability guard: no definition in ``src/`` that only tests use.

Every ``def`` and ``class`` name under ``src/`` must be referenced
from code that runs outside the test suite: ``src/``, ``tools/``,
``bench/``, ``benchmarks/`` or ``examples/``.  A reference is any
identifier in that code — a name, an attribute, an import, a keyword
argument, or an identifier inside a string literal (``getattr`` names,
``__all__`` entries, the benchmark's ``"Class.method"`` boundaries).
Docstrings do not count: documenting a function is not calling it.

The scan works on names, so a dead definition that shares its name
with a live one passes; it catches what is certainly unreferenced.
A definition that only tests call is either deleted with its tests or
listed in :data:`ALLOWED` with the reason it stays.  Adding to the
list loosens the guard and needs a CHANGES.md entry.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Trees whose code counts as a reference.
SCANNED = ("src", "tools", "bench", "benchmarks", "examples")

#: Unreferenced definitions that stay, by name, each with its reason.
ALLOWED = {
    "chain_ids": (
        "FleetConfig.chain_ids: tests/test_run_identity.py pins every "
        "chain id through it, and that file stays byte-unchanged"
    ),
    "decode": (
        "LabelStackEntry.decode: the RFC 3032 round-trip tests use it; "
        "its deletion takes two tests (ROADMAP item 9)"
    ),
    "containing": (
        "Prefix.containing: the addressing tests build prefixes with "
        "it; its deletion takes two tests (ROADMAP item 9)"
    ),
    "num_addresses": (
        "Prefix.num_addresses: its deletion takes one addressing test "
        "(ROADMAP item 9)"
    ),
    "shortest_path": (
        "IgpRouting.shortest_path: the IGP tests check next hops and "
        "distances against it (ROADMAP item 9)"
    ),
    "stddev": (
        "Distribution.stddev: its deletion takes one test "
        "(ROADMAP item 9)"
    ),
    "dominant_vendor": (
        "TransitProfile.dominant_vendor: its deletion takes one test "
        "(ROADMAP item 9)"
    ),
    "reset": (
        "MetricsRegistry.reset: its deletion takes one test "
        "(ROADMAP item 9)"
    ),
    "annotate": (
        "Span.annotate and its null twin: its deletion takes one "
        "tracer test (ROADMAP item 9)"
    ),
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_ids(tree):
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                found.add(id(first.value))
    return found


def _scan():
    """``(references, definitions)`` over :data:`SCANNED`.

    ``definitions`` maps each non-dunder ``src/`` def/class name to
    the ``path:line`` places that define it.
    """
    references = set()
    definitions = {}
    for tree_name in SCANNED:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = _docstring_ids(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    references.add(node.id)
                elif isinstance(node, ast.Attribute):
                    references.add(node.attr)
                elif isinstance(node, ast.alias):
                    references.update(node.name.split("."))
                elif isinstance(node, ast.keyword) and node.arg:
                    references.add(node.arg)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    references.update(_WORD.findall(node.value))
                elif (
                    tree_name == "src"
                    and isinstance(node, _DEFS)
                    and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")
                    )
                ):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    definitions.setdefault(node.name, []).append(where)
    return references, definitions


def test_every_definition_is_reachable_outside_the_tests():
    references, definitions = _scan()
    unreferenced = {
        name: places
        for name, places in definitions.items()
        if name not in references
    }
    new = {
        name: places
        for name, places in unreferenced.items()
        if name not in ALLOWED
    }
    assert not new, (
        "definitions no code outside tests/ references (delete them "
        f"with their tests, or allowlist them with a reason): {new}"
    )
    stale = sorted(set(ALLOWED) - set(unreferenced))
    assert not stale, (
        f"allowlisted names that are now referenced or gone: {stale}"
    )
