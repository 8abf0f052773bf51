"""Guard: every definition in ``src/repro`` is reached outside the tests.

A module-level function or class, or a method, counts as reached when
its name appears as an ``ast.Name`` or ``ast.Attribute`` anywhere in
``src/``, ``examples/`` or ``perfbench/`` — the user surfaces (REST app,
CLI, examples) and the benchmark's workloads. A string constant in
``perfbench/`` also counts, because its tracer wraps methods by name.
The definition itself, import aliases and ``__all__`` entries are not
references, and dunder names are exempt. Neither is a name used only
inside a function or method of the same name: a wrapper that delegates
to a same-named method, or a function that calls itself, is not a
caller.

Names are matched bare, so a dead method whose name is reused elsewhere
still passes. Code that only tests call belongs under ``tests/`` or
``benchmarks/`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Definitions kept although nothing in the caller directories names them.
ALLOWLIST = {
    # Documented extension points for third-party detectors and repairers.
    "repro.core.registry.register_detector",
    "repro.core.registry.register_repairer",
    # The io.RawIOBase protocol: TextIOWrapper calls them on an upload body.
    "repro.api.http._RequestBodyStream.readable",
    "repro.api.http._RequestBodyStream.readinto",
    # The in-process client that the tests, bench_serving_load and
    # bench_fault_tolerance drive.
    "repro.api.client.TestClient",
    "repro.api.client.TestClient.post_csv",
    # Tests read it to prove that faults fired, until fault counters move
    # into one metrics registry.
    "repro.core.faults.fault_stats",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.AST, prefix: str) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of each function, class and method.

    Function bodies are not entered: a nested helper is part of the
    function that holds it.
    """
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFINITIONS):
            qualified = f"{prefix}.{node.name}"
            found.append((qualified, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(_definitions(node, qualified))
        else:
            found.extend(_definitions(node, prefix))
    return found


def _references(
    tree: ast.AST, strings: bool, enclosing: frozenset[str] = frozenset()
) -> set[str]:
    """Names used in ``tree``, except inside a function of the same name.

    ``enclosing`` holds the names of the functions around ``tree``.
    """
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _references(node, strings, enclosing | {node.name})
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
        ):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            names.add(name)
        names |= _references(node, strings, enclosing)
    return names


def scan(
    modules: dict[str, str], callers: Iterable[tuple[str, bool]]
) -> tuple[int, list[str]]:
    """Count the definitions in ``modules`` and list the unreferenced ones.

    ``modules`` maps a dotted module name to its source. ``callers``
    yields ``(source, strings)`` pairs; ``strings`` makes the source's
    string constants count as references too.
    """
    referenced: set[str] = set()
    for source, strings in callers:
        referenced |= _references(ast.parse(source), strings)
    visited = 0
    dead = []
    for module, source in modules.items():
        for qualified, name in _definitions(ast.parse(source), module):
            visited += 1
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in referenced:
                dead.append(qualified)
    return visited, sorted(dead)


def _program_modules() -> dict[str, str]:
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path.read_text(encoding="utf-8")
    return modules


def _caller_sources() -> list[tuple[str, bool]]:
    return [
        (path.read_text(encoding="utf-8"), directory == "perfbench")
        for directory in ("src", "examples", "perfbench")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]


def test_every_definition_is_reached():
    visited, dead = scan(_program_modules(), _caller_sources())
    # A wrong root would scan nothing and pass.
    assert visited > 900
    assert [name for name in dead if name not in ALLOWLIST] == []
    # An entry that gained a caller or lost its definition is stale.
    assert sorted(ALLOWLIST - set(dead)) == []


def test_scan_reads_every_caller_directory():
    # Each directory must contribute sources, or its callers stop counting.
    for directory in ("src", "examples", "perfbench"):
        assert list((ROOT / directory).rglob("*.py")), directory


def test_allowlist_entries_carry_comments():
    """Every allowlist entry sits under a comment that gives its reason."""
    source = Path(__file__).read_text(encoding="utf-8")
    block = source.split("ALLOWLIST = {\n", 1)[1].split("\n}\n", 1)[0]
    lines = [line.strip() for line in block.splitlines()]
    entries = [line.strip('",') for line in lines if not line.startswith("#")]
    assert sorted(entries) == sorted(ALLOWLIST)
    # Only comments and literal entries, a comment first: each run of
    # entries follows the comment that explains it.
    assert lines[0].startswith("# ")
    assert all(line.startswith(("# ", '"')) for line in lines)


def test_guard_flags_dead_definitions_only():
    module = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def opened(self): pass\n"
        "    def dead(self): pass\n"
        "if True:\n"
        "    def guarded(): pass\n"
        "class Lens:\n"
        "    def delegate(self): return self.loader.delegate()\n"
        "    def recurse(self): return self.recurse()\n"
        "    def helper(self):\n"
        "        def inner(): return self.recurse()\n"
        "        return inner\n"
    )
    caller = (
        "from m import unused as alias, dead\n"
        "__all__ = ['unused', 'dead', 'guarded']\n"
        "used()\n"
        "Box().opened()\n"
        "Lens().helper()\n"
    )
    visited, dead = scan({"m": module}, [(module, False), (caller, False)])
    assert visited == 11
    # A wrapper that delegates to a same-named method, and a method that
    # calls itself, are not callers; a call from another method is.
    assert dead == ["m.Box.dead", "m.Lens.delegate", "m.guarded", "m.unused"]
    _, dead = scan({"m": module}, [(caller, False), ("wrap('dead')", True)])
    assert "m.Box.dead" not in dead
    _, dead = scan({"m": module}, [(caller, False), ("wrap('dead')", False)])
    assert "m.Box.dead" in dead
