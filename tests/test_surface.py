"""The library surface stays what the command line, demos and benchmark use.

A public top-level function or class in ``src/swingcert`` must be read
somewhere other than its own definition: by another src module (the CLI
included), a demo or the benchmark.  The package root's re-exports do not
count, and neither do tests, so a helper only its own tests reach fails
here.  Every ``sc.<name>`` that a demo or the benchmark reads must resolve
on ``import swingcert``; the benchmark's untraced run never reaches some of
them, so nothing else would notice a dropped re-export.  Conversely, every
name the package root re-exports must be one that a demo or the benchmark
reads as ``sc.<name>``.
"""

import ast
from pathlib import Path

import swingcert

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swingcert"
CALLERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
CALLERS += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))


def _names_read(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_caller():
    defined = {}  # name -> the file that defines it
    read = set()  # names read anywhere except inside their own definition
    for path in CALLERS:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path.parent == SRC:
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            read |= _names_read(stmt) - {own}
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in read)
    assert not unused, f"public definitions only tests reach: {unused}"


def _package_reads(path: Path):
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "swingcert"}
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            yield chain


def test_demo_and_benchmark_package_reads_resolve():
    missing = []
    for path in CALLERS:
        if path.parent == SRC:
            continue
        for chain in _package_reads(path):
            target = swingcert
            for attr in chain:
                if not hasattr(target, attr):
                    missing.append(f"{path.name}: sc.{'.'.join(chain)}")
                    break
                target = getattr(target, attr)
    assert not missing, missing


def test_every_root_export_is_read_by_a_demo_or_the_benchmark():
    exported = {alias.asname or alias.name
                for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = {chain[0] for path in CALLERS if path.parent != SRC
            for chain in _package_reads(path)}
    unread = sorted(exported - read)
    assert not unread, f"root re-exports no demo or benchmark reads: {unread}"
