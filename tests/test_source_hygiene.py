"""Every module-level name of ride is read somewhere: an import or an
assignment nobody reads is dead code that a reader still has to follow."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ride"
EXEMPT = {"__version__"}


def _defined(module: ast.Module) -> list[str]:
    """The names a module's top-level imports and assignments bind."""
    names = []
    for stmt in module.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in stmt.names]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n not in EXEMPT]


def _reads(module: ast.Module) -> tuple[set[str], set[tuple[str, str]]]:
    """The bare names a module loads, and its (module, NAME) attribute reads."""
    names, attributes = set(), set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attributes.add((node.value.id, node.attr))
    return names, attributes


def test_every_module_level_import_and_assignment_is_read():
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(SRC.glob("*.py"))}
    assert "flow_embedder" in modules and "cli" in modules
    reads = {name: _reads(module) for name, module in modules.items()}
    unread = [f"{name}.{defined}" for name, module in modules.items()
              for defined in _defined(module)
              if defined not in reads[name][0]
              and not any((name, defined) in attributes
                          for other, (_, attributes) in reads.items() if other != name)]
    assert not unread, f"module-level names nobody reads: {unread}"
