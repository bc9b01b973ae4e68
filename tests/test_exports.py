"""The package namespace: __all__ names every public object exactly once,
and every one of them is used by the library, a demo or the benchmark."""

import ast
import types
from pathlib import Path

import redeiperm

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name_once():
    public = {name for name, value in vars(redeiperm).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(redeiperm.__all__) == len(set(redeiperm.__all__))
    assert set(redeiperm.__all__) == public | {"__version__"}
    assert redeiperm.__version__


def _names_read(path: Path) -> set[str]:
    """Names a file reads, imports or reaches as attributes; a definition
    (def, class, assignment target) is not a use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_outside_the_tests():
    files = [path for path in (ROOT / "src" / "redeiperm").glob("*.py")
             if path.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*map(_names_read, files))
    unused = sorted(set(redeiperm.__all__) - used - {"__version__"})
    assert unused == []
