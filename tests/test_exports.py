"""The package namespace: __all__ names every public object exactly once,
and every one of them, and every public name defined on an exported class,
is used by the library, a demo or the benchmark."""

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


def _names_read(path: Path, bare: bool = True, own: bool = True) -> set[str]:
    """Names a file imports or reads as attributes, and with bare also the
    bare names it reads; a definition (def, class, assignment target) is
    not a use, and without own neither is a read of self.X, an attribute
    of the file's own classes."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if bare:
                used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if own or not (isinstance(node.value, ast.Name)
                           and node.value.id == "self"):
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _names_read_outside_the_tests(bare: bool = True) -> set[str]:
    """Names read by the library, where a class reads its own attributes,
    and by the demos and the benchmark, whose classes are not the
    library's: a self.X read there (bench/hostspeed.py's self.log) is no
    use of an exported class's X."""
    library = [path for path in (ROOT / "src" / "redeiperm").glob("*.py")
               if path.name != "__init__.py"]
    outside = [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    return set().union(*(_names_read(path, bare) for path in library),
                       *(_names_read(path, bare, own=False) for path in outside))


def test_every_export_is_used_outside_the_tests():
    used = _names_read_outside_the_tests()
    unused = sorted(set(redeiperm.__all__) - used - {"__version__"})
    assert unused == []


def test_every_public_name_of_an_exported_class_is_used_outside_the_tests():
    """A method or attribute counts as used only where it is read as an
    attribute or imported: a local variable of the same name (log =
    ctx._log) is not a use of Felt.log."""
    used = _names_read_outside_the_tests(bare=False)
    classes = [getattr(redeiperm, name) for name in redeiperm.__all__]
    unused = sorted(f"{cls.__name__}.{attr}" for cls in classes
                    if isinstance(cls, type) for attr in vars(cls)
                    if not attr.startswith("_") and attr not in used)
    assert unused == []
