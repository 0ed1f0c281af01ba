"""Checks on the library source itself."""

import ast
import functools
import importlib
import re
import shutil
from pathlib import Path

import pytest

import coinwalk

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coinwalk"
MODULES = [coinwalk] + [
    importlib.import_module(f"coinwalk.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "__init__"
]


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; runtime invariants must raise ToolkitError.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {', '.join(found)}"


def test_library_imports_only_at_module_level():
    # A deferred import inside a function hides an import cycle.
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"function-level imports in the library: {', '.join(found)}"


def test_every_export_exists_and_the_package_exports_what_it_imports():
    # A removed name must leave no entry behind in any ``__all__``.
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert not missing, f"exported but undefined: {', '.join(missing)}"
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(coinwalk.__all__) == sorted(imported)


_CACHES = {"cache", "lru_cache"}


def _functools_caches(folder: Path) -> list[str]:
    """Every decorator named ``cache`` or ``lru_cache`` (bare, dotted or called),
    and every ``from functools import`` of either, in a folder's sources."""
    found = []
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                if _CACHES & {alias.name for alias in node.names}:
                    found.append(f"{path.name}:{node.lineno}")
            for dec in getattr(node, "decorator_list", []):
                named = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(named, "attr", getattr(named, "id", None)) in _CACHES:
                    found.append(f"{path.name}:{dec.lineno}")
    return found


def test_library_keeps_no_functools_cache():
    # A lowering memo lives for one call (transpile); a functools cache would
    # outlive it and make a long-lived process a different program.
    found = _functools_caches(PACKAGE)
    assert not found, f"functools caches in the library: {', '.join(found)}"


@pytest.mark.parametrize(
    "imports,decorator",
    [("import functools", "@functools.lru_cache(maxsize=None)"),
     ("import functools", "@functools.cache"),
     ("from functools import cache", "@cache")],
)
def test_the_cache_check_fails_a_mutated_copy(tmp_path, imports, decorator):
    shutil.copy(PACKAGE / "transpile.py", tmp_path)
    assert _functools_caches(tmp_path) == []
    source = tmp_path / "transpile.py"
    source.write_text(f"{source.read_text()}\n{imports}\n\n\n{decorator}\ndef _memo(n):\n    return n\n")
    assert _functools_caches(tmp_path)


def _loaded_names(path: Path) -> set[str]:
    """Names a file reads: loaded ``Name``s and ``Attribute``s, and imported names."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_read_somewhere():
    # An export nothing reads is dead code; the package's own re-export does not count.
    root = PACKAGE.parents[1]
    files = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]
    loaded = set().union(*map(_loaded_names, files))
    unread = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in module.__all__
        if name not in loaded
    ]
    assert not unread, f"exported but never read: {', '.join(unread)}"


#: Exports no pipeline code reads, each kept for a stated reason.
TEST_ONLY_EXPORTS = {
    "build_walsh": "the paper's one-series Walsh circuit; acceptance criteria 8 and 9 build it",
    "from_qasm": "the QASM reader, part of the library's input handling",
    "derivative_sup_estimate": "the Walsh truncation bound; the scaling sweep of ROADMAP item 2 will call it",
    "truncation_error_bound": "the Walsh truncation bound; the scaling sweep of ROADMAP item 2 will call it",
}


def _exports(path: Path) -> list[str]:
    """The names in a module's literal ``__all__``, read from its source."""
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _unread_exports(package: Path) -> list[str]:
    """Exports of ``package`` that no module of it (its ``__init__`` aside) and
    no file under ``perfbench/`` reads, less :data:`TEST_ONLY_EXPORTS`."""
    modules = sorted(package.glob("*.py"))
    files = [path for path in modules if path.name != "__init__.py"]
    files += sorted((PACKAGE.parents[1] / "perfbench").rglob("*.py"))
    loaded = set().union(*map(_loaded_names, files))
    return [
        f"{path.name}:{name}"
        for path in modules
        for name in _exports(path)
        if name not in loaded and name not in TEST_ONLY_EXPORTS
    ]


def test_every_export_is_read_by_the_library_or_the_benchmark():
    # Tests are not readers here: a name only tests read belongs in tests/oracles.py.
    assert _exports(PACKAGE / "__init__.py") == coinwalk.__all__
    unread = _unread_exports(PACKAGE)
    assert not unread, f"exported but read by no pipeline code: {', '.join(unread)}"
    assert set(TEST_ONLY_EXPORTS) <= set(coinwalk.__all__)


@pytest.mark.parametrize(
    "module,source",
    [("coins.py", "def identity_field(n):\n    return n\n"),
     ("transpile.py", "def decompose_mcu(controls, target, u):\n    return _decompose_mcu(controls, target, u, _Shared())\n")],
)
def test_the_export_check_fails_a_copy_that_readds_an_unread_export(tmp_path, module, source):
    package = tmp_path / "coinwalk"
    shutil.copytree(PACKAGE, package)
    assert _unread_exports(package) == []
    name = source.split("(", 1)[0].removeprefix("def ")
    path = package / module
    path.write_text(path.read_text().replace("__all__ = [\n", f'__all__ = [\n    "{name}",\n', 1) + f"\n\n{source}")
    assert _unread_exports(package) == [f"{module}:{name}"]


def _benchmark_pins() -> list[str]:
    """Every attribute chain ``module.name[.attr ...]`` that a file under
    ``perfbench/`` reads off a coinwalk module it imports by name, with each
    of its prefixes."""
    pins = set()
    for path in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "coinwalk"
            for alias in node.names
        }
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                pins.add(".".join([node.id, *reversed(chain)]))
    return sorted(pins)


def _bound_names(body: list) -> dict:
    """Names a module or class body binds at its top level, each mapped to its
    ``ClassDef`` (so a chain can look inside it) or to ``None``."""
    names: dict = {}
    for node in body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(dict.fromkeys((alias.asname or alias.name).split(".")[0] for alias in node.names))
        elif isinstance(node, ast.Assign):
            names.update(dict.fromkeys(t.id for t in node.targets if isinstance(t, ast.Name)))
    return names


def _missing_pins(package: Path) -> list[str]:
    """The benchmark's pins that ``package``'s sources no longer define."""
    missing = []
    for pin in _benchmark_pins():
        module, *chain = pin.split(".")
        path = package / f"{module}.py"
        scope = ast.parse(path.read_text(encoding="utf-8")) if path.exists() else None
        for name in chain:
            names = _bound_names(scope.body) if scope is not None else {}
            if name not in names:
                missing.append(pin)
                break
            scope = names[name]
    return missing


def test_every_name_the_benchmark_reads_is_defined():
    # perfbench/ reads these off coinwalk's modules; without this check a
    # removed one breaks only a traced benchmark run.
    pins = _benchmark_pins()
    assert {"statevec.SparseState.apply_gate", "transpile.gray_code_optimize", "walk.total_coin_matrix"} <= set(pins)
    missing = _missing_pins(PACKAGE)
    assert not missing, f"names perfbench/ reads that coinwalk no longer defines: {', '.join(missing)}"
    for pin in pins:  # the static reading agrees with the imported modules
        module, *chain = pin.split(".")
        functools.reduce(getattr, chain, importlib.import_module(f"coinwalk.{module}"))


@pytest.mark.parametrize(
    "module,old,new,pin",
    [("walk.py", ", total_coin_matrix  # noqa: F401", "", "walk.total_coin_matrix"),
     ("transpile.py", "from .walsh import gray_code_optimize", "", "transpile.gray_code_optimize"),
     ("statevec.py", "    def apply_gate(self,", "    def apply(self,", "statevec.SparseState.apply_gate")],
)
def test_the_pin_check_fails_a_copy_that_drops_a_name_the_benchmark_reads(tmp_path, module, old, new, pin):
    package = tmp_path / "coinwalk"
    shutil.copytree(PACKAGE, package)
    assert _missing_pins(package) == []
    path = package / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    assert _missing_pins(package) == [pin]


def test_every_error_code_is_in_the_readme_list():
    # A code is the literal first argument of a ToolkitError(...) call, or
    # either literal branch of a conditional expression there.
    codes, unread = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ToolkitError"):
                continue
            first = node.args[0] if node.args else None
            for arg in [first.body, first.orelse] if isinstance(first, ast.IfExp) else [first]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    codes.add(arg.value)
                else:
                    unread.append(f"{path.name}:{node.lineno}")
    assert codes and not unread, f"ToolkitError codes that are not literals: {', '.join(unread)}"
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Errors carry stable codes", 1)[1].split("\n\n", 1)[0]
    missing = sorted(codes - set(re.findall(r"`([a-z]+(?:-[a-z]+)+)`", listed)))
    assert not missing, f"codes missing from README's list of stable codes: {', '.join(missing)}"
