"""The documented public surface imports and resolves, and every public
name has a reader outside the tests."""

import ast
import importlib
import os
from pathlib import Path
import pkgutil
import re
import subprocess
import sys
import types

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.galois",
    "repro.gluon",
    "repro.dgraph",
    "repro.dgraph.apps",
    "repro.text",
    "repro.w2v",
    "repro.baselines",
    "repro.embeddings",
    "repro.eval",
    "repro.cluster",
    "repro.serve",
    "repro.experiments",
    "repro.util",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_export_table_resolves_every_way(package):
    """Each lazily exported name resolves by every route, and agrees."""
    module = importlib.import_module(package)
    exported = module.__all__
    star: dict = {}
    exec(f"from {package} import *", star)
    assert set(star) - {"__builtins__"} == set(exported)
    assert set(exported) <= set(dir(module))
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    for name in exported:
        value = getattr(module, name)
        scope: dict = {}
        exec(f"from {package} import {name}", scope)
        assert scope[name] is value is star[name], f"{package}.{name}"
        if isinstance(value, types.ModuleType):
            assert name in submodules and value.__name__ == f"{package}.{name}"
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute"):
        getattr(module, "no_such_export")


@pytest.mark.parametrize("package", PACKAGES)
def test_submodules_resolve_as_attributes(package):
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        if info.name == "__main__":
            continue
        sub = importlib.import_module(f"{package}.{info.name}")
        value = getattr(module, info.name)
        if info.name in module.__all__ and not isinstance(value, types.ModuleType):
            # An export named like its module (galois.do_all the function).
            assert value is getattr(sub, info.name)
        else:
            assert value is sub


def test_exports_win_over_same_named_submodules():
    """Importing ``repro.galois.do_all`` first must not shadow the function."""
    code = (
        "import repro.galois.do_all, repro.dgraph.apps.pagerank\n"
        "from repro.galois import do_all\n"
        "from repro.dgraph.apps import pagerank\n"
        "print(*(callable(f) and not isinstance(f, type(repro)) "
        "for f in (do_all, pagerank)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def test_documented_embeddings_names_resolve():
    """Every public name docs/api.md's ``repro.embeddings`` section lists —
    bare or module-qualified (``sbm.x``) — imports from the package."""
    import repro.embeddings as package

    api = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text()
    section = api.split("\n## repro.embeddings ", 1)[1].split("\n## ", 1)[0]
    public = set()
    for info in pkgutil.iter_modules(package.__path__):
        public |= set(importlib.import_module(f"repro.embeddings.{info.name}").__all__)
    listed = {tok.rsplit(".", 1)[-1] for tok in re.findall(r"`([\w.]+)`", section)}
    assert "knn_label_accuracy" in listed & public
    for name in sorted(listed & public):
        scope: dict = {}
        exec(f"from repro.embeddings import {name}", scope)


def test_version():
    import repro

    assert repro.__version__


def test_quickstart_docstring_names_exist():
    """The names used in the package docstring's example are exported."""
    import repro

    for name in (
        "SyntheticCorpusSpec",
        "generate_corpus",
        "Word2VecParams",
        "GraphWord2Vec",
        "evaluate_analogies",
    ):
        assert hasattr(repro, name)


def test_every_module_has_docstring():
    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


REPO_ROOT = Path(__file__).resolve().parents[1]

#: Public names that nothing outside ``tests/`` reads, kept on purpose.
KEEPERS = {
    "repro.core.projection.cosine": "the readable §3 projection math, a spec",
    "repro.core.projection.combine_pair": "§3 model combination of two gradients, a spec",
    "repro.core.projection.combine_sequence": "the MC oracle of test_sync_properties",
    "repro.core.validity.direction_validity": "the §3 descent-direction validity oracle",
    "repro.experiments.stats.repeat_runs": "the multi-seed protocol ROADMAP item M runs on",
    "repro.analysis.lint.lint_source": "lints one source in process; the rule battery's driver",
}


def _reads(node: ast.AST) -> set[str]:
    """Identifiers ``node`` loads, imports or reads as attributes."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else []
    )
    return [t.id for t in targets if isinstance(t, ast.Name)]


def orphans(root: Path = REPO_ROOT) -> set[str]:
    """Public top-level names of ``src/repro`` that no code outside
    ``tests/`` reads: no module of ``src/``, ``bench/``, ``benchmarks/`` or
    ``examples/`` but their own, and no statement of their own module but
    their definition.  Export tables list names as strings and read none."""
    readers: dict[str, set[Path]] = {}
    statements: dict[Path, list[tuple[ast.stmt, set[str]]]] = {}
    for folder in ("src/repro", "bench", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            statements[path] = [(node, _reads(node)) for node in tree.body]
            for _, names in statements[path]:
                for name in names:
                    readers.setdefault(name, set()).add(path)
    found = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node, _ in statements[path]:
            for name in _defined(node):
                if name.startswith("_") or readers.get(name, set()) - {path}:
                    continue
                if not any(name in names for other, names in statements[path] if other is not node):
                    found.add(f"{module}.{name}")
    return found


def test_every_public_name_has_a_reader():
    """A public name only its own unit test reads is dead code: delete it
    with its test, or give the reason to keep it in ``KEEPERS``."""
    found = orphans()
    assert not found - set(KEEPERS), f"no reader outside tests/: {sorted(found - set(KEEPERS))}"
    stale = set(KEEPERS) - found
    assert not stale, f"KEEPERS entries that are gone or now have a reader: {sorted(stale)}"
