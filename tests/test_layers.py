"""Module layering: which modules a package module may import."""

import ast
import importlib
import json
from pathlib import Path

import symcart
from symcart.homotopy import pi, row
from symcart.recognize import corollary1_scan
from symcart.regions import regions

_SRC = Path(symcart.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _tree(module):
    path = _SRC / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def _imported(node):
    """The modules an import statement names, the package's own spelled
    ``symcart.<name>``; nothing for any other node."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level:
        return ({f"symcart.{node.module}"} if node.module else
                {f"symcart.{alias.name}" for alias in node.names})
    if isinstance(node, ast.ImportFrom):
        return {node.module}
    return set()


def _imports(node):
    """The modules imported anywhere under ``node``."""
    return set().union(*map(_imported, ast.walk(node)))


def _import_time_imports(node):
    """The modules imported outside function bodies under ``node``: those
    that importing its module runs."""
    names = _imported(node)
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _FUNCTIONS):
            names |= _import_time_imports(child)
    return names


def test_geom_is_arithmetic_over_catalog_spaces():
    """geom reads no file and no homotopy table: from its package it
    imports only the catalog and the value classes, and it has no ``os``."""
    names = _imports(_tree("geom"))
    assert {n for n in names if n.partition(".")[0] == "symcart"} <= \
        {"symcart.catalog", "symcart.values"}, names
    assert "os" not in {n.partition(".")[0] for n in names}, names


def test_regions_is_imported_only_by_the_scan_and_the_check():
    """No package module imports ``symcart.regions`` when it is itself
    imported, so set-up never compiles it; the scan and the consistency
    check import it inside their bodies."""
    importers = set()
    for path in sorted(_SRC.glob("*.py")):
        tree = _tree(path.stem)
        assert "symcart.regions" not in _import_time_imports(tree), path.stem
        importers |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                      if isinstance(node, _FUNCTIONS)
                      and "symcart.regions" in _imports(node)}
    assert importers == {"recognize.corollary1_scan",
                         "homotopy.consistency_violations"}


def test_regions_reads_canonical_forms_from_the_catalog_only():
    """``regions`` skips the presentations of ``catalog._NOT_CANONICAL``,
    as the catalog build does, and names neither ``ReducibleError`` nor
    an isomorphism table, so it holds no second canonical test that
    could drift from the build's."""
    tree = _tree("regions")
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)} | \
        {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} | \
        {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_NOT_CANONICAL" in names
    assert not names & {"ReducibleError", "SPECIAL_ISOMORPHISMS",
                        "PRODUCT_ISOMORPHISMS"}, names


def test_regions_reads_parameters_only_from_homotopy():
    """``regions`` takes from ``homotopy`` the degree bound, the cache
    and the loaded records, whose guards carry their starts: it names no
    comparison, guard, cell or row."""
    imported = {alias.name for node in ast.walk(_tree("regions"))
                if isinstance(node, ast.ImportFrom) and node.level
                and node.module == "homotopy" for alias in node.names}
    assert imported == {"MAX_DEGREE", "_cached_per_data_dir", "load_records"}


def test_regions_build_no_row():
    """A region holds parameters only: deriving the regions builds no
    homotopy row; the scan and the check build those they read."""
    for cached in (row, regions):
        cached.cache_clear()
    regions()
    assert row.cache_info().misses == 0


def test_no_module_runs_code():
    """No package module compiles, evaluates or executes code: guards are
    read from their AST into integer comparisons, in ``homotopy`` alone,
    and ``regions`` reads each guard's start found there, not the AST."""
    runs_code = {f"{prefix}{name}" for prefix in ("", "builtins.")
                 for name in ("compile", "eval", "exec")}
    for path in sorted(_SRC.rglob("*.py")):
        called = set()                  # re.compile reads "re.compile"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                called.add(f.id if isinstance(f, ast.Name) else
                           f"{getattr(f.value, 'id', '')}.{f.attr}"
                           if isinstance(f, ast.Attribute) else None)
        assert not called & runs_code, (path, called & runs_code)
    assert "ast" not in _imports(_tree("regions"))


def test_only_abelian_names_a_cell_tag():
    """A cell's tags are ``abelian``'s representation: no other package
    module names one or reads a cell's ``tag``.  They read a cell through
    ``is_exact``, its rank intervals and the group grammar."""
    tags = {"EXACT", "CONTAINS", "RANK"}
    for path in sorted(_SRC.glob("*.py")):
        if path.stem == "abelian":
            continue
        tree = _tree(path.stem)
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names = attrs | \
            {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)} | \
            {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not names & tags and "tag" not in attrs, path.stem


_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_traced_function_the_benchmark_declares_exists():
    """Each per-layer metric ``<module>.<function>.<stat>`` of a symcart
    module names a function the package still has, and a hit ratio names
    a cached one; the benchmark would otherwise report it absent.  The
    scan still reaches ``homotopy.pi`` through a cache miss, which the
    scan workload's ``homotopy.pi.calls`` reads."""
    declared = [m["name"].split(".")
                for m in json.loads(_BENCHMARK.read_text())["per_layer"]]
    traced = [name for name in declared if len(name) == 3
              and name[2] in ("calls", "self_s", "cache_hit_ratio")
              and (_SRC / f"{name[0]}.py").exists()]
    assert len(traced) == 26
    for module, function, stat in traced:
        fn = getattr(importlib.import_module(f"symcart.{module}"), function)
        assert callable(fn), (module, function)
        if stat == "cache_hit_ratio":
            assert hasattr(fn, "cache_info"), (module, function)
    for cached in (pi, row, regions):
        cached.cache_clear()
    corollary1_scan(60)
    assert pi.cache_info().misses >= 1
