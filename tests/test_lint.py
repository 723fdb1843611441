"""Source checks that hold for the whole library."""

import ast
import builtins
import importlib
import importlib.util
import pathlib
import re
import subprocess
import symtable
import sys

import pytest

import radicant
from radicant import radical
from radicant.field import make_field
from radicant.isogeny import DualIsogeny

SOURCES = sorted(pathlib.Path(radicant.__file__).parent.glob("*.py"))

# the designated enumeration oracles, by module and qualified name; any
# other use of elements() or nonzero_elements() is an O(q) scan of the field
FIELD_SCAN_ORACLES = {
    "field.FieldCtx.nonzero_elements",
    "curve._sqrt_table",
    "curve.enumerate_points",
    "pairing._point_candidates",
}

# the functions that may seed a random.Random; a seeding per call in a hot
# path repeats work that depends only on its seed
RANDOM_CONSTRUCTORS = {
    "field.FieldCtx.sylow",
    "curve._rng_for",
    "poly.factors",
    "verify.run_moduli",
    "verify.run_pairing",
    "verify.run_radical",
}


# the one function that draws random curve points: the sampling comparand
# of `radicant bench`; torsion elsewhere comes from the roots of psi_N
TORSION_SAMPLERS = {"radical._sampled_distinguished"}


def _callee(node):
    """The name a call node calls: f for f(...), attr for x.attr(...)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return getattr(node.func, "attr", None)


def _scopes_where(predicate):
    """Qualified names (module.Class.function) of the scopes in the library
    that hold a node meeting `predicate`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if predicate(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), [path.stem])
    return found


def test_import_loads_no_sympy():
    # sympy serves the tests as an oracle; the library and its CLI load none of it
    package_root = pathlib.Path(radicant.__file__).resolve().parent.parent
    code = "import sys, radicant.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=package_root, timeout=60)
    assert out.stdout.strip() == "False"


def test_library_has_no_assert():
    # python -O strips assert statements; library checks raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, f"assert statements in the library: {found}"


def test_field_scans_only_in_enumeration_oracles():
    # an isomorphism search once scanned every scale u in F_q^x; a scan
    # outside the oracles makes a valid large-field input hang or hit a bound
    found = _scopes_where(lambda node: isinstance(node, ast.Attribute)
                          and node.attr in ("elements", "nonzero_elements"))
    assert found == FIELD_SCAN_ORACLES, (
        f"field scans outside the oracles: {sorted(found - FIELD_SCAN_ORACLES)}; "
        f"oracles that no longer scan: {sorted(FIELD_SCAN_ORACLES - found)}")


def test_random_seeded_only_in_allowlisted_functions():
    # a Random seeded inside a per-call path redraws, on every call, what
    # depends only on its seed: the Sylow generator depends only on (q, r),
    # so `FieldCtx.sylow` draws it once per field
    found = _scopes_where(
        lambda node: isinstance(node, ast.Call) and _callee(node) == "Random")
    assert found == RANDOM_CONSTRUCTORS, (
        f"Random seeded outside the allowlist: {sorted(found - RANDOM_CONSTRUCTORS)}; "
        f"allowlisted functions that seed none: {sorted(RANDOM_CONSTRUCTORS - found)}")


def test_torsion_sampled_only_in_the_bench_comparand():
    # torsion comes from the roots of psi_N, which needs no group order;
    # drawing points and reducing them to the N-Sylow part is what the
    # radical chain avoids, so only the comparand `bench` times it against
    # may do it
    found = _scopes_where(
        lambda node: isinstance(node, ast.Call)
        and _callee(node) in ("random_point", "_sylow_reduce"))
    assert found == TORSION_SAMPLERS, (
        f"torsion sampled outside the comparand: {sorted(found - TORSION_SAMPLERS)}; "
        f"comparands that sample none: {sorted(TORSION_SAMPLERS - found)}")


# the callers in the library of the exhaustive point count: an O(q) scan
# reached from elsewhere makes that path hang on a large field, where the
# roots of a division or fibre polynomial give the same points
ENUMERATION_CALLERS = {
    "enumerate_points": {"curve.group_order", "verify.pairing_properties_f31.properties"},
    "group_order": {"curve.point_order", "radical._sampled_distinguished"},
}


@pytest.mark.parametrize("callee", sorted(ENUMERATION_CALLERS))
def test_points_enumerated_only_by_the_oracles(callee):
    allowed = ENUMERATION_CALLERS[callee]
    found = _scopes_where(
        lambda node: isinstance(node, ast.Call) and _callee(node) == callee)
    assert found == allowed, (
        f"{callee} called outside the allowlist: {sorted(found - allowed)}; "
        f"allowlisted functions that call none: {sorted(allowed - found)}")


def test_no_orphan_private_helpers():
    # a module-level _name that nothing else in the package mentions is dead
    texts = {path: path.read_text() for path in SOURCES}
    orphans = []
    for path, text in texts.items():
        for node in ast.parse(text, str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                pattern = re.compile(rf"\b{re.escape(name)}\b")
                uses = sum(len(pattern.findall(t)) for t in texts.values())
                if uses < 2:
                    orphans.append(f"{path.name}:{node.lineno} {name}")
    assert not orphans, f"private helpers referenced nowhere: {orphans}"


def test_no_unused_imports():
    # an import counts as used when its name is read in the scope that
    # imports it: the module, or the function that holds a local import.
    # Annotations count, as modules use `from __future__ import annotations`
    # rather than quoted names.  __init__.py imports are re-exports.
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        owner = {}
        for scope in scopes:  # outer scopes first, so inner functions win
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    owner[node] = scope
        for node, scope in owner.items():
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imports never used: {unused}"


def test_no_undefined_globals():
    # a name that a function reads as global, when neither the module binds
    # it nor it is a builtin, raises NameError only once that line runs, so
    # an error path that names an unimported error type loses its type
    def scopes(table):
        for child in table.get_children():
            yield child
            yield from scopes(child)

    undefined = []
    for path in SOURCES:
        top = symtable.symtable(path.read_text(), str(path), "exec")
        bound = {sym.get_name() for sym in top.get_symbols()
                 if sym.is_assigned() or sym.is_imported()}
        for scope in scopes(top):
            for sym in scope.get_symbols():
                name = sym.get_name()
                if (sym.is_global() and sym.is_referenced() and name not in bound
                        and not hasattr(builtins, name)):
                    undefined.append(f"{path.name}: {scope.get_name()} {name}")
    assert SOURCES and not undefined, f"undefined global names: {undefined}"


def test_names_the_benchmark_tracer_reads_exist():
    # perfbench/tracer.py looks up each TRACED (module, name) with getattr
    # and reads DualIsogeny.ext_ctx, so a missing one crashes a traced run
    tracer = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(), str(tracer)).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    missing = [f"{module}.{name}" for module, name in traced
               if not hasattr(importlib.import_module(f"radicant.{module}"), name)]
    assert traced and not missing, f"names the tracer reads are gone: {missing}"
    assert hasattr(DualIsogeny, "ext_ctx")


def test_traced_reference_step_counts_its_layers():
    # `perfbench/run.py --trace 1` rebinds every TRACED function across the
    # package and reads `group_order.cache_info()`; a library edit that
    # breaks that path fails here and not only in a traced benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    bindings = {(name, attr): value for name, module in list(sys.modules.items())
                if name.split(".")[0] == "radicant"
                for attr, value in vars(module).items() if callable(value)}
    F = make_field(41)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.rebound
        successors = tracer.op(radical.velu_reference_step, F.el(2) ** 5)
    finally:
        tracer.uninstall()
    assert not tracer.rebound
    assert {key: getattr(sys.modules[key[0]], key[1]) for key in bindings} == bindings
    assert len(successors) == 5
    metrics = tracer.metrics()
    calls = {name: metrics[f"{name}.calls"] for name in
             ("velu_reference_step", "distinguished_points", "dual_isogeny", "cached_dual")}
    assert calls == {"velu_reference_step": 1, "distinguished_points": 1,
                     "dual_isogeny": 1, "cached_dual": 0}


# the library's process-global state: `curve._sample_count` waits for the
# counting spine (ROADMAP item 2), `curve.group_order`'s lru_cache for the
# baby-step giant-step order (items 3 and 7)
GLOBAL_STATE = {"curve._sample_count", "curve.group_order"}

_MUTATING_METHODS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
                     "popitem", "remove", "setdefault", "update"}


def test_global_state_is_allowlisted():
    # state a later call sees, so one caller or test can change the next: a
    # module-level container the library writes into, a name a function
    # rebinds with `global`, or a memoised function
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    containers = {}  # name -> module
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                    isinstance(node.value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                            ast.ListComp, ast.SetComp))
                    or isinstance(node.value, ast.Call) and _callee(node.value) in (
                        "dict", "list", "set", "defaultdict", "OrderedDict", "deque")):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                containers.update({t.id: module for t in targets if isinstance(t, ast.Name)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.update(f"{module}.{name}" for name in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    called = _callee(dec) if isinstance(dec, ast.Call) else (
                        getattr(dec, "id", None) or getattr(dec, "attr", None))
                    if called in ("lru_cache", "cache"):
                        found.add(f"{module}.{node.name}")

    def container(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return name if name in containers else None

    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                name = container(node.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS:
                name = container(node.func.value)
            else:
                continue
            if name is not None:
                found.add(f"{containers[name]}.{name}")
    assert found == GLOBAL_STATE, (
        f"global state outside the allowlist: {sorted(found - GLOBAL_STATE)}; "
        f"allowlisted names that hold none: {sorted(GLOBAL_STATE - found)}")


def _program_files():
    """The package's modules, the scripts and the tests."""
    root = pathlib.Path(__file__).resolve().parent.parent
    return SOURCES + sorted((root / "scripts").glob("*.py")) + sorted(
        pathlib.Path(__file__).parent.glob("*.py"))


def test_only_field_builds_elements():
    # elements enter only through ctx.el and the other FieldCtx methods, so
    # poly.py's raw coefficients (plain ints over F_p) are rebuilt at its
    # boundary and nothing else constructs an element by hand
    calls = [
        f"{path.name}:{node.lineno}"
        for path in _program_files()
        if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and _callee(node) == "FieldElement"
    ]
    assert SOURCES and not calls, f"FieldElement built outside field.py: {calls}"


def test_only_field_and_poly_read_the_element_value():
    # an element's `_v` is an int over F_p and a tuple over F_{p^k}; the
    # rest of the package, the scripts and the tests read `coeffs`
    reads = [
        f"{path.name}:{node.lineno}"
        for path in _program_files()
        if path.name not in ("field.py", "poly.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_v"
    ]
    assert SOURCES and not reads, f"element value slot read outside field.py and poly.py: {reads}"
