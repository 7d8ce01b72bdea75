"""Library-wide hygiene: bounded caches, a clean public API whose every export
has a user, no unused definitions or imports, imports at module level only,
a `Poly` without arithmetic, exercised oracles, no threads,
the strong-stability attribute kept to one module, one eq and hash for every
value type, no floating point, rational arithmetic kept to four modules,
ASCII source, and the benchmark's answer checks and traced names working on
the library."""

import ast
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import lexlab
from lexlab import MonomialIdeal, RingSpec, gotzmann
from lexlab.ring import Frozen


def test_import_loads_no_introspection_modules():
    # importing lexlab pays for every stdlib module it pulls in; -S keeps a
    # site .pth file from loading any of them first
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lexlab; "
            "print(lexlab.__file__); "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    src = Path(lexlab.__file__).parent.parent
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert out == [lexlab.__file__, "[]"], out


def test_every_cache_is_bounded():
    caches = {}
    for name, module in sys.modules.items():
        if name.startswith("lexlab."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_parameters") and value.__module__ == name:
                    caches[f"{name}.{attr}"] = value.cache_parameters()["maxsize"]
    assert {"lexlab.cohomology._engine", "lexlab.gotzmann._exchange_of_saturation",
            "lexlab.gotzmann._lex_by_numerator", "lexlab.hilbert._numerator_pivot",
            "lexlab.ring.enumerate_monomials"} <= set(caches)
    assert "lexlab.gotzmann.lex_ideal" not in caches   # the walk's memo is its only one
    assert all(size is not None for size in caches.values()), caches


def test_only_ideals_marks_an_ideal_strongly_stable():
    # the cached property that is_strongly_stable reads is defined, and
    # pre-set by MonomialIdeal._strongly_stable, in ideals.py alone; other
    # modules call that constructor and never name the attribute, by
    # attribute, by name, by definition or by string
    src = Path(lexlab.__file__).parent
    writers = set()
    for f in src.glob("*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "_stable"
                    or isinstance(node, ast.Name) and node.id == "_stable"
                    or isinstance(node, ast.FunctionDef) and node.name == "_stable"
                    or isinstance(node, ast.Constant) and node.value == "_stable"):
                writers.add(f.name)
    assert writers == {"ideals.py"}, writers


def test_value_types_take_eq_and_hash_from_frozen():
    # one protocol: a value type keeps what it is compared by in `_values`
    # and defines no eq or hash of its own
    src = Path(lexlab.__file__).parent
    modules = [importlib.import_module(f"lexlab.{f.stem}")
               for f in sorted(src.glob("*.py")) if f.stem != "__init__"]
    value_types = {value for module in modules for value in vars(module).values()
                   if isinstance(value, type) and issubclass(value, Frozen) and value is not Frozen}
    assert {MonomialIdeal, RingSpec, gotzmann._Walk} <= value_types
    overriding = sorted(f"{cls.__module__}.{cls.__name__}.{name}" for cls in value_types
                        for name in ("__eq__", "__hash__") if name in vars(cls))
    assert not overriding, overriding


EXACT_MATH = {"comb", "factorial", "gcd", "lcm"}


def test_library_is_float_free():
    # exact arithmetic only: no true division, no float literal or name, and
    # from math only the integer functions
    found = []
    for f in sorted(Path(lexlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            where = f"{f.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{where} /")
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where} float")
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "math" for alias in node.names):
                found.append(f"{where} import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} math.{alias.name}" for alias in node.names
                          if alias.name not in EXACT_MATH]
    assert not found, found


def test_fraction_is_confined():
    # Fractions serve polynomial coefficients, their parsing, Groebner bases
    # over Q and the Hilbert polynomial that `hf` displays; lex ideals, the
    # Gotzmann data and local cohomology are computed in integers
    importers = set()
    for f in Path(lexlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            if (isinstance(node, ast.Import) and any(alias.name == "fractions"
                                                     for alias in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"):
                importers.add(f.stem)
    assert importers == {"ring", "parsing", "groebner", "hilbert"}, importers


def test_cohomology_engine_does_not_depend_on_buchberger():
    # the row engine reads tables from numerators and degree complexes; the
    # gin comparison that needs Groebner bases lives in reports
    tree = ast.parse((Path(lexlab.__file__).parent / "cohomology.py").read_text())
    library, stdlib = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (library if node.level else stdlib).add(node.module)
        elif isinstance(node, ast.Import):
            stdlib.update(alias.name for alias in node.names)
    assert library == {"errors", "hilbert", "ideals", "linalg", "ring"}, library
    assert "enum" not in stdlib, stdlib


def test_library_and_tests_are_ascii():
    # a look-alike letter in a name makes it a different name; test ids and
    # greps must match what is typed
    root = Path(lexlab.__file__).parent
    files = sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 20
    found = [f"{f.name}:{number}" for f in files
             for number, line in enumerate(f.read_text(encoding="utf-8").splitlines(), 1)
             if not line.isascii()]
    assert not found, found


def test_all_exports_no_modules():
    modules = [name for name in lexlab.__all__
               if isinstance(getattr(lexlab, name), types.ModuleType)]
    assert not modules, modules
    assert {"buchberger", "gin", "lex_ideal", "MonomialIdeal"} <= set(lexlab.__all__)


def _referenced_names(tree):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_library_definition_is_used():
    # a use is a name or attribute outside the definition itself and __init__;
    # an import alone does not count
    src = Path(lexlab.__file__).parent
    files = [f for f in sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
             if f.name != "__init__.py"]
    statements = [(f, stmt) for f in files for stmt in ast.parse(f.read_text()).body]
    uses = [(stmt, _referenced_names(stmt)) for _, stmt in statements]
    unused = [f"{f.stem}.{stmt.name}" for f, stmt in statements
              if f.parent == src and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not any(stmt.name in names for other, names in uses if other is not stmt)]
    assert not unused, unused


def test_every_oracle_is_imported_by_a_test():
    # a route moved out of the library must stay an exercised reference
    tests = Path(__file__).parent
    imported = set()
    for f in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
    oracles = {f.stem for f in tests.glob("*_oracle.py")}
    assert {"groebner_oracle", "hilbert_oracle", "ideals_oracle", "lex_oracle"} <= oracles
    assert oracles <= imported, sorted(oracles - imported)


def test_poly_is_a_value_without_arithmetic():
    # the library's polynomial arithmetic is the integer core in groebner;
    # the Fraction arithmetic is the oracle's
    defined = {"__add__", "__sub__", "__mul__", "__neg__"} & set(vars(lexlab.Poly))
    assert not defined, defined


def test_library_imports_only_at_module_level():
    # an import inside a function hides a dependency from the module's head,
    # and the benchmark's tracer patches only module attributes
    found = []
    for f in sorted(Path(lexlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{f.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_no_threads_in_library():
    for f in Path(lexlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in ("concurrent", "threading")
                           for m in modules), (f.name, modules)


def _lexlab_names_used(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "lexlab" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "lexlab"):
            names.add(node.attr)
    return names


def test_every_export_has_a_user():
    # users: the tests, the benchmark, the README example and the CLI
    src = Path(lexlab.__file__).parent
    root = src.parent.parent
    used = set()
    for f in [*(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        used |= _lexlab_names_used(ast.parse(f.read_text()))
    for example in re.findall(r"^from lexlab import \(.*?\)$",
                              (root / "README.md").read_text(), re.M | re.S):
        used |= _lexlab_names_used(ast.parse(example))
    for node in ast.walk(ast.parse((src / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    unused = sorted(set(lexlab.__all__) - used)
    assert not unused, unused


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def test_no_unused_imports():
    src = Path(lexlab.__file__).parent
    files = [f for f in sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
             if f.name != "__init__.py"]
    unused = []
    for f in files:
        tree = ast.parse(f.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{f.stem}.{name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in _bound_names(node) if name not in loaded]
    assert not unused, unused


def test_benchmark_checks_pass_on_the_library(monkeypatch):
    # the benchmark reads the library through these names; a deletion it
    # depends on would otherwise fail every benchmark operation unseen
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import checks
    import tracing
    assert checks.self_test(lexlab) == []

    def members(n):
        family = [I for I in lexlab.all_strongly_stable(lexlab.RingSpec(n), 3) if not I.is_zero]
        return family[::len(family) // 8][:8]

    for I in members(3):
        report = lexlab.reports.verify_main(I, include_gin=True, seed=1)
        assert checks.check_report(lexlab, I, report) == [], I
    for I in members(4):
        answer = lexlab.lex_ideal(I), lexlab.exchange_property(I)
        assert checks.check_exchange(lexlab, I, answer) == [], I
    for module, function in tracing.TRACED:
        assert callable(getattr(getattr(lexlab, module), function, None)), (module, function)
