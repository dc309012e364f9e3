"""Every module and function under ``src/repro`` is run by the project itself.

A module whose only importer is a package ``__init__`` re-export (or a
test) is library-only code: nothing the simulator, the service or the CLI
executes reaches it. Likewise a function that no code in ``src/``,
``benchmarks/`` or ``examples/`` calls is called by tests alone. A package
``__init__`` calls nothing, and a module-level function is called only
where it is reached through its own module: imported from it (or from a
package that re-exports it), used as an attribute of an imported module
alias, named inside its module, or spelled as an identifier string — a
variable that happens to share its name is not a call. A method is called
where code reads it as an attribute (``x.m``) or spells it as an
identifier string (``getattr(x, "m")``); a local variable or import
alias named ``m`` is not a call. Comments and docstrings refer to
nothing. These guards fail when unreached code appears; the named entry
points and test oracles below are the only exceptions.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: modules nothing imports on purpose: entry points and test oracles
ENTRY_POINTS_AND_ORACLES = {
    "repro.cli",
    "repro.sched.edf",
    "repro.experiments.verify",
}

#: the code whose calls count: a name used only under ``tests/`` has no caller
CALLER_DIRS = ("src", "benchmarks", "examples")

#: functions and methods nothing in CALLER_DIRS calls, kept because the
#: named tests check other code against them
TEST_ORACLES = {
    "route_stretch": "tests/experiments/test_hygiene.py (phase-protocol convergence)",
    "is_free": "tests/sched/test_sched_properties.py (the earliest_fit property)",
    "live_jobs": "tests/sched/test_executor_differential.py",
    "validate_consistency": "tests/core/test_pipeline_properties.py",
    "check_invariants": "tests/sched/test_sched_properties.py",
    "scalars_equal": "tests/service/test_service_differential.py",
    "trace_digest": "tests/identity/scenarios.py",
    "demand_bound_satisfied": "tests/sched/test_sched_properties.py",
    "same_metrics": "tests/experiments/test_parallel.py (serial and pool cells agree)",
    "sinks": "tests/graphs/ and tests/core/test_pipeline_properties.py (DAG shapes)",
    "sources": "tests/graphs/ (generator shapes; bottom levels peak at a source)",
    "actual_start": "tests/sched/test_executor.py (reserved vs actual execution)",
    "actual_end": "tests/sched/test_executor.py, tests/experiments/test_hygiene.py",
    "lateness": "tests/sched/test_executor.py, tests/core/test_rtds_options.py",
    "delivery_time": "tests/simnet/test_network_cache.py (the arithmetic transmit inlines)",
    "of": "tests/faults/test_hardening.py (reads the protocol trace by category)",
    "maximum_matching_bruteforce": "tests/sched/test_matching.py, tests/sched/test_sched_properties.py (Hopcroft–Karp)",
    "hop_bounded_distances": "tests/routing/ and tests/claims/test_e4_pcs_construction.py (phased Bellman–Ford)",
    "run_pcs_phase_protocol": "tests/routing/, tests/spheres/ (the vectorized and oracle tables)",
    "open_loop_workload": "tests/service/test_service_differential.py (the resident service vs batch runs)",
    "hop_diameter": "tests/routing/test_vectorized.py (hop_diameter_fast)",
    "verify_execution": "tests/experiments/test_verify_and_volumes.py and every run-soundness check",
}


def modules():
    """Dotted name -> (path, is package ``__init__``) for every module."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_init = parts[-1] == "__init__"
        if is_init:
            parts.pop()
        out[".".join(parts)] = (path, is_init)
    return out


def imported_names(name, path, is_init):
    """Every dotted name an ``import`` statement in the module could bind,
    function-local imports included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
    for base, alias in from_imports(name, path, is_init):
        yield base
        yield f"{base}.{alias.name}"


def unreached():
    mods = modules()
    reached = set()
    for name, (path, is_init) in mods.items():
        if not is_init:
            reached.update(n for n in imported_names(name, path, is_init) if n != name)
    return sorted(
        name
        for name, (_, is_init) in mods.items()
        if not is_init and name not in reached and name not in ENTRY_POINTS_AND_ORACLES
    )


def test_every_module_has_an_importer_in_the_package():
    assert unreached() == [], (
        "modules only a package __init__ (or a test) imports; wire them in "
        "or delete them"
    )


def test_exceptions_are_real_modules():
    assert ENTRY_POINTS_AND_ORACLES <= set(modules())


def functions():
    """(file, module, qualified name, name) of every top-level function and
    method in ``src/repro``; dunder methods are the language's to call."""
    for name, (path, _) in modules().items():
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                qual = fn.name if fn is node else f"{node.name}.{fn.name}"
                yield path.relative_to(ROOT), name, qual, fn.name


def package_exports(mods):
    """Package -> {bound name: (module, name)} for every ``from M import f``
    in the package's ``__init__``: what ``from package import f`` reaches."""
    exports = {}
    for name, (path, is_init) in mods.items():
        if is_init:
            exports[name] = {
                alias.asname or alias.name: (base, alias.name)
                for base, alias in from_imports(name, path, is_init)
            }
    return exports


def from_imports(name, path, is_init):
    """(absolute source module, alias) of every ``from ... import`` in the
    module, function-local imports included."""
    package = name if is_init else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                yield base, alias


def resolve(module, name, exports):
    """Follow package re-exports from ``module.name`` to where it is defined."""
    while name in exports.get(module, {}):
        module, name = exports[module][name]
    return module, name


def references(path, mods, exports):
    """What one caller file (not a package ``__init__``) refers to:
    ``(module, function)`` pairs reached by import or through a module
    alias, attribute names (``x.m``), and identifier strings. Comments,
    docstrings and ``def`` lines refer to nothing."""
    is_src = path.is_relative_to(SRC)
    module = ".".join(path.relative_to(SRC).with_suffix("").parts) if is_src else path.stem
    tree = ast.parse(path.read_text())
    qualified, attributes, strings = set(), set(), set()
    aliases = {}  # local name -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
    for base, alias in from_imports(module, path, False):
        bound = alias.asname or alias.name
        if f"{base}.{alias.name}" in mods:
            aliases[bound] = f"{base}.{alias.name}"
        else:
            qualified.add(resolve(base, alias.name, exports))

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            outer = module_of(expr.value)
            if outer and f"{outer}.{expr.attr}" in mods:
                return f"{outer}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            qualified.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            outer = module_of(node.value)
            if outer:
                qualified.add(resolve(outer, node.attr, exports))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                strings.add(node.value)
    return qualified, attributes, strings


def uncalled():
    """The functions no code in CALLER_DIRS calls. A package ``__init__``
    calls nothing. A module-level function ``f`` of module ``M`` is called
    where a file imports it from ``M`` (or from a package re-exporting it),
    uses ``M.f`` through a module alias, where ``M`` itself names it, or
    where ``"f"`` is an identifier string (``fn_span(module, "f")``). A
    method ``m`` is called where code reads ``.m`` as an attribute or
    spells ``"m"`` as an identifier string."""
    mods = modules()
    exports = package_exports(mods)
    qualified, attributes, strings = set(), set(), set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            q, a, s = references(path, mods, exports)
            qualified |= q
            attributes |= a
            strings |= s
    out = []
    for path, module, qual, name in functions():
        if "." in qual:
            called = name in attributes or name in strings
        else:
            called = (module, name) in qualified or name in strings
        if not called:
            out.append((path, qual, name))
    return out


def test_every_function_has_a_caller_outside_the_tests():
    unexpected = [f"{path}: {qual}" for path, qual, name in uncalled() if name not in TEST_ORACLES]
    assert unexpected == [], (
        "functions only tests call; delete them (with the tests that test "
        "only them) or, if a test uses one as an oracle, add it to TEST_ORACLES"
    )


def test_test_oracles_are_uncalled_functions():
    """An oracle that gains a caller, or loses its definition, leaves the list."""
    assert set(TEST_ORACLES) <= {name for _, _, name in uncalled()}
