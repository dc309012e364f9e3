"""Every module and function under ``src/repro`` is run by the project itself.

A module whose only importer is a package ``__init__`` re-export (or a
test) is library-only code: nothing the simulator, the service or the CLI
executes reaches it. Likewise a function or method whose name no code in
``src/``, ``benchmarks/`` or ``examples/`` refers to (comments and
docstrings do not count) is called by tests alone. These guards fail when either
appears; the named entry points and test oracles below are the only
exceptions.
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
    "actual_start": "tests/sched/test_executor.py (reserved vs actual execution)",
    "actual_end": "tests/sched/test_executor.py, tests/experiments/test_hygiene.py",
    "lateness": "tests/sched/test_executor.py, tests/core/test_rtds_options.py",
    "delivery_time": "tests/simnet/test_network_cache.py (the arithmetic transmit inlines)",
    "of": "tests/faults/test_hardening.py (reads the protocol trace by category)",
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
    package = name if is_init else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


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
    """(file, qualified name, name) of every top-level function and method in
    ``src/repro``; dunder methods are the language's to call."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                qual = fn.name if fn is node else f"{node.name}.{fn.name}"
                yield path.relative_to(ROOT), qual, fn.name


def referenced_names(tree):
    """Every name the code in ``tree`` refers to: bare names, attributes,
    imported names and identifier strings (``getattr(obj, "name")``).
    Comments, docstrings and ``def`` lines refer to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def uncalled():
    """The functions whose name no code in CALLER_DIRS refers to."""
    refs = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs.update(referenced_names(ast.parse(path.read_text())))
    return [(path, qual, name) for path, qual, name in functions() if name not in refs]


def test_every_function_has_a_caller_outside_the_tests():
    unexpected = [f"{path}: {qual}" for path, qual, name in uncalled() if name not in TEST_ORACLES]
    assert unexpected == [], (
        "functions only tests call; delete them (with the tests that test "
        "only them) or, if a test uses one as an oracle, add it to TEST_ORACLES"
    )


def test_test_oracles_are_uncalled_functions():
    """An oracle that gains a caller, or loses its definition, leaves the list."""
    assert set(TEST_ORACLES) <= {name for _, _, name in uncalled()}
