"""Every module under ``src/repro`` is run by the package itself.

A module whose only importer is a package ``__init__`` re-export (or a
test) is library-only code: nothing the simulator, the service or the CLI
executes reaches it. This guard fails when such a module appears; the
named entry points and test oracles below are the only exceptions.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: modules nothing imports on purpose: entry points and test oracles
ENTRY_POINTS_AND_ORACLES = {
    "repro.cli",
    "repro.service.http",
    "repro.sched.edf",
    "repro.experiments.verify",
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
