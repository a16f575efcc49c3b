"""The modules each start loads and the boundaries between the modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cytk"


def dotted(node):
    """The dotted name of a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def is_module(name):
    path = PACKAGE.joinpath(*name.split(".")[1:])
    return name == "cytk" or path.with_suffix(".py").exists()


def cytk_names(path):
    """(line, module, name) of each module-level name of a cytk module that
    the source at ``path`` imports or reads."""
    bound = {}  # local name -> the cytk module it stands for
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cytk":
                    local = alias.asname or "cytk"
                    bound[local] = alias.name if alias.asname else "cytk"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ("cytk", module)))
            if module.split(".")[0] != "cytk":
                continue
            for alias in node.names:
                name = f"{module}.{alias.name}"
                if is_module(name):
                    bound[alias.asname or alias.name] = name
                else:
                    found.append((node.lineno, module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = dotted(node.value)
            if owner is None or owner.split(".")[0] not in bound:
                continue
            head, _, rest = owner.partition(".")
            module = ".".join(filter(None, (bound[head], rest)))
            if is_module(module):
                found.append((node.lineno, module, node.attr))
    return found


def private_names_from_other_modules(path):
    """(line, name) of each ``_``-prefixed module-level name of another
    cytk module that the source at ``path`` imports or reads."""
    own = f"cytk.{path.stem}" if path.parent == PACKAGE else None
    return [
        (line, f"{module}.{name}")
        for line, module, name in cytk_names(path)
        if name.startswith("_") and module != own
    ]


def cytk_modules_loaded_by(statement):
    """The ``cytk.*`` modules loaded once ``statement`` has run in a fresh
    interpreter, whatever it prints."""
    probe = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(*sorted(name for name in sys.modules if name.startswith('cytk.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")
    return set(result.stdout.split())


def test_importing_the_package_loads_no_module():
    assert cytk_modules_loaded_by("import cytk") == set()


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (["analyze", "5", "1", "1", "1", "1", "1"], {"cytk.surface", "cytk.torusq"}),
        (
            ["census", str(ROOT / "tests" / "data" / "census" / "mixed.txt")],
            {"cytk.surface", "cytk.torusq"},
        ),
        (["surface", "A1"], {"cytk.torusq"}),
    ],
    ids=["analyze", "census", "surface"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, not_loaded):
    loaded = cytk_modules_loaded_by(f"from cytk.cli import main; assert main({argv!r}) == 0")
    assert "cytk.cli" in loaded and loaded & not_loaded == set()


def test_no_private_name_crosses_modules():
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    crossings = {
        str(path.relative_to(ROOT)): found
        for path in sources
        if (found := private_names_from_other_modules(path))
    }
    assert crossings == {}


def test_every_cytk_name_the_benchmark_reads_exists():
    # perfbench/ imports some private names, such as the builtin torus
    # specifications make_data.py writes its data from; deleting one must
    # fail here rather than break the benchmark's data script unnoticed.
    missing = [
        (str(path.relative_to(ROOT)), line, f"{module}.{name}")
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for line, module, name in cytk_names(path)
        if not hasattr(importlib.import_module(module), name)
        and not is_module(f"{module}.{name}")
    ]
    assert missing == []
