import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import weightlab

# Run in a child process, so that the weightlab classes of this test run are not
# dropped from sys.modules.
REIMPORT = textwrap.dedent("""
    import gc, sys, weakref
    import weightlab.checks, weightlab.cli
    first = weakref.ref(sys.modules["weightlab.gf2"].BitMatrix)
    for name in [m for m in sys.modules if m.partition(".")[0] == "weightlab"]:
        del sys.modules[name]
    import weightlab.cli
    gc.collect()
    sys.exit(0 if first() is None else 1)
""")


def test_reimport_releases_the_previous_modules():
    src = str(Path(weightlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or "the first BitMatrix class is still alive"


def test_the_cli_imports_no_check_euler_or_fixture_module():
    # The check suites, the Euler calculus and the fixture corpus are
    # imported by the verbs that use them, so no other request pays for them.
    src = str(Path(weightlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, weightlab.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "weightlab.cli" in loaded
    assert not loaded & {"weightlab.euler", "weightlab.checks", "weightlab.fixtures"}



def _package_modules(node: ast.AST) -> list[str]:
    """The package modules that an import statement names ("" for the
    package itself); none for another statement or another package."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    return [name.partition(".")[2] for name in names if name.partition(".")[0] == "weightlab"]


def test_no_package_module_is_imported_inside_a_function():
    # An import in a function body hides a cycle in the import graph.  The
    # exceptions are the CLI verbs that alone read the check suites and the
    # Euler calculus (see the test above).
    allowed = {("cli", "checks"), ("cli", "euler")}
    found = set()
    for path in sorted(Path(weightlab.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{node.lineno} imports {module or 'the package'}"
                    for node in ast.walk(func) for module in _package_modules(node)
                    if (path.stem, module) not in allowed)
    assert not found, sorted(found)
