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
