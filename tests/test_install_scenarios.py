"""Tier-1 runs ``install_scenarios.py``, which CI runs on the package alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent / "install_scenarios.py"


def test_the_install_scenarios_pass(tmp_path):
    shim = tmp_path / "sqlknow"  # what pip's console script does
    shim.write_text(f"#!{sys.executable}\nimport sys\nfrom sqlknow.cli import main\n"
                    "sys.exit(main())\n")
    shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}",
           "PYTHONPATH": str(SCRIPT.resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, SCRIPT], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, f"{done.stdout[-3000:]}\n{done.stderr[-5000:]}"


def test_the_install_scenarios_import_only_the_standard_library_and_sqlknow():
    """The install job has no test extras, so a test-only import would fail there."""
    nodes = list(ast.walk(ast.parse(SCRIPT.read_text(encoding="utf-8"))))
    names = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    names += ["." * n.level + (n.module or "") for n in nodes if isinstance(n, ast.ImportFrom)]
    assert {name.split(".")[0] for name in names} - sys.stdlib_module_names == {"sqlknow"}, names
