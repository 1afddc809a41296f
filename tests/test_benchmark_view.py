"""What the benchmark in `perfbench/` reads of the library.

The benchmark imports names from nilcount, wraps two `PermGroup`
constructors by their class attributes, expects `import nilcount.cli` to
load every module it traces, and passes the hidden `--exhaustive-cap`
option to every `invariants` job.  These tests read `perfbench/` and change
nothing there, so a library change that would break a benchmark run fails
here first.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from nilcount.cli import build_parser
from nilcount.permcore import PermGroup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(importlib.util.find_spec("nilcount").origin).parents[1]


def perfbench_imports():
    """(file, module, name) for every `from nilcount... import name`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "nilcount"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def traced_modules():
    """`tracing.MODULES`, loaded from its file without running the worker."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MODULES


def test_every_name_the_benchmark_imports_resolves():
    imports = list(perfbench_imports())
    assert imports  # checks.py imports get_group, center, ...
    for path, module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{path}: from {module} import {name}"


def test_the_traced_constructors_are_class_attributes():
    for name in ("generate", "from_elements"):
        assert isinstance(PermGroup.__dict__.get(name), classmethod), name


def test_importing_the_cli_loads_every_traced_module():
    modules = traced_modules()
    assert len(modules) == 10
    code = ("import json, sys\nimport nilcount.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('nilcount.'))))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {f"nilcount.{m}" for m in modules} <= loaded


def test_the_hidden_exhaustive_cap_still_parses():
    args = build_parser().parse_args(
        ["invariants", "--group", "Q8", "--field", "Q",
         "--exhaustive-cap", "128"])
    assert (args.group, args.field, args.exhaustive_cap) == ("Q8", "Q", 128)
