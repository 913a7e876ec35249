"""The names the benchmark reads from gridmix resolve.

``perfbench/`` is read here, never imported or edited: the tracer's
``TARGETS`` and the ``analysis.<name>`` and ``lp.<name>`` reads of the
workloads and the worker are taken from their source with ``ast``. So a
trim of ``gridmix.analysis`` or of ``gridmix.lp``'s lazy names past what
the benchmark reads fails in the tests, not only in a benchmark run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gridmix.analysis as analysis
import gridmix.lp as lp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parsed(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def test_every_tracer_target_resolves_through_sys_modules():
    # The tracer looks each target up as sys.modules[module].<function> once
    # the workloads have imported gridmix.analysis and gridmix.cli; a fresh
    # process holds only what those two imports load.
    targets = next(
        ast.literal_eval(node.value)
        for node in parsed("tracing.py").body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    assert ("gridmix.analysis", "enumerate_vertices") in targets
    script = (
        "import sys\nimport gridmix.analysis, gridmix.cli\n"
        f"print([t for t in {targets!r} if not callable(getattr(sys.modules.get(t[0]), t[1], None))])\n"
    )
    src = str(Path(lp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_every_analysis_and_lp_name_the_workloads_read_exists():
    modules = {"analysis": analysis, "lp": lp}
    reads = {
        (node.value.id, node.attr)
        for name in ("workloads.py", "worker.py")
        for node in ast.walk(parsed(name))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {("analysis", "sweep"), ("lp", "check_feasible")} <= reads
    assert [f"{module}.{name}" for module, name in sorted(reads) if not hasattr(modules[module], name)] == []
