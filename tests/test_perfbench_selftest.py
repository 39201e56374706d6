"""The benchmark's self-test: its independent oracle must accept this build's outputs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="perfbench/ is not part of this checkout")
def test_perfbench_self_test_passes(tmp_path):
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--self-test",
         "--results", str(tmp_path / "runs.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
