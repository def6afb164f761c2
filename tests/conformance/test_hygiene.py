"""Repository hygiene guard: compiled bytecode must never be tracked.

PR 3 removed 51 committed ``.pyc`` files and added ``.gitignore`` rules;
this test (and ``python -m repro check``, which CI runs)
fails the build if any ``__pycache__`` directory or ``*.pyc`` file sneaks
back into the git index.
"""

from __future__ import annotations

import os

import pytest

from repro.conformance import tracked_bytecode

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_no_tracked_bytecode():
    tracked = tracked_bytecode(REPO_ROOT)
    if tracked is None:
        pytest.skip("git unavailable or not a checkout")
    assert tracked == [], (
        f"bytecode is tracked again (PR 3 removed 51 such files): {tracked}")


def test_gitignore_covers_bytecode():
    """The ignore rules that keep bytecode out must stay in place."""
    path = os.path.join(REPO_ROOT, ".gitignore")
    if not os.path.exists(path):
        pytest.skip("no .gitignore (not a checkout)")
    with open(path, "r", encoding="utf-8") as handle:
        rules = {line.strip() for line in handle if line.strip()}
    assert "__pycache__/" in rules
    assert any(rule in rules for rule in ("*.pyc", "*.py[cod]"))


def test_tracked_bytecode_detects_patterns(tmp_path):
    """On a synthetic repo the guard flags exactly the bytecode entries."""
    import subprocess
    try:
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True,
                       capture_output=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable")
    (tmp_path / "module.py").write_text("x = 1\n")
    cache = tmp_path / "src" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "module.cpython-312.pyc").write_bytes(b"\x00")
    subprocess.run(["git", "-C", str(tmp_path), "add", "-f", "."],
                   check=True, capture_output=True, timeout=60)
    tracked = tracked_bytecode(str(tmp_path))
    assert tracked == ["src/__pycache__/module.cpython-312.pyc"]
