"""What the code imports is what ``pyproject.toml`` declares, and CI
installs it.

Two gates over the checkout, both read as text (no third-party parser):

* every ``import`` under ``src/``, ``tests/`` and ``benchmarks/``, parsed
  with ``ast``, names a top-level module its scope may use: the standard
  library (``sys.stdlib_module_names``) and ``repro`` everywhere; the
  scope's own local helpers in ``tests/`` and ``benchmarks/``; and the
  ``test`` extra in ``tests/``, the ``bench`` extra in ``benchmarks/``
  (a distribution ``a-b`` is imported as ``a_b``);
* every workflow job whose ``pytest`` collects ``tests/`` installs the
  ``test`` extra (``.[test]``), and every job whose ``pytest`` collects
  ``benchmarks/`` installs the ``bench`` extra (``.[test,bench]``).

Run alone with ``python -m pytest tests/test_dependencies.py -q``.
"""

from __future__ import annotations

import ast
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Each scope and the extra of ``pyproject.toml`` it may import from
#: (``None``: none — ``src/`` runs on the standard library alone).
SCOPES = {"src": None, "tests": "test", "benchmarks": "bench"}

#: pytest options that take the next token as their value.
_VALUED_OPTIONS = {"-m", "-k", "-p", "-c", "-o", "--rootdir"}


def declared_extras(text: str) -> Dict[str, List[str]]:
    """``[project.optional-dependencies]`` of a ``pyproject.toml`` text."""
    section = text.split("[project.optional-dependencies]", 1)[1]
    section = section.split("\n[", 1)[0]
    return {match.group(1): ast.literal_eval(match.group(2))
            for match in re.finditer(r"^([\w-]+)\s*=\s*(\[.*\])\s*$",
                                     section, re.MULTILINE)}


def imported_names(path: Path) -> Set[str]:
    """The top-level module of every absolute import in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def local_helpers(scope: Path) -> Set[str]:
    """The scope's own importable names: itself, its modules and dirs."""
    return ({scope.name}
            | {path.stem for path in scope.rglob("*.py")}
            | {path.name for path in scope.rglob("*") if path.is_dir()})


def undeclared_imports(extras: Dict[str, List[str]]) -> List[str]:
    """``path: name`` for each import its scope does not declare."""
    found = []
    for scope, extra in SCOPES.items():
        directory = ROOT / scope
        allowed = set(sys.stdlib_module_names) | {"repro"}
        if extra is not None:
            allowed |= local_helpers(directory)
            allowed |= {name.replace("-", "_") for name in extras[extra]}
        for path in sorted(directory.rglob("*.py")):
            found.extend(f"{path.relative_to(ROOT)}: {name}"
                         for name in sorted(imported_names(path) - allowed))
    return found


def workflow_jobs(text: str) -> Dict[str, str]:
    """Each job of a workflow text under ``jobs:``, as its own text."""
    jobs: Dict[str, str] = {}
    name = None
    in_jobs = False
    for line in text.splitlines():
        if line.strip() and not line.startswith(" "):
            in_jobs, name = line.rstrip() == "jobs:", None
            continue
        header = re.match(r"^  ([\w-]+):\s*$", line)
        if in_jobs and header:
            name = header.group(1)
            jobs[name] = ""
        elif name is not None:
            jobs[name] += line + "\n"
    return jobs


def runs_pytest_over(job: str, scope: str) -> bool:
    """True if a ``pytest`` command of ``job`` collects ``scope``.

    A command with no path argument collects the ``testpaths`` of
    ``pyproject.toml``, which is ``tests``.
    """
    for line in job.splitlines():
        command = re.search(r"(?:^|\s)(?:python3?\s+-m\s+)?pytest(\s.*)?$",
                            line)
        if command is None or "pip install" in line \
                or line.lstrip().startswith("#"):
            continue
        tokens = shlex.split(command.group(1) or "")
        paths = [token for previous, token in zip([""] + tokens, tokens)
                 if not token.startswith("-")
                 and previous not in _VALUED_OPTIONS]
        if any(path.split("/")[0] == scope for path in paths or ["tests"]):
            return True
    return False


def installs(job: str, extra: str) -> bool:
    """True if a ``pip install`` line of ``job`` installs ``extra``."""
    for line in job.splitlines():
        if "pip install" not in line:
            continue
        for token in shlex.split(line.split("pip install", 1)[1]):
            extras = re.search(r"\[([\w,-]+)\]$", token)
            if extras and extra in extras.group(1).split(","):
                return True
    return False


def jobs_missing_an_extra(workflows: Dict[str, str]) -> List[str]:
    """``file:job`` for each job that runs a scope without its extra."""
    return [f"{filename}:{name}"
            for filename, text in sorted(workflows.items())
            for name, job in workflow_jobs(text).items()
            if any(extra is not None and runs_pytest_over(job, scope)
                   and not installs(job, extra)
                   for scope, extra in SCOPES.items())]


def _workflows() -> Dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / ".github" / "workflows").glob("*.yml"))}


def _extras() -> Dict[str, List[str]]:
    return declared_extras((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))


def test_every_import_is_declared_for_its_scope():
    assert undeclared_imports(_extras()) == []


def test_an_undeclared_test_dependency_names_its_modules():
    extras = _extras()
    without = {**extras,
               "test": [name for name in extras["test"]
                        if name != "hypothesis"]}
    users = sorted(str(path.relative_to(ROOT))
                   for path in (ROOT / "tests").rglob("*.py")
                   if "hypothesis" in imported_names(path))
    assert len(users) >= 10
    assert undeclared_imports(without) == [f"{path}: hypothesis"
                                           for path in users]


def test_every_tier1_job_installs_the_test_extra():
    workflows = _workflows()
    assert sum(runs_pytest_over(job, "tests") for text in workflows.values()
               for job in workflow_jobs(text).values()) >= 5
    assert jobs_missing_an_extra(workflows) == []


def test_a_benchmark_job_installs_the_bench_extra():
    jobs = workflow_jobs(_workflows()["ci.yml"])
    assert [name for name, job in jobs.items()
            if runs_pytest_over(job, "benchmarks")] == ["perf-smoke"]
    assert installs(jobs["perf-smoke"], "bench")


@pytest.mark.parametrize("install, job", [
    ('".[test]"', "tests"), ('".[test,bench]"', "perf-smoke")])
def test_a_job_that_drops_the_extra_is_named(install, job):
    workflows = _workflows()
    ci = workflows["ci.yml"]
    assert install in ci
    dropped = {**workflows, "ci.yml": ci.replace(
        f"python -m pip install -e {install}\n",
        "python -m pip install pytest\n", 1)}
    assert jobs_missing_an_extra(dropped) == [f"ci.yml:{job}"]
