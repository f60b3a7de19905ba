"""The README's code promises, executed.

Keeps the documentation honest: the quickstart snippet runs as
written, the package docstring's doctest holds, and every example
script at least parses/compiles.
"""

from __future__ import annotations

import ast
import doctest
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestDocumentation:
    def test_package_doctest(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0

    def test_readme_quickstart_executes(self):
        readme = (REPO_ROOT / "README.md").read_text()
        start = readme.index("```python") + len("```python")
        end = readme.index("```", start)
        snippet = readme[start:end]
        namespace: dict = {}
        exec(compile(snippet, "<README quickstart>", "exec"), namespace)

    def test_all_examples_compile(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 7
        for path in examples:
            ast.parse(path.read_text(), filename=str(path))

    def test_all_examples_have_docstrings(self):
        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            mod = ast.parse(path.read_text())
            assert ast.get_docstring(mod), path.name

    def test_design_and_experiments_reference_real_benches(self):
        """Every bench script, ``python -m repro`` sub-command and
        ``BENCH*.json`` file the docs name must exist."""
        from repro.cli import main

        bench_names = {
            p.name
            for p in (REPO_ROOT / "scripts").glob("bench_*.py")
        }
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            text = (REPO_ROOT / doc).read_text()
            missing = set(re.findall(r"bench_\w+\.py", text)) - bench_names
            assert not missing, f"{doc} references unknown benches: {missing}"

            commands = set(
                re.findall(
                    r"python3? -m repro(?: --debug| --artifacts \S+)* (\w+)",
                    text,
                )
            )
            for cmd in sorted(commands):
                with pytest.raises(SystemExit) as exit_info:
                    main([cmd, "--help"])
                assert exit_info.value.code == 0, (
                    f"{doc} names `python -m repro {cmd}`, not a sub-command"
                )

            for name in set(re.findall(r"BENCH\w*\.json", text)):
                assert (REPO_ROOT / name).is_file(), (
                    f"{doc} names {name}, absent from the repo root"
                )

    def test_public_modules_have_docstrings(self):
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            mod = ast.parse(path.read_text())
            assert ast.get_docstring(mod), f"{path} lacks a module docstring"
