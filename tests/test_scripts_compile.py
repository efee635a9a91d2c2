"""Every example and benchmark script must at least compile, and every
CLI command README shows must parse.

Full executions are exercised manually / by the benchmark suite; this
guards against bit-rot (renamed imports, syntax errors, deleted flags) at
test speed.
"""

import os
import py_compile
import re
import shlex

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scripts(directory):
    path = os.path.join(ROOT, directory)
    return sorted(
        os.path.join(path, name)
        for name in os.listdir(path)
        if name.endswith(".py")
    )


@pytest.mark.parametrize("script", _scripts("examples"), ids=os.path.basename)
def test_example_compiles(script):
    py_compile.compile(script, doraise=True)


@pytest.mark.parametrize("script", _scripts("benchmarks"), ids=os.path.basename)
def test_benchmark_script_compiles(script):
    py_compile.compile(script, doraise=True)


@pytest.mark.parametrize("script", _scripts("examples"), ids=os.path.basename)
def test_example_has_module_docstring(script):
    with open(script, "r", encoding="utf-8") as handle:
        source = handle.read()
    assert source.lstrip().startswith('"""'), f"{script} lacks a docstring"


def _readme_cli_commands():
    """Every ``python -m repro.cli ...`` command in README's fenced code
    blocks, ``\\`` continuation lines joined, as argument lists."""
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as handle:
        blocks = re.findall(r"^\s*```[^\n]*\n(.*?)^\s*```", handle.read(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            _, found, rest = line.partition("python -m repro.cli")
            if found:
                commands.append(shlex.split(rest, comments=True))
    return commands


def test_readme_lists_cli_commands():
    assert len(_readme_cli_commands()) >= 3


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_command_parses(argv):
    from repro.cli import build_parser

    try:
        build_parser().parse_args(argv)
    except SystemExit as error:
        pytest.fail(f"README advertises `repro.cli {' '.join(argv)}`: {error}")
