"""The package reads no environment variable.

Every answer of ``funbox`` depends on the arguments of the call alone, so
the same call gives the same answer in any shell: a size guard is set with
``max_n=`` / ``--max-n``, never by the environment. The check walks the
syntax tree of each module under ``src/funbox`` and fails on any use of
``os.environ``, ``os.getenv`` or ``os.putenv`` (and their bytes and unset
forms), through ``import os``, ``import os as ...`` or ``from os import``.
Other ``os`` functions, such as ``os.cpu_count``, stay allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "funbox"
_READS = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """Each (line, expression) of ``source`` that touches the environment."""
    tree = ast.parse(source)
    os_names = {"os"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _READS
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {a.name}") for a in node.names if a.name in _READS
            ]
    return sorted(found)


def test_the_check_finds_every_form():
    source = "\n".join([
        "import os",
        "import os as system",
        "from os import getenv, path",
        "limit = os.environ.get('N')",
        "system.putenv('N', '1')",
        "workers = os.cpu_count()",
        "home = os.path.expanduser('~')",
    ])
    assert environment_reads(source) == [
        (3, "from os import getenv"),
        (4, "os.environ"),
        (5, "system.putenv"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []


def test_every_module_is_checked():
    assert {p.name for p in SRC.rglob("*.py")} >= {"__init__.py", "cli.py", "parameters.py"}
