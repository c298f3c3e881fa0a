"""The mutant table of ``tools/mutate.py`` stays applicable.

Running the mutants takes minutes and is not part of this suite; this only
checks that each entry still names text that occurs exactly once in its
file, and test files that exist, so a change to the code cannot leave the
table silently pointing at nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_NAME = "funbox_tools_mutate"  # a name no other import in the process uses
_spec = importlib.util.spec_from_file_location(_NAME, ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
sys.modules[_NAME] = mutate  # dataclasses look their module up by name
try:
    _spec.loader.exec_module(mutate)
finally:
    del sys.modules[_NAME]


def test_mutant_names_are_unique():
    names = [m.name for m in mutate.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", mutate.MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_exactly_once(m):
    assert (ROOT / m.file).read_text().count(m.old) == 1
    assert m.new != m.old
    assert m.tests and all((ROOT / t).is_file() for t in m.tests)
