import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_edits_one_place_and_names_existing_tests(mutant):
    # a refactor that moves or rewrites the mutated text must carry the row
    # along, or the mutant would edit nothing
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        *classes, function = names
        for cls in classes:
            assert re.search(rf"^class {cls}\b", source, re.M), test_id
        function = function.split("[")[0]  # a parametrized case's ID
        assert re.search(rf"^\s*def {function}\(", source, re.M), test_id
