"""The CI checks without a tier-1 twin, at tier-1 sizes, and the gates that
keep the workflow and the sources in step with CI."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import ci_checks
from ci_checks import EPIWORD

_ROOT = Path(__file__).resolve().parents[1]


_SMALL = {
    "verify_budgets": (EPIWORD, 8, 5),
    "balanced_batch": (EPIWORD, 8),
    "episturmian_net": ("abc", 6, 420),
    "balance_net": (10, 458),
}


@pytest.mark.parametrize("name", _SMALL)
def test_ci_check_at_a_small_size(name):
    ci_checks.CHECKS[name](*_SMALL[name])


def test_workflow_calls_every_check_by_its_signature():
    workflow = (_ROOT / ".github" / "workflows" / "tests.yml").read_text()
    calls = re.findall(r"python -m ci_checks (\w+)(.*)", workflow)
    assert {name for name, _ in calls} == set(ci_checks.CHECKS)
    for name, args in calls:
        inspect.signature(ci_checks.CHECKS[name]).bind(*args.split())


def test_sources_parse_as_python_3_10():
    # Syntax only: the 3.10 leg of CI is what checks library APIs.
    for path in sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
