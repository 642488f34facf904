import json
import sys
from pathlib import Path

import pytest

from bettidecomp import BettiDiagram, parse_diagram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def quotient_diagram() -> BettiDiagram:
    """Betti table of k[x,y,z]/(x^2, x*y, x*z^2)."""
    return parse_diagram((FIXTURES / "quotient_x2_xy_xz2.json").read_text(), "json")


@pytest.fixture(scope="session")
def dual_functionals() -> dict:
    return json.loads((FIXTURES / "dual_functionals_n3_window_0_2.json").read_text())


@pytest.fixture(scope="session")
def five_tableaux() -> dict:
    return json.loads((FIXTURES / "tableaux_n2_window_0_1.json").read_text())


@pytest.fixture(scope="session")
def pure_summands() -> dict:
    return json.loads((FIXTURES / "pure_summands.json").read_text())


@pytest.fixture()
def default_int_digits():
    """Python's default int-to-str digit limit, 4,300, for one test, and
    whatever limit was set before it afterwards; skipped on an interpreter
    without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)
