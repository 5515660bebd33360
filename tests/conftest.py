import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# property tests must be as reproducible as everything else
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from mbsa.faults import extend_model, load_fault_library, parse_fei
from mbsa.sts.check import type_check
from mbsa.sts.engine import breadth_first
from mbsa.sts.parse import parse_expr_text, parse_model
from mbsa.tfpg import parse_binding, parse_tfpg

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh process that imports ``mbsa`` from ``src``
    and writes no bytecode, with its output captured as text."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"})


def _refute_tfpg(tmp_path) -> str:
    """The fixture graph without edge B1_DEAD -> S2_NO: no longer complete."""
    mutated = tmp_path / "refute.tfpg"
    mutated.write_text("".join(l for l in (FIXTURES / "battery_sensor.tfpg").read_text().splitlines(True)
                               if not l.startswith("edge B1_DEAD -> S2_NO ")))
    return str(mutated)


def build_extended(model_text: str, fei_text: str, flib_text: str = ""):
    typed = type_check(parse_model(model_text))
    library = load_fault_library(flib_text)
    return extend_model(typed, library, parse_fei(fei_text))


def reachable_tuples(engine):
    """Every state ``engine`` reaches, by the breadth-first search of the
    analyses under the engine's state cap."""

    def expand(s):
        return engine.init_tuples() if s is None else engine.succ_tuples(s), ()

    _, stored = next(breadth_first(expand, None, engine.cap, "states"))
    return set(stored)


def checked_expr(xm, text: str):
    expr = parse_expr_text(text)
    xm.typed.check_expr(expr)
    return expr


REDUNDANT_PAIR_SMX = """MODULE redundant_pair
VAR a : boolean; b : boolean; c : boolean;
INIT !a & !b & !c;
TRANS next(a) = a;
TRANS next(b) = b;
TRANS next(c) = c;
"""

REDUNDANT_PAIR_FEI = """
fault fa: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;
fault fb: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;
fault fc: target c, template stuck_at(TRUE), dynamics permanent, prob 0.1;
"""

# tle requires fa strictly before fb: the latch arms only while a is failed
# and b still healthy
LATCH_SMX = """MODULE latch
VAR x : boolean; y : boolean; armed : boolean;
INIT !x & !y & !armed;
TRANS next(x) = x;
TRANS next(y) = y;
TRANS next(armed) = armed | (x & !y);
"""

LATCH_FEI = """
fault fa: target x, template stuck_at(TRUE), dynamics permanent, prob 0.1;
fault fb: target y, template stuck_at(TRUE), dynamics permanent, prob 0.1;
"""


@pytest.fixture(scope="session")
def redundant_pair():
    return build_extended(REDUNDANT_PAIR_SMX, REDUNDANT_PAIR_FEI)


@pytest.fixture(scope="session")
def latch_model():
    return build_extended(LATCH_SMX, LATCH_FEI)


@pytest.fixture(scope="session")
def battery_sensor():
    return build_extended(
        (FIXTURES / "battery_sensor.smx").read_text(),
        (FIXTURES / "battery_sensor.fei").read_text(),
    )


@pytest.fixture(scope="session")
def battery_tfpg():
    return parse_tfpg((FIXTURES / "battery_sensor.tfpg").read_text())


@pytest.fixture(scope="session")
def battery_binding(battery_sensor):
    return parse_binding((FIXTURES / "battery_sensor.bind").read_text(), battery_sensor)


GOLDEN_MCS = {
    frozenset({"S1_Off", "S2_Off"}),
    frozenset({"G1_Off", "G2_Off"}),
    frozenset({"G1_Off", "S2_Off"}),
    frozenset({"S1_Off", "G2_Off"}),
}
