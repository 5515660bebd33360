"""The demos are the library API the README promises: each must run clean."""

import pytest

from conftest import ROOT, fresh_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = fresh_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
