"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints the criterion verdict line so a plain pytest run shows one
pass/fail line per criterion (use -s to see them live).
"""
import subprocess
import sys
from pathlib import Path

import pytest

from selfsim import acceptance, shooting
from selfsim.fixtures import SUBCRITICAL_SCAN


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS,
                         ids=[f"criterion_{i}" for i in
                              range(1, len(acceptance.ALL_CHECKS) + 1)])
def test_acceptance_criterion(check):
    result = check()
    print(result.verdict_line())
    assert result.passed, f"{result.name}: {result.details}"


STALLED_STEP = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
from selfsim import acceptance, flow
flow._try_step = lambda state, dt: None     # every attempt fails
result = acceptance.check_flow_oracle()
assert result.cid == 8 and not result.passed, result
assert result.details["kappa_flags"] == [
    "step size exhausted without clear growth"], result.details
"""


def test_flow_oracle_fails_on_a_stalled_step_instead_of_hanging():
    # in a subprocess with a timeout: a kappa hold that ignores an exhausted
    # step spins forever with tau fixed
    proc = subprocess.run([sys.executable, "-c", STALLED_STEP],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_energy_ordering_scans_the_subcritical_grid_once(monkeypatch):
    # the brackets come from the scan's own rows, not from a second scan
    subcritical = []
    departures = shooting._departures

    def spy(params, heights, *args, **kwargs):
        if params.p == 2.0:
            subcritical.append(len(heights))
        return departures(params, heights, *args, **kwargs)

    monkeypatch.setattr(shooting, "_departures", spy)
    result = acceptance.check_energy_ordering()
    # heights shot, the undecided ones' (empty) trajectory call included
    assert sum(subcritical) == len(SUBCRITICAL_SCAN[(3, 2.0)]) == 36
    assert result.details["subcritical_all_sign_changing"] is True
    assert result.details["subcritical_brackets"] == 0
