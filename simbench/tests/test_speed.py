"""The speed probe's factor arithmetic and its timer lifecycle."""

from __future__ import annotations

import signal
import time

import pytest

from simbench import speed
from simbench.rep import Phases


def test_factor_is_reference_over_phase_median():
    probe = speed.SpeedProbe()
    probe.samples = [2e-4, 4e-4, 4e-4, 1e-4]
    assert probe.factor(0, 3) == pytest.approx(speed.REFERENCE_S / 4e-4)
    assert probe.factor(3) == pytest.approx(speed.REFERENCE_S / 1e-4)


def test_empty_phase_is_probed_on_the_spot():
    probe = speed.SpeedProbe()
    assert probe.factor(0) > 0
    assert probe.samples == []


def test_phases_chain_and_default_to_one():
    assert Phases(None).close() == 1.0
    probe = speed.SpeedProbe()
    phases = Phases(probe)
    probe.samples = [2e-4, 2e-4]
    assert phases.close() == pytest.approx(speed.REFERENCE_S / 2e-4)
    probe.samples += [8e-4]
    assert phases.close() == pytest.approx(speed.REFERENCE_S / 8e-4)


def test_timer_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval=0.01).start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
