import math

import numpy as np
import pytest

import oracles
from resrelax import (
    NumericalError,
    OutOfRange,
    PopulationState,
    StepConfig,
    StepTooLarge,
    ZeroRelaxationRate,
    equilibrium_energy,
    evolve_closed_form,
    evolve_ode,
    fit_decay_rate,
)

GRF, GSR, W0 = 0.2, 0.12, 1.0


def test_closed_form_endpoints():
    start = evolve_closed_form(GRF, GSR, W0, 0.5, 0.0)
    assert start.mean_energy == pytest.approx(0.5)
    late = evolve_closed_form(GRF, GSR, W0, 0.5, 400.0)
    assert late.mean_energy == pytest.approx(
        equilibrium_energy(GRF, GSR, W0), rel=1e-12
    )


def test_closed_form_matches_independent_expression():
    for tau in (0.0, 1.7, 9.3):
        got = evolve_closed_form(GRF, GSR, W0, -0.1, tau).mean_energy
        assert got == pytest.approx(
            oracles.mean_energy_closed(GRF, GSR, W0, -0.1, tau), rel=1e-14
        )


def test_equilibrium_energy_value():
    # -(w0/2) gamma_sr / gamma_rf
    assert equilibrium_energy(GRF, GSR, W0) == pytest.approx(-0.3)
    with pytest.raises(ZeroRelaxationRate):
        equilibrium_energy(0.0, GSR, W0)


def test_thermal_equilibrium_is_tanh():
    # gamma_rf/gamma_sr = coth(w0/2T) gives <H> = -(w0/2) tanh(w0/2T)
    temp = 0.7
    grf = 0.3 / math.tanh(0.5 * W0 / temp)
    heq = equilibrium_energy(grf, 0.3, W0)
    assert heq == pytest.approx(-0.5 * W0 * math.tanh(0.5 * W0 / temp))


class TestOde:
    def test_matches_closed_form(self):
        traj = evolve_ode(GRF, GSR, W0, 0.5, 30.0)
        for state in traj[:: 20]:
            ref = oracles.mean_energy_closed(GRF, GSR, W0, 0.5, state.tau)
            assert state.mean_energy == pytest.approx(ref, rel=1e-8)

    def test_monotone_decay(self):
        traj = evolve_ode(GRF, GSR, W0, 0.5, 40.0)
        energies = [s.mean_energy for s in traj]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-14)

    def test_flat_at_equilibrium(self):
        heq = equilibrium_energy(GRF, GSR, W0)
        traj = evolve_ode(GRF, GSR, W0, heq, 20.0)
        assert max(abs(s.mean_energy - heq) for s in traj) < 1e-13

    def test_sample_count_and_spacing(self):
        traj = evolve_ode(GRF, GSR, W0, 0.5, 10.0,
                          StepConfig(n_samples=21))
        assert len(traj) == 21
        taus = np.array([s.tau for s in traj])
        assert taus[0] == 0.0 and taus[-1] == pytest.approx(10.0)
        assert np.allclose(np.diff(taus), 0.5)

    def test_step_halving_improves_fourth_order(self):
        def err_at(step):
            traj = evolve_ode(GRF, GSR, W0, 0.5, 8.0,
                              StepConfig(step=step, n_samples=2))
            ref = oracles.mean_energy_closed(GRF, GSR, W0, 0.5, 8.0)
            return abs(traj[-1].mean_energy - ref)

        coarse, fine = err_at(1.0), err_at(0.5)
        assert fine < coarse / 10.0  # fourth order would give 16

    def test_rejects_unstable_step(self):
        with pytest.raises(StepTooLarge):
            evolve_ode(5.0, 1.0, W0, 0.5, 10.0, StepConfig(step=1.0))

    def test_rejects_bad_horizon(self):
        with pytest.raises(OutOfRange):
            evolve_ode(GRF, GSR, W0, 0.5, -1.0)
        with pytest.raises(OutOfRange):
            evolve_ode(GRF, GSR, W0, 0.5, 10.0, StepConfig(n_samples=1))

    def test_zero_rate_plateau(self):
        # without relaxation the ODE keeps whatever it starts with
        traj = evolve_ode(0.0, 0.0, W0, 0.37, 5.0)
        assert all(s.mean_energy == pytest.approx(0.37) for s in traj)


class TestDecayFit:
    def test_recovers_rate_from_closed_form(self):
        taus = np.linspace(0.0, 25.0, 120)
        heq = equilibrium_energy(GRF, GSR, W0)
        traj = [evolve_closed_form(GRF, GSR, W0, 0.5, t) for t in taus]
        fitted = fit_decay_rate(traj, heq)
        assert fitted == pytest.approx(GRF, rel=1e-9)

    def test_slope_matches_polyfit(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 40, 1000):
            taus = np.sort(rng.uniform(0.0, 30.0, n))
            devs = np.exp(-rng.uniform(0.01, 0.5) * taus
                          + rng.normal(0.0, 0.3, n))
            traj = [PopulationState(t, d) for t, d in zip(taus, devs)]
            ref = -np.polyfit(taus, np.log(devs), 1)[0]
            assert fit_decay_rate(traj, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_refuses_times_whose_squares_underflow(self):
        traj = [PopulationState(t, math.exp(-1e300 * t))
                for t in (0.0, 1e-300, 2e-300)]
        with pytest.raises(NumericalError, match="evolve.tau_end"):
            fit_decay_rate(traj, 0.0)

    def test_refuses_times_whose_squares_overflow(self):
        # refused without an overflow warning (warnings fail the suite)
        traj = [PopulationState(t, math.exp(-1e-200 * t))
                for t in (0.0, 1e200, 2e200)]
        with pytest.raises(NumericalError, match="evolve.tau_end"):
            fit_decay_rate(traj, 0.0)

    def test_flat_trajectory_gives_zero(self):
        heq = equilibrium_energy(GRF, GSR, W0)
        traj = evolve_ode(GRF, GSR, W0, heq, 5.0)
        assert fit_decay_rate(traj, heq) == 0.0
