import math

import mpmath
import numpy as np
import pytest

import oracles
from resrelax import (
    AcceleratedVacuum,
    InertialVacuum,
    IntegralResult,
    NegativeExcitationRate,
    NonConvergent,
    QuadratureConfig,
    ThermalOhmic,
    einstein_coefficients,
    rate_coefficients,
    rate_table,
    relaxation_rate,
    transition_rates,
    two_level_system,
)


def test_inertial_rates_match_oracle(rate_routes):
    for _, route in rate_routes:
        k = route(InertialVacuum())
        for w in (0.1, 1.0, 10.0):
            exact = oracles.inertial_gamma(w, g=1.0)
            rates = rate_coefficients(k, w, 1.0, QuadratureConfig())
            grf, gsr = rates["rf"], rates["sr"]
            assert grf.value == pytest.approx(exact, rel=1e-4)
            assert gsr.value == pytest.approx(exact, rel=1e-4)


def test_rates_scale_as_g_squared():
    k = InertialVacuum()
    one = rate_coefficients(k, 1.0, 1.0)["rf"]
    two = rate_coefficients(k, 1.0, 2.0)["rf"]
    assert two.value == pytest.approx(4.0 * one.value, rel=1e-12)


@pytest.mark.parametrize("kernel", [
    InertialVacuum(), AcceleratedVacuum(2.0), ThermalOhmic(0.5, 5.0, 0.0),
    ThermalOhmic(0.5, 5.0, 1.0)], ids=["inertial", "accelerated", "cold",
                                       "thermal"])
def test_scaling_in_place_keeps_the_bits(kernel):
    # the kernel's arrays are scaled in place, sign then g^2, as
    # g^2 (sign(w) gamma) was computed before; rf and sr share arrays on
    # the vacuum kernels and at T = 0, which must be scaled once each
    w = np.linspace(-3.0, 3.0, 13)
    raw = kernel.rate_coefficients(np.abs(w))
    g = 0.7
    got = rate_coefficients(kernel, w, g)
    for kind, sign in (("rf", 1.0), ("sr", np.sign(w))):
        values, errors = raw[kind]
        assert got[kind].value.tobytes() == (g * g * (sign * values)).tobytes()
        assert got[kind].error_estimate.tobytes() == (g * g * errors).tobytes()


def test_zero_shortcuts():
    k = InertialVacuum()
    assert rate_coefficients(k, 1.0, 0.0)["rf"].value == 0.0
    assert rate_coefficients(k, 0.0, 1.0)["sr"].value == 0.0


def test_sr_signed_is_odd():
    k = ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0)
    plus = rate_coefficients(k, 1.3, 1.0)["sr"]
    minus = rate_coefficients(k, -1.3, 1.0)["sr"]
    assert minus.value == -plus.value
    assert minus.error_estimate == plus.error_estimate


def test_accelerated_rf_matches_coth_oracle(rate_routes):
    for _, route in rate_routes:
        for a in (1.0, 2.0 * math.pi):
            k = route(AcceleratedVacuum(acceleration=a))
            got = rate_coefficients(k, 1.0, 1.0)["rf"]
            assert got.value == pytest.approx(
                oracles.accelerated_gamma_rf(1.0, a), rel=1e-6
            )


def test_accelerated_sr_independent_of_acceleration(rate_routes):
    inert = oracles.inertial_gamma(1.0)
    for _, route in rate_routes:
        for a in (0.5, 2.0, 8.0):
            k = route(AcceleratedVacuum(acceleration=a))
            assert rate_coefficients(k, 1.0, 1.0)["sr"].value \
                == pytest.approx(inert, rel=1e-6)


def test_thermal_rates_match_closed_forms(rate_routes):
    eta, omega_j, temp = 0.5, 5.0, 1.0
    for _, route in rate_routes:
        k = route(ThermalOhmic(eta=eta, omega_j=omega_j, temperature=temp))
        for w in (0.5, 1.0, 2.0):
            rates = rate_coefficients(k, w, 1.0)
            grf, gsr = rates["rf"], rates["sr"]
            assert grf.value == pytest.approx(
                oracles.thermal_gamma_rf(w, eta, omega_j, temp), rel=1e-6
            )
            assert gsr.value == pytest.approx(
                oracles.thermal_gamma_sr(w, eta, omega_j), rel=1e-6
            )


def test_thermal_rf_over_sr_is_coth(rate_routes):
    for _, route in rate_routes:
        k = route(ThermalOhmic(eta=0.3, omega_j=8.0, temperature=2.0))
        rates = rate_coefficients(k, 1.0, 1.0)
        grf, gsr = rates["rf"], rates["sr"]
        assert grf.value / gsr.value == pytest.approx(
            1.0 / math.tanh(0.25), rel=1e-7
        )


class TestEinstein:
    def test_plain_floats(self):
        e = einstein_coefficients(0.5, 0.3)
        assert e.a_up == pytest.approx(0.1)
        assert e.a_down == pytest.approx(0.4)
        assert e.ratio == pytest.approx(0.25)

    def test_integral_results_propagate_errors(self):
        e = einstein_coefficients(
            IntegralResult(0.5, 1e-6), IntegralResult(0.3, 2e-6)
        )
        assert e.a_up_error == pytest.approx(1.5e-6)
        assert e.a_down_error == pytest.approx(1.5e-6)

    def test_negative_excitation_rejected(self):
        with pytest.raises(NegativeExcitationRate):
            einstein_coefficients(0.3, 0.5)

    def test_roundoff_negative_tolerated(self):
        # a_up within the default tolerance passes through unmodified
        e = einstein_coefficients(0.3, 0.3 + 1e-14)
        assert abs(e.a_up) < 1e-13

    def test_explicit_tolerance(self):
        with pytest.raises(NegativeExcitationRate):
            einstein_coefficients(0.3, 0.3 + 1e-14, tol=1e-16)


class TestTransitionRates:
    def test_two_level_closed_form(self, atom, thermal_kernel):
        cfg = QuadratureConfig()
        rates = rate_coefficients(thermal_kernel, 1.0, 1.0, cfg)
        grf, gsr = rates["rf"].value, rates["sr"].value
        up = relaxation_rate(atom, 1, thermal_kernel, cfg)
        lo = relaxation_rate(atom, 0, thermal_kernel, cfg)
        assert up.value == pytest.approx(
            oracles.two_level_energy_flux(grf, gsr, 1.0, 0.5), rel=1e-10
        )
        assert lo.value == pytest.approx(
            oracles.two_level_energy_flux(grf, gsr, 1.0, -0.5), rel=1e-10
        )

    def test_inertial_ground_state_is_stable(self, atom):
        res = relaxation_rate(atom, 0, InertialVacuum())
        assert abs(res.value) <= 10.0 * res.error_estimate

    def test_contributions_sum(self, atom, thermal_kernel):
        rates = transition_rates(atom, 1, thermal_kernel)
        total = relaxation_rate(atom, 1, thermal_kernel)
        assert sum(r.total for r in rates) == pytest.approx(total.value)

    def test_rate_table_shape(self, atom, thermal_kernel):
        gamma_rows, transitions = rate_table(atom, thermal_kernel)
        assert len(gamma_rows) == 2
        assert {m for m, _, _, _ in gamma_rows} == {"rf", "sr"}
        assert len(transitions) == 2
        assert {(t.a, t.b) for t in transitions} == {(0, 1), (1, 0)}

    def test_rate_table_shares_each_kernel_sample(self, atom, counting,
                                                  time_domain):
        # gamma_rf and gamma_sr at the atom's frequency come from one
        # pass: each node is sampled once per eps, for both coefficients
        kernel = counting(time_domain(AcceleratedVacuum(acceleration=2.0)))
        gamma_rows, _ = rate_table(atom, kernel)
        per_eps = {}
        for eps, u in kernel.calls:
            per_eps.setdefault(eps, []).append(u)
        assert len(per_eps) == len(QuadratureConfig().epsilon_schedule)
        for nodes in per_eps.values():
            nodes = np.concatenate(nodes)
            assert np.unique(nodes).size == nodes.size
        closed = dict(((m, w), v) for m, w, v, _ in rate_table(
            atom, AcceleratedVacuum(acceleration=2.0))[0])
        for m, w, v, e in gamma_rows:
            assert abs(v - closed[(m, w)]) <= e

    def test_g_zero_gives_zero_rows(self, thermal_kernel):
        atom = two_level_system(1.0, 0.0)
        gamma_rows, transitions = rate_table(atom, thermal_kernel)
        assert all(v == 0.0 for _, _, v, _ in gamma_rows)
        assert all(t.total == 0.0 for t in transitions)


class TestBatch:
    def test_matches_pointwise_within_estimates(self, rate_routes):
        # the batch path rescales the regulator per frequency band, so at
        # high omega it lands closer to the exact value than the scalar
        # path; both must still agree within their combined estimates
        for _, route in rate_routes:
            k = route(ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0))
            omegas = np.array([0.25, 0.8, 1.7, 3.1, 6.5])
            res = rate_coefficients(k, omegas, 1.0)["rf"]
            vals, errs = res.value, res.error_estimate
            for w, v, e in zip(omegas, vals, errs):
                ref = rate_coefficients(k, float(w), 1.0)["rf"]
                exact = oracles.thermal_gamma_rf(float(w), 0.5, 5.0, 1.0)
                assert v == pytest.approx(exact, rel=1e-6)
                assert abs(v - ref.value) <= 3.0 * (e + ref.error_estimate)
            assert errs.shape == omegas.shape

    def test_sr_batch_signed(self, rate_routes):
        for _, route in rate_routes:
            k = route(ThermalOhmic(eta=0.5, omega_j=5.0, temperature=0.0))
            omegas = np.array([-1.0, 1.0])
            vals = rate_coefficients(k, omegas, 1.0)["sr"].value
            assert vals[0] == pytest.approx(-vals[1], rel=1e-12)

    def test_nonconvergent_regulator_raises(self, time_domain):
        # a grid refuses the limit that a single frequency refuses,
        # rather than passing it on to a shift workspace
        cfg = QuadratureConfig(epsilon_schedule=(0.9, 0.45, 0.225))
        with pytest.raises(NonConvergent):
            rate_coefficients(time_domain(InertialVacuum()),
                              np.array([0.5, 8.5, 9.0, 9.5]), 1.0, cfg)

    def test_reports_work_of_both_mechanisms(self, counting, time_domain):
        # rf and sr share every pass: each (frequency, eps) is two
        # components, and the points are those the kernel really saw
        k = counting(time_domain(AcceleratedVacuum(acceleration=2.0)))
        omegas = np.array([0.25, 0.8, 1.7])
        n_eps = len(QuadratureConfig().epsilon_schedule)
        for res in rate_coefficients(k, omegas, 1.0).values():
            assert res.detail["components"] == 2 * n_eps * omegas.size
            assert res.detail["kernel_points"] == sum(
                u.size for _, u in k.calls)

    def test_regular_kernel_sampled_at_eps_zero_only(self, atom, counting,
                                                     time_domain):
        # ThermalOhmic is regular at eps = 0, so its limit is its value
        # there: a time-domain pass samples that one eps
        kernel = counting(time_domain(ThermalOhmic(eta=0.5, omega_j=5.0,
                                                   temperature=1.0)))
        res = rate_coefficients(kernel, np.array([0.25, 0.8, 1.7]), 1.0)
        assert kernel.calls
        assert {eps for eps, _ in kernel.calls} == {0.0}
        assert res["rf"].detail["components"] == 2 * 3
        assert "samples" not in res["rf"].detail

    def test_time_domain_on_workspace_grid_within_estimates(self,
                                                            time_domain):
        # the frequencies of a wc = 50 shift workspace, one pass per octave
        # band at eps = 0, against the closed forms
        from resrelax.shifts import _coefficient_grid

        source = ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0)
        omegas = _coefficient_grid(100.0, [1.0, -1.0])
        sampled = rate_coefficients(time_domain(source), omegas, 1.0)
        closed = rate_coefficients(source, omegas, 1.0)
        for mech in ("rf", "sr"):
            s, c = sampled[mech], closed[mech]
            assert np.all(np.abs(s.value - c.value)
                          <= s.error_estimate + c.error_estimate)

    def test_accelerated_batch(self, rate_routes):
        for _, route in rate_routes:
            k = route(AcceleratedVacuum(acceleration=2.0))
            omegas = np.array([0.5, 1.0, 2.0])
            vals = rate_coefficients(k, omegas, 1.0)["rf"].value
            for w, v in zip(omegas, vals):
                assert v == pytest.approx(
                    oracles.accelerated_gamma_rf(float(w), 2.0), rel=1e-5
                )


# ---------------------------------------------------------------------------
# closed-form rate coefficients

@pytest.mark.parametrize("kernel, omega, which, exact", [
    # the time-domain route raises NonConvergent on the first two (omega
    # eps and a eps too large for the regulator schedule) and is 0.2% off
    # on the third
    (InertialVacuum(), 100.0, "rf", oracles.inertial_gamma(100.0)),
    (AcceleratedVacuum(1e3), 1e-3, "sr", oracles.inertial_gamma(1e-3)),
    (AcceleratedVacuum(1.0), 50.0, "rf",
     oracles.accelerated_gamma_rf(50.0, 1.0)),
], ids=["inertial-rf-omega100", "accelerated1e3-sr-omega1e-3",
        "accelerated1-rf-omega50"])
def test_regime_edges(kernel, omega, which, exact):
    res = rate_coefficients(kernel, omega, 1.0)[which]
    assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate <= 1e-14 * exact


def _grid_kernels():
    yield InertialVacuum()
    for a in (0.5, 2.0, 8.0):
        yield AcceleratedVacuum(acceleration=a)
    for temp in (0.0, 0.5, 2.0):
        yield ThermalOhmic(eta=0.5, omega_j=5.0, temperature=temp)


def test_closed_forms_match_time_domain(time_domain):
    # the two routes share no code: each closed form must sit within the
    # time-domain engine's own error estimate, and within 1e-6 of it also
    # at omega = 10, where the regulator schedule is scaled down by the
    # frequency (unscaled, the error there is about 2e-5)
    for kernel in _grid_kernels():
        for w in (0.3, 2.5, 10.0):
            closed = rate_coefficients(kernel, w, 1.0)
            sampled = rate_coefficients(time_domain(kernel), w, 1.0)
            for mech in ("rf", "sr"):
                exact, timed = closed[mech], sampled[mech]
                err = abs(exact.value - timed.value)
                assert err <= timed.error_estimate, (kernel.describe(), w)
                assert err <= 1e-6 * exact.value, (kernel.describe(), w)


def test_closed_form_error_bound_covers_mpmath():
    # from omega = 0 through subnormal and tiny frequencies to twice a
    # typical cutoff and far beyond, where exp(-omega / omega_j)
    # amplifies the rounding of its argument and finally underflows
    omegas = (0.0, 5e-324, 1e-300, 1e-12, 1e-3, 0.37, 1.0, 2.9, 17.3,
              50.0, 100.0, 1e3, 4e3)
    kernels = list(_grid_kernels()) + [
        AcceleratedVacuum(acceleration=1e3),
        ThermalOhmic(eta=2.3, omega_j=0.2, temperature=1e-2),
    ]
    g = 0.7
    for kernel in kernels:
        params = {k: v for k, v in kernel.describe().items()
                  if k in ("acceleration", "eta", "omega_j", "temperature")}
        for w in omegas:
            ref_rf, ref_sr = oracles.mp_gammas(kernel.name, w, g, **params)
            rates = rate_coefficients(kernel, w, g)
            for res, ref in ((rates["rf"], ref_rf), (rates["sr"], ref_sr)):
                err = abs(mpmath.mpf(res.value) - ref)
                assert err <= res.error_estimate, (kernel.describe(), w)
                assert res.error_estimate <= 1e-10 * abs(res.value) + 1e-290
