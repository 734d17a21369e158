import heapq
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

import oracles
from resrelax import (
    ConfigError,
    CutoffTooSmall,
    Envelope,
    InertialVacuum,
    InsufficientSamples,
    NonConvergent,
    PoleOnBoundary,
    QuadratureConfig,
    SingularEvaluation,
    SubdivisionLimit,
    ThermalOhmic,
    kk_real_from_imag,
    pv_integral,
)
from resrelax.quadrature import (
    BATCH_BLOCK_PANELS,
    DEFAULT_EPS_SCHEDULE,
    NODES_PER_PANEL,
    ROUNDING_FLOOR_ULPS,
    _eval_panels,
    extrapolate_regulator,
    halfline_transform,
    integrate_adaptive,
    tail_bound,
)


def decaying(u, eps):
    return np.exp(-np.asarray(u))


EXP_ENV = Envelope(kind="exp", amplitude=1.0, rate=1.0)


class TestHalflineTransforms:
    def test_cos_of_exponential(self):
        # int_0^inf e^-u cos(wu) du = 1 / (1 + w^2)
        for w in (0.0, 0.3, 2.0, 17.0):
            res = halfline_transform(
                decaying, w, QuadratureConfig(), "cos", u_max=60.0,
                u_scale=1.0, envelope=EXP_ENV,
            )
            exact = 1.0 / (1.0 + w * w)
            assert res.value == pytest.approx(exact, rel=1e-10)
            assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-14

    def test_sin_of_exponential(self):
        for w in (0.5, 4.0):
            res = halfline_transform(
                decaying, w, QuadratureConfig(), "sin", u_max=60.0,
                u_scale=1.0, envelope=EXP_ENV,
            )
            assert res.value == pytest.approx(w / (1.0 + w * w), rel=1e-10)

    def test_power_law_tail_closed_form(self):
        # int_0^inf cos(wu)/(1+u)^2 du
        #   = 1 - w [cos w (pi/2 - Si w) + sin w Ci w]
        from scipy.special import sici

        def f(u, eps):
            return 1.0 / (1.0 + np.asarray(u)) ** 2

        w = 3.0
        si, ci = sici(w)
        exact = 1.0 - w * (math.cos(w) * (0.5 * math.pi - si)
                           + math.sin(w) * ci)
        res = halfline_transform(
            f, w, QuadratureConfig(), "cos", u_max=400.0, u_scale=1.0,
            envelope=Envelope(kind="power", amplitude=1.0),
        )
        assert res.value == pytest.approx(exact, rel=1e-7)
        assert abs(res.value - exact) <= 10.0 * res.error_estimate

    def test_error_estimate_covers_truncation(self):
        # truncating a slow tail early must be reflected in the estimate
        def f(u, eps):
            return 1.0 / (1.0 + np.asarray(u)) ** 2

        res = halfline_transform(
            f, 0.0, QuadratureConfig(), "cos", u_max=50.0, u_scale=1.0,
            envelope=Envelope(kind="power", amplitude=1.0),
        )
        exact = 1.0  # integral of (1+u)^-2 over the half line
        assert abs(res.value - exact) <= 2.0 * res.error_estimate


class TestExtrapolation:
    def test_linear_sequence_recovered(self):
        samples = [(1e-2, 3.0 + 5.0 * 1e-2), (5e-3, 3.0 + 5.0 * 5e-3),
                   (2.5e-3, 3.0 + 5.0 * 2.5e-3)]
        v0, residual, _ = extrapolate_regulator(samples, order=1)
        assert v0 == pytest.approx(3.0, abs=1e-12)
        assert residual < 1e-12

    def test_quadratic_sequence_recovered(self):
        def v(eps):
            return 2.0 - 4.0 * eps + 9.0 * eps * eps

        samples = [(e, v(e)) for e in (1e-2, 5e-3, 2.5e-3)]
        v0, residual, _ = extrapolate_regulator(samples, order=2)
        assert v0 == pytest.approx(2.0, abs=1e-13)
        # curvature shows up as disagreement with the two-point linear
        # extrapolation, and that spread is the reported uncertainty
        assert residual > 1e-9

    def test_requires_two_samples(self):
        with pytest.raises(InsufficientSamples):
            extrapolate_regulator([(1e-2, 1.0)])

    @pytest.mark.parametrize("eps", [
        (5e-3, 1e-2), (1e-2, 1e-2), (1e-2, -5e-3),
    ], ids=["increasing", "repeated", "negative"])
    def test_bad_eps_order_is_config_error(self, eps):
        # a badly ordered schedule is an input error (exit 2), not a
        # failed limit (exit 3)
        with pytest.raises(ConfigError):
            extrapolate_regulator([(e, 1.0) for e in eps])


class TestFailureModes:
    def test_subdivision_limit(self):
        cfg = QuadratureConfig(max_subdivisions=4, abs_tol=1e-14,
                               rel_tol=1e-13)

        def nasty(u, eps):
            return np.sin(40.0 * np.asarray(u) ** 2)

        with pytest.raises(SubdivisionLimit):
            halfline_transform(
                nasty, 1.0, cfg, "cos", u_max=2000.0, u_scale=1.0,
                envelope=Envelope(kind="power", amplitude=1e6),
            )

    def test_nonconvergent_regulator(self, time_domain):
        # an epsilon schedule deep in the nonlinear regime cannot be
        # extrapolated; the engine must refuse rather than guess (the
        # closed-form rates take no schedule, so the time-domain route
        # is the one under test)
        from resrelax import InertialVacuum, rate_coefficients

        cfg = QuadratureConfig(epsilon_schedule=(0.9, 0.45, 0.225))
        with pytest.raises(NonConvergent):
            rate_coefficients(time_domain(InertialVacuum()), 9.0, 1.0, cfg)


class TestPrincipalValue:
    def test_matches_cauchy_weight_oracle(self):
        def h(x):
            return 1.0 / (np.asarray(x) ** 2 + 1.0)

        for pole in (0.5, -1.2):
            ref, _ = oracles.quad_pv(lambda x: 1.0 / (x * x + 1.0), pole,
                                     -3.0, 3.0)
            res = pv_integral(h, pole, -3.0, 3.0, QuadratureConfig())
            assert res.value == pytest.approx(ref, rel=1e-9)

    def test_asymmetric_interval(self):
        def h(x):
            return np.exp(-0.3 * np.asarray(x))

        ref, _ = oracles.quad_pv(lambda x: math.exp(-0.3 * x), 1.0, 0.0, 7.0)
        res = pv_integral(h, 1.0, 0.0, 7.0, QuadratureConfig())
        assert res.value == pytest.approx(ref, rel=1e-9)

    def test_pole_on_boundary_rejected(self):
        with pytest.raises(PoleOnBoundary):
            pv_integral(lambda x: np.ones_like(x), 3.0, -3.0, 3.0,
                        QuadratureConfig())

    def test_stack_meets_each_tolerance(self):
        # a stack of two functions 1e8 apart in scale: each component
        # meets its own relative tolerance and agrees with its own pass
        def big(x):
            return 1.0 / (np.asarray(x) ** 2 + 1.0)

        def small(x):
            x = np.asarray(x)
            return 1e-8 * np.exp(-0.3 * x) * np.cos(6.0 * x)

        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-10)
        stacked = pv_integral(lambda x: np.stack([big(x), small(x)]), 0.5,
                              -3.0, 3.0, cfg)
        assert stacked.value.shape == stacked.error_estimate.shape == (2,)
        for j, h in enumerate((big, small)):
            one = pv_integral(h, 0.5, -3.0, 3.0, cfg)
            value, err = stacked.value[j], stacked.error_estimate[j]
            assert abs(value - one.value) <= err + one.error_estimate
            assert err <= 2.0 * cfg.rel_tol * abs(value)
            ref, _ = oracles.quad_pv(lambda x: float(h(x)), 0.5, -3.0, 3.0)
            assert value == pytest.approx(ref, rel=1e-9)

    def test_reports_its_work(self):
        # the points in detail are the samples h really saw, and a stack
        # of m functions counts m components
        seen = []

        def h(x):
            x = np.asarray(x)
            seen.append(x.size)
            return np.stack([1.0 / (x * x + 1.0), np.exp(-0.3 * x)])

        res = pv_integral(h, 0.5, -3.0, 3.0, QuadratureConfig())
        assert set(res.detail) == {"components", "splits", "panels",
                                   "kernel_points"}
        assert res.detail["kernel_points"] == sum(seen)
        assert res.detail["components"] == 2
        assert res.detail["panels"] == (res.detail["kernel_points"] - 3) \
            // NODES_PER_PANEL - res.detail["splits"]

    def test_smooth_through_pole(self):
        # h vanishing at the pole: PV integral equals the ordinary one
        def h(x):
            return np.asarray(x) - 1.0

        res = pv_integral(h, 1.0, 0.0, 2.0, QuadratureConfig())
        assert res.value == pytest.approx(2.0, rel=1e-12)


class TestDispersion:
    def test_lorentzian_pair(self):
        eta = 0.1
        cfg = QuadratureConfig(omega_cutoff=250.0 * eta)
        for w in (0.05, 0.2, 1.0):
            res = kk_real_from_imag(
                lambda x: oracles.lorentz_imag(x, eta), w, cfg
            )
            exact = float(oracles.lorentz_real(w, eta))
            assert res.value == pytest.approx(exact, rel=1e-4)
            assert abs(res.value - exact) <= 10.0 * res.error_estimate

    def test_odd_imag_gives_zero_at_origin(self):
        eta = 0.1
        cfg = QuadratureConfig(omega_cutoff=25.0)
        res = kk_real_from_imag(
            lambda x: oracles.lorentz_imag(x, eta), 0.0, cfg
        )
        assert abs(res.value) < 1e-12

    def test_requires_cutoff(self):
        with pytest.raises(CutoffTooSmall):
            kk_real_from_imag(lambda x: np.zeros_like(x), 1.0,
                              QuadratureConfig())


class TestBatch:
    """halfline_transform at a vector of frequencies."""

    def test_matches_pointwise_transform(self):
        def f(u, eps):
            return np.exp(-0.8 * np.asarray(u))

        omegas = np.array([0.3, 1.1, 2.4, 6.0])
        res = halfline_transform(
            f, omegas, QuadratureConfig(), "cos", u_max=80.0, u_scale=1.0,
            envelope=Envelope(kind="exp", amplitude=1.0, rate=0.8),
            eps_schedule=(1e-2,),
        )
        assert res.value.shape == res.error_estimate.shape == omegas.shape
        exact = 0.8 / (0.64 + omegas ** 2)
        assert_allclose(res.value, exact, rtol=1e-8, atol=0.0)
        # converged to rounding: the estimate covers the true error
        assert np.all(np.abs(res.value - exact) <= res.error_estimate)

    def test_sin_batch_is_odd_ready(self):
        res = halfline_transform(
            decaying, np.array([0.0, 1.0]), QuadratureConfig(), "sin",
            u_max=60.0, u_scale=1.0, envelope=EXP_ENV, eps_schedule=(1e-2,),
        )
        assert res.value[0] == 0.0
        assert res.value[1] == pytest.approx(0.5, rel=1e-8)

    @pytest.mark.parametrize("kernel, part, kind, w_lo", [
        (InertialVacuum(), 0, "cos", 2.0),
        (InertialVacuum(), 1, "sin", 0.25),
        (ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0), 0, "cos", 4.0),
        (ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0), 1, "sin", 0.5),
    ])
    def test_eps_sequence_matches_per_eps_calls(self, kernel, part, kind,
                                                w_lo):
        # one octave band of a rate-coefficient grid: the samples of the
        # whole-schedule pass agree with one pass per eps to the tolerance
        def f(u, eps):
            return kernel.evaluate(u, eps)[part]

        omegas = np.geomspace(w_lo, 2.0 * w_lo, 25)[:-1]
        sched = tuple(e / max(1.0, 2.0 * w_lo) for e in DEFAULT_EPS_SCHEDULE)
        kw = dict(u_max=kernel.u_max_hint(w_lo, sched[0]),
                  u_scale=kernel.origin_scale(sched[0]),
                  envelope=kernel.envelope(sched[0]))
        cfg = QuadratureConfig()
        res = halfline_transform(f, omegas, cfg, kind, eps_schedule=sched,
                                 **kw)
        assert res.value.shape == res.error_estimate.shape == omegas.shape
        assert res.detail["components"] == omegas.size * len(sched)
        assert [e for e, _ in res.detail["samples"]] == list(sched)
        for eps, values in res.detail["samples"]:
            one = halfline_transform(f, omegas, cfg, kind, eps_schedule=(eps,),
                                     **kw)
            tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(one.value))
            assert np.all(np.abs(values - one.value) <= 2.0 * tol)

    def test_forced_refinement_meets_tolerance(self):
        # int_0^inf eps/(eps^2 + u^2) cos(w u) du = (pi/2) exp(-w eps): the
        # peak of width eps is far below the layout's short-distance scale,
        # so every eps needs refinement on the shared layout
        def f(u, eps):
            return eps / (eps * eps + np.asarray(u) ** 2)

        omegas = np.array([0.5, 1.0, 1.5])
        sched = (4e-2, 2e-2, 1e-2)
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
        u_max = 2000.0
        env = Envelope(kind="power", amplitude=sched[0])
        res = halfline_transform(f, omegas, cfg, "cos", u_max=u_max,
                                 u_scale=1.0, envelope=env, eps_schedule=sched)
        assert res.detail["splits"] > 0  # it did refine
        # the truncated tail, int_U^inf eps cos(w u)/u^2 du, is covered by
        # the tail bound; the quadrature part meets rel_tol
        tail = np.array([tail_bound(env, u_max, w) for w in omegas])
        for eps, values in res.detail["samples"]:
            exact = 0.5 * math.pi * np.exp(-omegas * eps)
            assert np.all(np.abs(values - exact) <= tail + 1e-12 * exact)
        assert np.all(np.abs(res.value - 0.5 * math.pi) <= res.error_estimate)


def _heap_adaptive(fw, breakpoints, abs_tol, rel_tol, max_subdivisions):
    """Single-integrand adaptive engine with a heap and panel lists.

    The reference for integrate_adaptive: the same split rule (up to 64
    of the worst panels at or above a quarter of the mean panel error)
    written panel by panel, and the same rounding floor added to the
    converged error.  Returns (value, error, splits).
    """
    bp = np.asarray(breakpoints, dtype=float)
    vals, errs = _eval_panels(fw, bp[:-1], bp[1:])
    panels = [[bp[i], bp[i + 1], vals[i], errs[i]] for i in range(len(bp) - 1)]
    heap = [(-p[3], i) for i, p in enumerate(panels)]
    heapq.heapify(heap)
    splits = 0
    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= max(abs_tol, rel_tol * abs(total)):
            floor = (ROUNDING_FLOOR_ULPS * np.finfo(float).eps
                     * math.fsum(abs(p[2]) for p in panels))
            return total, err + floor, splits
        if splits >= max_subdivisions:
            raise SubdivisionLimit("budget exhausted")
        batch = []
        while heap and len(batch) < 64:
            negerr, i = heapq.heappop(heap)
            if -negerr != panels[i][3]:
                continue  # stale entry
            if -negerr < 0.25 * err / len(panels):
                heapq.heappush(heap, (negerr, i))
                break
            batch.append(i)
        lo = np.array([panels[i][0] for i in batch])
        hi = np.array([panels[i][1] for i in batch])
        mid = 0.5 * (lo + hi)
        nvals, nerrs = _eval_panels(fw, np.concatenate([lo, mid]),
                                    np.concatenate([mid, hi]))
        n = len(batch)
        for k, i in enumerate(batch):
            panels[i] = [lo[k], mid[k], nvals[k], nerrs[k]]
            heapq.heappush(heap, (-nerrs[k], i))
            heapq.heappush(heap, (-nerrs[n + k], len(panels)))
            panels.append([mid[k], hi[k], nvals[n + k], nerrs[n + k]])
        splits += n


def _lorentzian(u):
    return 1e-3 / (1e-6 + (np.asarray(u) - 3.3) ** 2)


def _lorentzian_exact(hi):
    return math.atan((hi - 3.3) / 1e-3) + math.atan(3.3 / 1e-3)


class TestAdaptiveStack:
    """integrate_adaptive on a stack of integrand components."""

    BP = np.linspace(0.0, 10.0, 11)

    def test_each_component_meets_its_own_tolerance(self):
        # a narrow Lorentzian next to an oscillation 1e6 times smaller,
        # whose initial error is far below the Lorentzian's tolerance: it
        # is refined to its own tolerance all the same
        def stack(u):
            return np.stack([_lorentzian(u), 1e-6 * np.cos(8.0 * u)])

        rel_tol = 1e-10
        value, error, splits = integrate_adaptive(stack, self.BP, 1e-30,
                                                  rel_tol, 2000)
        exact = np.array([_lorentzian_exact(10.0), 1e-6 * math.sin(80.0) / 8.0])
        assert value.shape == error.shape == (2,)
        assert np.all(error <= rel_tol * np.abs(value))
        assert np.all(np.abs(value - exact) <= error + 1e-15 * np.abs(exact))
        # the Lorentzian alone leaves the oscillation unresolved
        lone = integrate_adaptive(_lorentzian, self.BP, 1e-30, rel_tol, 2000)
        assert lone[2] < splits

    def test_single_component_matches_heap_reference(self):
        # a chirp over 50 panels offers more than 64 candidates per batch,
        # so the ranking of the worst panels decides the splits
        def chirp(u):
            return np.cos(3.0 * u ** 2)

        bp = np.linspace(0.0, 10.0, 51)
        ref = _heap_adaptive(chirp, bp, 1e-30, 1e-13, 2000)
        value, error, splits = integrate_adaptive(chirp, bp, 1e-30, 1e-13, 2000)
        assert splits == ref[2] > 64
        assert abs(value - ref[0]) <= error
        assert error == pytest.approx(ref[1], rel=1e-12, abs=0.0)
        # a stack of one is the same integral
        value1, error1, splits1 = integrate_adaptive(
            lambda u: chirp(u)[None], bp, 1e-30, 1e-13, 2000)
        assert value1.shape == (1,)
        assert (value1[0], error1[0], splits1) == (value, error, splits)

    def test_subdivision_limit(self):
        def stack(u):
            return np.stack([_lorentzian(u), np.sin(40.0 * u ** 2)])

        with pytest.raises(SubdivisionLimit):
            integrate_adaptive(stack, self.BP, 1e-30, 1e-14, 100)

    def test_nan_integrand_fails_before_any_split(self):
        calls = []

        def nan_inside(u):
            calls.append(u.size)
            return np.where(u > 0.5, np.nan, 1.0)

        with pytest.raises(SingularEvaluation, match=r"\[0\.5, 1\]"):
            integrate_adaptive(nan_inside, [0.0, 0.5, 1.0], 1e-10, 1e-8, 2000)
        assert calls == [2 * NODES_PER_PANEL]  # the first panels only

    def test_blocks_bound_each_call(self):
        sizes = []

        def counted(u):
            sizes.append(u.size)
            return np.exp(-u)

        bp = np.linspace(0.0, 1.0, 2 * BATCH_BLOCK_PANELS + 2)
        integrate_adaptive(counted, bp, 1e-10, 1e-8, 10)
        assert sizes == [BATCH_BLOCK_PANELS * NODES_PER_PANEL,
                         BATCH_BLOCK_PANELS * NODES_PER_PANEL, NODES_PER_PANEL]

    def test_halfline_stack_reports_its_work(self):
        # two parts, three eps: one pass, each node sampled once per eps
        points = []

        def f(u, eps):
            points.append(u.size)
            return np.stack([np.exp(-u) * (1.0 + eps), np.exp(-2.0 * u)])

        res = halfline_transform(f, 1.5, QuadratureConfig(), ("cos", "sin"),
                                 u_max=60.0, u_scale=1.0, envelope=EXP_ENV)
        assert len(res) == 2
        assert res[0].value == pytest.approx(1.0 / (1.0 + 1.5 ** 2), rel=1e-10)
        assert res[1].value == pytest.approx(1.5 / (4.0 + 1.5 ** 2), rel=1e-10)
        detail = res[0].detail
        assert detail["components"] == 6
        assert detail["kernel_points"] == sum(points)
        assert detail["panels"] >= 1 and detail["splits"] >= 0
        single = halfline_transform(lambda u, eps: f(u, eps)[1], 1.5,
                                    QuadratureConfig(), "sin", u_max=60.0,
                                    u_scale=1.0, envelope=EXP_ENV)
        assert single.value == pytest.approx(res[1].value, rel=1e-13, abs=0.0)


class TestEnvelope:
    def test_exponential_tail_integral(self):
        env = Envelope(kind="exp", amplitude=2.0, rate=0.5)
        assert env.integral_beyond(4.0) == pytest.approx(
            integrate.quad(lambda u: 2.0 * math.exp(-0.5 * u), 4.0,
                           np.inf)[0]
        )

    def test_power_tail_integral(self):
        env = Envelope(kind="power", amplitude=3.0)
        # amplitude / u^2 beyond U integrates to amplitude / U
        assert env.integral_beyond(6.0) == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(Exception):
            QuadratureConfig(epsilon_schedule=())
        with pytest.raises(Exception):
            QuadratureConfig(abs_tol=-1.0)

    @pytest.mark.parametrize("settings", [
        {"epsilon_schedule": (1e-2, 0.0)},
        {"epsilon_schedule": (2.5e-3, 5e-3)},
        {"rel_tol": 0.0},
    ], ids=["eps-not-positive", "eps-not-decreasing", "tol-not-positive"])
    def test_bad_settings_raise_config_error(self, settings):
        # bad settings are input errors, not failed computations
        with pytest.raises(ConfigError):
            QuadratureConfig(**settings)
