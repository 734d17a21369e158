import itertools
import math

import numpy as np
import pytest

import oracles
from resrelax import (
    AcceleratedVacuum,
    ConfigError,
    CutoffTooSmall,
    InertialVacuum,
    NonConvergent,
    QuadratureConfig,
    RoundingFloor,
    ThermalOhmic,
    compute_shift,
    delta_sr_relative,
    lamb_shift_two_level,
    shift_direct,
    shift_kk,
    two_level_system,
)
from resrelax.quadrature import BATCH_BLOCK_PANELS, NODES_PER_PANEL
from resrelax.kernels import UnruhExcess
from resrelax.shifts import ShiftWorkspace, _cutoff_remainder
from test_acceptance import THERMAL, _three_level

W0 = 1.0
WC = 60.0


@pytest.fixture(scope="module")
def vac_atom():
    return two_level_system(W0, 1.0)


@pytest.fixture(scope="module")
def vac_cfg():
    return QuadratureConfig(omega_cutoff=WC)


class TestVacuumClosedForms:
    def test_kk_rf_upper_level(self, vac_atom, vac_cfg):
        res = shift_kk(vac_atom, InertialVacuum(), 1, vac_cfg)["rf"]
        exact = oracles.inertial_shift_rf_upper(W0, WC)
        assert res.value == pytest.approx(exact, rel=1e-6)
        assert abs(res.value - exact) <= 10.0 * res.error_estimate

    def test_direct_rf_upper_level(self, vac_atom, vac_cfg):
        res = shift_direct(vac_atom, InertialVacuum(), 1, vac_cfg)["rf"]
        assert res.value == pytest.approx(
            oracles.inertial_shift_rf_upper(W0, WC), rel=1e-9
        )

    def test_direct_sr_both_levels(self, vac_atom, vac_cfg):
        exact = oracles.inertial_shift_sr(W0, WC)
        for level in (0, 1):
            res = shift_direct(vac_atom, InertialVacuum(), level,
                               vac_cfg)["sr"]
            assert res.value == pytest.approx(exact, rel=1e-7)
            assert abs(res.value - exact) <= 10.0 * res.error_estimate

    @pytest.mark.parametrize("omega_0", [0.6, 1.0, 1.77, 1.95])
    def test_direct_at_rounding_accuracy(self, omega_0):
        # the windowed direct route carries no truncation of its own: its
        # short-distance series is exact to rounding
        atom = two_level_system(omega_0, 1.0)
        cfg = QuadratureConfig(omega_cutoff=40.0)
        rf = shift_direct(atom, InertialVacuum(), 1, cfg)["rf"]
        assert rf.value == pytest.approx(
            oracles.inertial_shift_rf_upper(omega_0, 40.0), abs=1e-14)
        exact_sr = oracles.inertial_shift_sr(omega_0, 40.0)
        for level in (0, 1):
            sr = shift_direct(atom, InertialVacuum(), level, cfg)["sr"]
            assert sr.value == pytest.approx(exact_sr, abs=1e-14)

    def test_sr_shift_cancels_in_splitting(self, vac_atom, vac_cfg):
        res = delta_sr_relative(vac_atom, InertialVacuum(), vac_cfg)
        assert abs(res.value) <= 10.0 * res.error_estimate


class TestComputeShift:
    def test_both_methods_cross_check(self, vac_atom, vac_cfg):
        res = compute_shift(vac_atom, InertialVacuum(), 1, vac_cfg,
                            method="both")
        assert res.method == "both"
        resid = res.detail["kk_vs_direct_residual"]
        assert resid <= 10.0 * res.err_quad
        assert res.omega_c == WC
        assert res.total == res.delta_e_rf + res.delta_e_sr

    def test_cutoff_error_estimate_tracks_divergence(self, vac_atom):
        # the vacuum sr shift grows linearly with the cutoff, and the
        # reported cutoff sensitivity has to say so
        cfg = QuadratureConfig(omega_cutoff=30.0)
        res = compute_shift(vac_atom, InertialVacuum(), 1, cfg, method="kk")
        grow = abs(oracles.inertial_shift_sr(W0, 60.0)
                   - oracles.inertial_shift_sr(W0, 30.0))
        assert res.err_cutoff == pytest.approx(grow, rel=0.1)

    def test_thermal_kk_vs_direct(self, vac_atom):
        # the direct path for a thermal bath carries no frequency window,
        # so the two routes differ by the genuine cutoff remainder; the
        # combined bound must include err_cutoff
        cfg = QuadratureConfig(omega_cutoff=25.0)
        kernel = ThermalOhmic(eta=0.4, omega_j=5.0, temperature=0.8)
        res = compute_shift(vac_atom, kernel, 1, cfg, method="both")
        combined = res.err_quad + res.err_cutoff
        assert res.detail["kk_vs_direct_residual"] <= 2.0 * combined

    def test_missing_cutoff_raises(self, vac_atom):
        with pytest.raises(CutoffTooSmall):
            compute_shift(vac_atom, InertialVacuum(), 1, QuadratureConfig())

    def test_low_cutoff_raises(self, vac_atom):
        cfg = QuadratureConfig(omega_cutoff=0.5)
        with pytest.raises(CutoffTooSmall):
            compute_shift(vac_atom, InertialVacuum(), 1, cfg)


class TestLambShift:
    def test_vacuum_closed_form(self, vac_cfg):
        res = lamb_shift_two_level(InertialVacuum(), 1.0, W0, vac_cfg)
        assert res.value == pytest.approx(
            oracles.inertial_lamb(W0, WC), rel=1e-6
        )

    def test_equals_level_difference(self, vac_atom, vac_cfg):
        lamb = lamb_shift_two_level(InertialVacuum(), 1.0, W0, vac_cfg)
        hi = shift_kk(vac_atom, InertialVacuum(), 1, vac_cfg)["rf"]
        lo = shift_kk(vac_atom, InertialVacuum(), 0, vac_cfg)["rf"]
        assert lamb.value == pytest.approx(hi.value - lo.value, abs=1e-8)

    def test_constant_coefficient_toy_model(self, vac_cfg, constant_rates):
        # with gamma^rf frozen to a constant the dispersion integral has
        # an elementary antiderivative
        c = 0.37
        res = lamb_shift_two_level(constant_rates(c), 1.0, W0, vac_cfg)
        assert res.value == pytest.approx(
            oracles.const_gamma_lamb(c, W0, WC), rel=1e-10
        )

    def test_time_domain_route_matches_closed_form(self, time_domain):
        # the splitting from a sampled workspace agrees with the one from
        # the exact coefficients within their combined estimates
        cfg = QuadratureConfig(omega_cutoff=4.0)
        source = ThermalOhmic(eta=0.4, omega_j=5.0, temperature=0.8)
        closed = lamb_shift_two_level(source, 0.7, W0, cfg)
        sampled = lamb_shift_two_level(time_domain(source), 0.7, W0, cfg)
        assert abs(sampled.value - closed.value) \
            <= sampled.error_estimate + closed.error_estimate

    def test_nonpositive_splitting_is_config_error(self, vac_cfg):
        with pytest.raises(ConfigError):
            lamb_shift_two_level(InertialVacuum(), 1.0, 0.0, vac_cfg)


class TestWorkspace:
    def test_coefficient_matches_pointwise(self, vac_cfg, rate_routes):
        # closed form: exact coefficients; time domain: the spline
        from resrelax import rate_coefficients

        cfg = QuadratureConfig(omega_cutoff=25.0)
        for _, route in rate_routes:
            kernel = route(ThermalOhmic(eta=0.4, omega_j=5.0,
                                        temperature=0.8))
            ws = ShiftWorkspace(kernel, 1.0, cfg, "both", poles=[W0])
            for w in (0.6, 1.0, 7.3):
                direct = rate_coefficients(kernel, w, 1.0, cfg)
                for j, mech in enumerate(("rf", "sr")):
                    tol = 10.0 * (ws.coefficient_error(w)[j]
                                  + direct[mech].error_estimate)
                    assert abs(ws.coefficient(w)[j] - direct[mech].value) \
                        <= tol

    def test_holds_both_mechanisms_only(self, vac_cfg):
        with pytest.raises(ValueError):
            ShiftWorkspace(InertialVacuum(), 1.0, vac_cfg, "rf", poles=[W0])

    def test_sampled_workspace_reports_its_work(self, caplog, counting,
                                                time_domain):
        # the work counts of the time-domain passes are the kernel points
        # really sampled, and the debug line reports them
        kernel = counting(time_domain(InertialVacuum()))
        cfg = QuadratureConfig(omega_cutoff=10.0)
        with caplog.at_level("DEBUG", logger="resrelax.shifts"):
            ws = ShiftWorkspace(kernel, 1.0, cfg, "both", poles=[W0])
        assert set(ws.stats) == {"components", "splits", "panels",
                                 "kernel_points"}
        points = sum(u.size for _, u in kernel.calls)
        assert ws.stats["kernel_points"] == points
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("rf+sr workspace")]
        assert len(lines) == 1
        assert "%d kernel points" % ws.stats["kernel_points"] in lines[0]

    def test_kk_shift_builds_one_sampled_workspace(self, monkeypatch, caplog,
                                                   vac_atom, counting,
                                                   time_domain):
        # compute_shift builds one workspace of both mechanisms; each of
        # its passes samples a node once per eps for rf and sr together
        built = []
        init = ShiftWorkspace.__init__

        def recording_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(ShiftWorkspace, "__init__", recording_init)
        source = AcceleratedVacuum(acceleration=2.0)
        kernel = counting(time_domain(source))
        cfg = QuadratureConfig(omega_cutoff=4.0)
        with caplog.at_level("DEBUG", logger="resrelax.shifts"):
            res = compute_shift(vac_atom, kernel, 1, cfg, method="kk")
        assert len(built) == 1
        ws = built[0]
        points = sum(u.size for _, u in kernel.calls)
        assert ws.stats["kernel_points"] == points
        lines = [r.getMessage() for r in caplog.records
                 if "workspace" in r.getMessage()]
        assert len(lines) == 1 and lines[0].startswith("rf+sr workspace")
        assert "%d kernel points" % points in lines[0]
        # the calls come in runs of one node set at every eps of a pass
        n_eps = len(cfg.epsilon_schedule)
        assert len(kernel.calls) % n_eps == 0
        for k in range(0, len(kernel.calls), n_eps):
            run = kernel.calls[k:k + n_eps]
            assert len({eps for eps, _ in run}) == n_eps
            assert all(np.array_equal(run[0][1], u) for _, u in run[1:])
        closed = compute_shift(vac_atom, source, 1, cfg, method="kk")
        for mech in ("delta_e_rf", "delta_e_sr"):
            assert abs(getattr(res, mech) - getattr(closed, mech)) \
                <= res.err_quad + closed.err_quad

    def test_workspace_reuse_is_consistent(self, vac_atom, vac_cfg):
        kernel = InertialVacuum()
        ws = ShiftWorkspace(kernel, 1.0, vac_cfg, "both", poles=[W0])
        with_ws = shift_kk(vac_atom, kernel, 1, vac_cfg, workspace=ws)
        fresh = shift_kk(vac_atom, kernel, 1, vac_cfg)
        for mech in ("rf", "sr"):
            assert with_ws[mech].value == pytest.approx(fresh[mech].value,
                                                        rel=1e-12)

    def test_delta_sr_relative_reuses_workspace(self, vac_atom):
        kernel = InertialVacuum()
        cfg = QuadratureConfig(omega_cutoff=10.0)
        poles = [vac_atom.omega_ab(i, j) for i, j in vac_atom.active_pairs]
        ws = ShiftWorkspace(kernel, 1.0, cfg, "both", poles)
        given = delta_sr_relative(vac_atom, kernel, cfg, workspace=ws)
        own = delta_sr_relative(vac_atom, kernel, cfg)
        assert given.value == own.value
        assert given.error_estimate == own.error_estimate


def test_three_level_rejected_by_relative_helper(vac_cfg):
    import numpy as np

    from resrelax import SystemSpec

    op = np.zeros((3, 3))
    op[0, 1] = op[1, 0] = op[1, 2] = op[2, 1] = 0.5
    spec = SystemSpec(
        levels=(("a", -1.0), ("b", 0.0), ("c", 1.3)),
        coupling_ops=(op,),
        g=0.2,
    )
    with pytest.raises(ValueError):
        delta_sr_relative(spec, InertialVacuum(), vac_cfg)


def _ladder3():
    import numpy as np

    from resrelax import SystemSpec

    op = np.zeros((3, 3))
    op[0, 1] = op[1, 0] = op[1, 2] = op[2, 1] = 0.5
    return SystemSpec(levels=(("a", -1.0), ("b", 0.0), ("c", 1.3)),
                      coupling_ops=(op,), g=0.2)


def _ladder_kernel():
    return ThermalOhmic(eta=0.4, omega_j=5.0, temperature=0.8)


# the regulator values an eps-sensitive copy of _ladder_kernel needs: the
# default schedule divided by its omega_j
_LADDER_EPS = (2e-3, 1e-3, 5e-4)


def test_direct_pass_shares_each_kernel_sample(counting, eps_sensitive):
    # level b has two partners; each gets one pass in which the three
    # eps values and both mechanisms share every kernel sample.  Kernel
    # points, endpoints included: 1,688,028 with one pass per (mechanism,
    # eps) and 844,014 with one per partner, at 22 nodes per panel and 16
    # panels per period; 304,296 at 21 nodes and 6 panels per period,
    # 217,356 at 15, and 4,236 with Filon-type panels on the ladder alone
    import numpy as np

    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0, epsilon_schedule=_LADDER_EPS)
    both = counting(eps_sensitive(_ladder_kernel()))
    compute_shift(spec, both, 1, cfg, method="direct")
    points = sum(u.size for _, u in both.calls)
    assert points * 2 <= 1_688_028
    assert max(u.size for _, u in both.calls) \
        <= BATCH_BLOCK_PANELS * NODES_PER_PANEL
    # every eps of a pass samples the same nodes: the calls come in runs
    # of one node set at every eps of the schedule (the two passes scale
    # the schedule by their own |omega|, so their eps values differ)
    n_eps = len(cfg.epsilon_schedule)
    assert len(both.calls) % n_eps == 0
    for k in range(0, len(both.calls), n_eps):
        run = both.calls[k:k + n_eps]
        assert len({eps for eps, _ in run}) == n_eps
        assert all(np.array_equal(run[0][1], u) for _, u in run[1:])


def test_direct_pass_logged(caplog, eps_sensitive):
    # one debug line per partner pass, with its work counts
    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0, epsilon_schedule=_LADDER_EPS)
    with caplog.at_level("DEBUG", logger="resrelax.shifts"):
        shift_direct(spec, eps_sensitive(_ladder_kernel()), 1, cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("direct pass")]
    assert len(lines) == 2
    assert all("6 components" in line and "kernel points" in line
               for line in lines)


def test_pv_passes_logged(caplog):
    # one debug line per partner level, all at wc, with its work counts;
    # the cutoff band and the remainder R beyond wc take one line each
    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    with caplog.at_level("DEBUG", logger="resrelax.shifts"):
        compute_shift(spec, _ladder_kernel(), 1, cfg, method="kk")
    messages = [r.getMessage() for r in caplog.records]
    lines = [m for m in messages if m.startswith("pv pass")]
    assert sorted(line.split(":")[0] for line in lines) == sorted(
        "pv pass at pole %g, cutoff 25" % pole for pole in (1.0, -1.3))
    assert all("2 components" in line and "kernel points" in line
               for line in lines)
    assert [m.split(":")[0] for m in messages if m.startswith("cutoff")] == [
        "cutoff band 25 to 50 at level 1",
        "cutoff remainder 25 to inf at level 1"]
    assert all("4 components" in m and "kernel points" in m
               for m in messages if m.startswith("cutoff"))


@pytest.mark.parametrize("kernel", [
    InertialVacuum(), *(AcceleratedVacuum(a) for a in (0.05, 2.0, 1e4))],
    ids=["inertial", "a0.05", "a2", "a1e4"])
def test_err_cutoff_is_one_band_on_every_route(vac_atom, vac_cfg, kernel):
    # the cutoff sensitivity is the dispersion integral over wc < |w'| <
    # 2 wc on every route, so kk, both and direct report it bit for bit
    for level in (0, 1):
        cutoff = [compute_shift(vac_atom, kernel, level, vac_cfg,
                                method=method).detail["err_cutoff"]
                  for method in ("kk", "both", "direct")]
        assert cutoff[0] == cutoff[1] == cutoff[2]


@pytest.mark.parametrize("wc", [1.0 + 1e-5, 2.0, 25.0, 1e3])
def test_cutoff_band_matches_the_closed_form(wc):
    # each mechanism's band is dE(2 wc) - dE(wc) of the inertial atom
    # within the band pass's own estimate, and err_cutoff is its size
    atom = two_level_system(W0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=wc)
    for level in (0, 1):
        res = compute_shift(atom, InertialVacuum(), level, cfg, method="kk")
        band = res.detail["cutoff_band"]
        exact = {"sr": oracles.inertial_shift_sr(W0, 2.0 * wc)
                 - oracles.inertial_shift_sr(W0, wc)}
        if level == 1:
            exact["rf"] = (oracles.inertial_shift_rf_upper(W0, 2.0 * wc)
                           - oracles.inertial_shift_rf_upper(W0, wc))
        for mech, value in exact.items():
            assert abs(band[mech].value - value) <= band[mech].error_estimate
        for mech in ("rf", "sr"):
            assert res.detail["err_cutoff"][mech] == abs(band[mech].value)


def test_accelerated_kk_vs_direct(vac_atom):
    cfg = QuadratureConfig(omega_cutoff=25.0)
    kernel = AcceleratedVacuum(acceleration=2.0)
    kk = shift_kk(vac_atom, kernel, 1, cfg)["rf"]
    direct = shift_direct(vac_atom, kernel, 1, cfg)["rf"]
    tol = 10.0 * (kk.error_estimate + direct.error_estimate)
    assert abs(kk.value - direct.value) <= tol


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e2, 1e4])
def test_ring_pass_is_scale_free(caplog, lam):
    # the ring segment is laid out in phase of the cutoff oscillation, so
    # rescaling every frequency by lam leaves its work alone (1,410 kernel
    # points at lam = 1 with 6 panels per period on u in [0, 2], refused
    # at lam = 1e4) and scales the shift by lam
    atom = two_level_system(1.3 * lam, 1.0)
    cfg = QuadratureConfig(omega_cutoff=40.0 * lam)
    with caplog.at_level("DEBUG", logger="resrelax.shifts"):
        direct = shift_direct(atom, InertialVacuum(), 1, cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("direct pass")]
    assert len(lines) == 1 and "600 kernel points, 0 splits" in lines[0]
    kk = shift_kk(atom, InertialVacuum(), 1, cfg)
    exact = {"rf": oracles.inertial_shift_rf_upper(1.3, 40.0),
             "sr": oracles.inertial_shift_sr(1.3, 40.0)}
    for mech in ("rf", "sr"):
        assert abs(direct[mech].value - kk[mech].value) <= (
            direct[mech].error_estimate + kk[mech].error_estimate)
        assert abs(direct[mech].value / lam - exact[mech]) <= (
            direct[mech].error_estimate / lam)


def test_kk_vs_direct_within_estimates():
    # per level and mechanism, over accelerations from cold to hot and
    # cutoffs from 1 to 3e4: the two routes agree within their summed
    # error estimates
    kernels = [InertialVacuum()] + [AcceleratedVacuum(a)
                                    for a in (0.5, 2.0, 8.0, 50.0, 100.0)]
    for kernel, wc, omega_0 in itertools.product(
            kernels, (1.0, 2.0, 5.0, 40.0, 1e3, 3e4), (0.5, 1.0, 1.77)):
        if omega_0 >= wc:
            continue
        atom = two_level_system(omega_0, 1.0)
        cfg = QuadratureConfig(omega_cutoff=wc)
        for level in (0, 1):
            kk = shift_kk(atom, kernel, level, cfg)
            direct = shift_direct(atom, kernel, level, cfg)
            for mech in ("rf", "sr"):
                gap = abs(kk[mech].value - direct[mech].value)
                assert gap <= (kk[mech].error_estimate
                               + direct[mech].error_estimate), (
                    kernel.describe(), wc, omega_0, level, mech)


def test_image_bound_stays_off_the_sr_shift():
    # a hot trajectory's excess over the inertial window is the Unruh
    # excess, whose Ca = 0, so its pass and its remainder add to rf alone
    # (a bound on the dropped image terms had read 5.8e-2 on sr against a
    # true error of 1e-17), and its rf estimate is tight
    atom = two_level_system(1.0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=2.0)
    kernel = AcceleratedVacuum(50.0)
    direct = shift_direct(atom, kernel, 1, cfg)
    inertial = shift_direct(atom, InertialVacuum(), 1, cfg)
    kk = shift_kk(atom, kernel, 1, cfg)
    assert direct["sr"].error_estimate < 1e-10
    assert direct["sr"].value == inertial["sr"].value
    assert direct["sr"].error_estimate == inertial["sr"].error_estimate
    for mech in ("rf", "sr"):
        assert abs(direct[mech].value - kk[mech].value) <= (
            direct[mech].error_estimate + kk[mech].error_estimate)
    assert direct["rf"].error_estimate < 1e-8 * abs(kk["rf"].value)


@pytest.mark.parametrize("a", [1e3, 1e4, 1e6])
def test_hot_trajectory_direct_matches_kk(a):
    # 2 pi wc / a << 1: the direct route is the inertial window plus the
    # raw excess less its part beyond wc, and it agrees with kk within
    # their estimates at a tight rf estimate (8 image terms had given
    # 0.228 against 0.504 at a = 1e4 and 0.713 against 50.4 at a = 1e6)
    atom = two_level_system(1.0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=40.0)
    kernel = AcceleratedVacuum(a)
    for level in (0, 1):
        kk = shift_kk(atom, kernel, level, cfg)
        direct = shift_direct(atom, kernel, level, cfg)
        for mech in ("rf", "sr"):
            assert abs(kk[mech].value - direct[mech].value) <= (
                kk[mech].error_estimate + direct[mech].error_estimate)
        assert direct["rf"].error_estimate <= 1e-8 * abs(kk["rf"].value)


def test_kk_resolves_the_thermal_feature_at_zero():
    # the thermal feature of width a / 2 pi at w' = 0 is far narrower than
    # the uniform PV panels; kk refines toward w' = 0 as toward the pole
    # (it had missed direct by 4.19x the summed estimates)
    omega_0 = 5.3059123247419775
    atom = two_level_system(omega_0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=2750.4910580574524)
    kernel = AcceleratedVacuum(0.012589254117941675)
    for level in (0, 1):
        kk = shift_kk(atom, kernel, level, cfg)["rf"]
        direct = shift_direct(atom, kernel, level, cfg)["rf"]
        assert abs(kk.value - direct.value) <= 0.01 * (
            kk.error_estimate + direct.error_estimate)


@pytest.mark.parametrize("rel", [1e-4, 1e-5, 3e-6])
def test_kk_at_a_cutoff_just_above_the_transition(rel):
    # the kk estimate covers the closed form, computed without the
    # cancellation of wc^2 - w0^2 (which had read 4.3x err_quad off)
    atom = two_level_system(1.0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=1.0 + rel)
    res = compute_shift(atom, InertialVacuum(), 1, cfg, method="kk")
    exact = oracles.inertial_shift_rf_upper(1.0, 1.0 + rel)
    assert abs(res.delta_e_rf - exact) <= 0.1 * res.err_quad


def test_direct_pass_samples_regular_kernel_at_eps_zero(counting):
    # ThermalOhmic is regular at eps = 0: one pass per partner level
    # samples it there alone, and the values are its exact transforms
    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    kernel = counting(_ladder_kernel())
    res = shift_direct(spec, kernel, 1, cfg)
    assert {eps for eps, _ in kernel.calls} == {0.0}
    assert all(r.error_estimate < 1e-10 for r in res.values())


def test_direct_shift_samples_few_kernel_points(counting):
    # Filon-type panels follow the kernel, not its oscillation period:
    # the direct shifts of all three levels sample 2,824 points (144,904
    # with 6 K15 panels per period)
    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    kernel = counting(_ladder_kernel())
    for a in range(3):
        compute_shift(spec, kernel, a, cfg, method="direct")
    assert sum(u.size for _, u in kernel.calls) <= 5_000


def test_direct_pass_independent_of_block_size(monkeypatch):
    # panel values do not depend on the sampling block, so neither do
    # the pass values: bit-identical at 7 panels per block
    import resrelax.quadrature as quadrature

    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    default = shift_direct(spec, _ladder_kernel(), 1, cfg)
    monkeypatch.setattr(quadrature, "BATCH_BLOCK_PANELS", 7)
    small = shift_direct(spec, _ladder_kernel(), 1, cfg)
    for mech in ("rf", "sr"):
        assert small[mech].value == default[mech].value
        assert small[mech].error_estimate == default[mech].error_estimate


def test_direct_pass_peak_memory():
    # the sampling block bounds the working set of a pass
    import tracemalloc

    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    shift_direct(spec, _ladder_kernel(), 1, cfg)  # warm the caches
    tracemalloc.start()
    try:
        shift_direct(spec, _ladder_kernel(), 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


@pytest.mark.parametrize("wc", [4.0, 6.0, 8.0, 12.0, 20.0, 40.0])
def test_err_cutoff_covers_the_remainder(wc):
    # a spectrum decaying like e^{-w / omega_j} leaves the dispersion
    # integral a remainder beyond wc, about 1 / (1 - e^{-wc / omega_j})
    # times the sensitivity |dE(2 wc) - dE(wc)|.  Per level and
    # mechanism, kk and direct agree within kk's err_quad and err_cutoff
    # plus direct's err_quad, and the sr remainder matches its E1 form
    kernel = ThermalOhmic(eta=0.4, omega_j=4.0, temperature=0.8)
    atom = two_level_system(1.0, 0.7)
    cfg = QuadratureConfig(omega_cutoff=wc)
    for a, pole in ((0, -1.0), (1, 1.0)):
        res = compute_shift(atom, kernel, a, cfg, method="kk")
        kk = shift_kk(atom, kernel, a, cfg)
        direct = shift_direct(atom, kernel, a, cfg)
        for mech in ("rf", "sr"):
            residual = abs(kk[mech].value - direct[mech].value)
            assert residual <= (kk[mech].error_estimate
                                + res.detail["err_cutoff"][mech]
                                + direct[mech].error_estimate)
        assert res.err_cutoff == sum(res.detail["err_cutoff"].values())
        # -2 m_b / 2 pi times the integral, with m_b = 1/4
        exact = -0.25 / math.pi * oracles.thermal_sr_beyond_cutoff(
            pole, 0.4, 4.0, wc, g=0.7)
        rem = res.detail["cutoff_remainder"]["sr"]
        assert abs(rem.value - exact) <= rem.error_estimate


@pytest.mark.parametrize("systems, kernel, wc", [
    ((two_level_system(1.0, 1.0), _three_level()), ThermalOhmic(**THERMAL),
     50.0),
    *(((two_level_system(1.0, 0.7),), ThermalOhmic(0.4, 4.0, 0.8), wc)
      for wc in (4.0, 6.0, 8.0, 12.0, 20.0, 40.0)),
], ids=["criterion-2", *("sweep-wc%g" % wc for wc in (4, 6, 8, 12, 20, 40))])
def test_kk_plus_remainder_matches_direct(systems, kernel, wc):
    # the direct route integrates the raw kernel, so it holds the
    # remainder R beyond wc that the dispersion route leaves out: kk + R
    # meets direct within the quadrature estimates of all three, with no
    # |R| in the budget.  The smallest margin, budget / residual, is 28x
    cfg = QuadratureConfig(omega_cutoff=wc)
    for spec in systems:
        for a in range(spec.n_levels):
            rem = compute_shift(spec, kernel, a, cfg,
                                method="kk").detail["cutoff_remainder"]
            kk = shift_kk(spec, kernel, a, cfg)
            direct = shift_direct(spec, kernel, a, cfg)
            for mech in ("rf", "sr"):
                residual = abs(kk[mech].value + rem[mech].value
                               - direct[mech].value)
                assert residual <= (kk[mech].error_estimate
                                    + rem[mech].error_estimate
                                    + direct[mech].error_estimate), (a, mech)


def test_excess_remainder_estimate_covers_its_error():
    # the Unruh excess leaves the direct route a remainder R beyond wc;
    # on the geometric ladder its estimate covers its error (16 uniform
    # panels had given a true error of 3.1e-9 against 8.4e-10 here)
    omega_0, a = 0.021532, 556.04
    wc = 1.8206 * omega_0
    atom = two_level_system(omega_0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=wc)
    for level, pole in ((0, -omega_0), (1, omega_0)):
        rem = _cutoff_remainder(atom, UnruhExcess(a), level, wc, cfg)
        exact = -0.25 / math.pi * oracles.unruh_excess_rf_beyond_cutoff(
            pole, a, wc)
        assert abs(rem["rf"].value - exact) <= rem["rf"].error_estimate
        assert rem["sr"].value == 0.0


def test_remainder_below_rounding_floor_names_the_tolerances():
    # a tolerance below the rounding floor is the tolerance's fault, not a
    # spectrum that does not decay
    atom = two_level_system(1.0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=50.0, abs_tol=1e-300, rel_tol=1e-16)
    with pytest.raises(RoundingFloor,
                       match=r"rounding floor.*quadrature\.abs_tol"):
        _cutoff_remainder(atom, ThermalOhmic(0.5, 5.0, 1.0), 1, 50.0, cfg)


def test_remainder_of_a_spectrum_that_does_not_decay_refused(constant_rates):
    # constant coefficients without a band-limited variant leave a sr
    # remainder beyond the cutoff that diverges like log(w)
    atom = two_level_system(1.0, 1.0)
    with pytest.raises(NonConvergent, match="omega_cutoff"):
        compute_shift(atom, constant_rates(0.1), 1,
                      QuadratureConfig(omega_cutoff=10.0))
