import math

import numpy as np
import pytest

import oracles
from resrelax import (
    AcceleratedVacuum,
    ConfigError,
    CutoffTooSmall,
    InertialVacuum,
    QuadratureConfig,
    ThermalOhmic,
    compute_shift,
    delta_sr_relative,
    lamb_shift_two_level,
    shift_direct,
    shift_kk,
    two_level_system,
)
from resrelax.quadrature import BATCH_BLOCK_PANELS, NODES_PER_PANEL
from resrelax.shifts import ShiftWorkspace

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
        source = ThermalOhmic(eta=0.4, omega_j=5.0, temperature=0.8)
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


def test_direct_pass_shares_each_kernel_sample(counting):
    # level b has two partners; each gets one pass in which the three
    # eps values and both mechanisms share every kernel sample.  Kernel
    # points, endpoints included: 1,688,028 with one pass per (mechanism,
    # eps) and 844,014 with one per partner, at 22 nodes per panel and 16
    # panels per period; 304,296 at 21 nodes and 6 panels per period
    import numpy as np

    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    both = counting(_ladder_kernel())
    compute_shift(spec, both, 1, cfg, method="direct")
    points = sum(u.size for _, u in both.calls)
    assert points * 2 <= 1_688_028
    assert max(u.size for _, u in both.calls) \
        <= BATCH_BLOCK_PANELS * NODES_PER_PANEL
    # every eps of the schedule samples the same nodes
    per_eps = {}
    for eps, u in both.calls:
        per_eps.setdefault(eps, []).append(u)
    assert len(per_eps) == len(cfg.epsilon_schedule)
    nodes = [np.concatenate(us) for us in per_eps.values()]
    assert all(np.array_equal(nodes[0], n) for n in nodes[1:])


def test_direct_pass_logged(caplog):
    # one debug line per partner pass, with its work counts
    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    with caplog.at_level("DEBUG", logger="resrelax.shifts"):
        shift_direct(spec, _ladder_kernel(), 1, cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("direct pass")]
    assert len(lines) == 2
    assert all("6 components" in line and "kernel points" in line
               for line in lines)


def test_pv_passes_logged(caplog):
    # one debug line per partner level and cutoff, with its work counts
    spec = _ladder3()
    cfg = QuadratureConfig(omega_cutoff=25.0)
    with caplog.at_level("DEBUG", logger="resrelax.shifts"):
        compute_shift(spec, _ladder_kernel(), 1, cfg, method="kk")
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("pv pass")]
    assert sorted(line.split(":")[0] for line in lines) == sorted(
        "pv pass at pole %g, cutoff %g" % (pole, wc)
        for pole in (1.0, -1.3) for wc in (25.0, 50.0))
    assert all("2 components" in line and "kernel points" in line
               for line in lines)


def test_accelerated_kk_vs_direct(vac_atom):
    cfg = QuadratureConfig(omega_cutoff=25.0)
    kernel = AcceleratedVacuum(acceleration=2.0)
    kk = shift_kk(vac_atom, kernel, 1, cfg)["rf"]
    direct = shift_direct(vac_atom, kernel, 1, cfg)["rf"]
    tol = 10.0 * (kk.error_estimate + direct.error_estimate)
    assert abs(kk.value - direct.value) <= tol
