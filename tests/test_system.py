import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from resrelax import (
    DegenerateTransition,
    DimensionMismatch,
    InertialVacuum,
    NonFiniteEnergy,
    NonHermitianCoupling,
    OutOfRange,
    QuadratureConfig,
    SystemSpec,
    ThermalOhmic,
    compute_shift,
    relaxation_rate,
    shift_direct,
    shift_kk,
    system_spectral_functions,
    transition_element,
    transition_elements,
    transition_rates,
    two_level_system,
)


def random_three_level(rng, g=0.3, diagonal_free=False):
    """Three-level system with two random Hermitian coupling operators.

    With diagonal_free=True the operators connect only different levels,
    so every term of the b-sums carries a nonzero transition frequency.
    """
    ops = []
    for _ in range(2):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = 0.5 * (raw + raw.conj().T)
        if diagonal_free:
            np.fill_diagonal(op, 0.0)
        ops.append(op)
    return SystemSpec(
        levels=(("g", -1.0), ("m", 0.2), ("e", 1.7)),
        coupling_ops=tuple(ops),
        g=g,
    )


def test_two_level_layout():
    spec = two_level_system(omega_0=2.0, g=0.4)
    assert spec.labels == ("-", "+")
    assert_allclose(spec.energies, [-1.0, 1.0])
    assert spec.omega_ab(1, 0) == pytest.approx(2.0)
    assert spec.g == 0.4
    # single coupling operator, pure inter-level
    (op,) = spec.coupling_ops
    assert op[0, 0] == op[1, 1] == 0.0
    assert_allclose(op, op.conj().T)


def test_two_level_strength_quarter():
    spec = two_level_system(omega_0=1.0, g=1.0)
    el = transition_element(spec, 1, 0)
    assert el.strength == pytest.approx(0.25)
    assert transition_element(spec, 0, 1).strength == pytest.approx(0.25)


def test_validate_rejects_non_hermitian():
    with pytest.raises(NonHermitianCoupling):
        SystemSpec(
            levels=(("a", 0.0), ("b", 1.0)),
            coupling_ops=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
            g=1.0,
        )


def test_validate_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        SystemSpec(
            levels=(("a", 0.0), ("b", 1.0)),
            coupling_ops=(np.zeros((3, 3)),),
            g=1.0,
        )


def test_validate_rejects_nonfinite_energy():
    with pytest.raises(NonFiniteEnergy):
        SystemSpec(
            levels=(("a", 0.0), ("b", float("nan"))),
            coupling_ops=(np.zeros((2, 2)),),
            g=1.0,
        )


def test_degenerate_pair_flagged_excluded():
    # equal energies do not fail validation; the pair just drops out of
    # every transition sum and direct queries refuse it
    op = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = SystemSpec(levels=(("a", 1.0), ("b", 1.0)), coupling_ops=(op,),
                      g=1.0)
    assert spec.active_pairs == ()
    assert set(spec.excluded_pairs) == {(0, 1), (1, 0)}
    assert transition_elements(spec, 0) == []
    with pytest.raises(DegenerateTransition):
        transition_element(spec, 0, 1)


def test_validate_sorts_levels_ascending():
    op = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = SystemSpec(
        levels=(("hi", 3.0), ("lo", -3.0)),
        coupling_ops=(op,),
        g=1.0,
    )
    assert out.labels == ("lo", "hi")
    assert_allclose(out.energies, [-3.0, 3.0])


def test_transition_elements_order_and_content(rng):
    spec = random_three_level(rng)
    els = transition_elements(spec, 2)
    assert [el.b for el in els] == [0, 1]
    for el in els:
        assert el.omega_ab == pytest.approx(
            spec.energies[2] - spec.energies[el.b]
        )
        manual = sum(abs(op[2, el.b]) ** 2 for op in spec.coupling_ops)
        assert el.strength == pytest.approx(manual, rel=1e-13)


def test_degenerate_partner_dropped_from_sums(rng):
    base = random_three_level(rng)
    spec = SystemSpec(
        levels=(("g", -1.0), ("e1", 1.0), ("e2", 1.0)),
        coupling_ops=base.coupling_ops,
        g=base.g,
    )
    assert set(spec.excluded_pairs) == {(1, 2), (2, 1)}
    assert [el.b for el in transition_elements(spec, 1)] == [0]
    assert [el.b for el in transition_elements(spec, 0)] == [1, 2]


def test_spectral_functions_match_expm_oracle(rng):
    # with diagonal-free couplings and a nondegenerate spectrum the
    # zero-frequency terms vanish, so the restricted b-sum must equal the
    # full Heisenberg anticommutator/commutator oracle exactly
    spec = random_three_level(rng, diagonal_free=True)
    u_grid = np.linspace(0.0, 7.0, 23)
    for a in range(3):
        for u in u_grid:
            c_lib, x_lib = system_spectral_functions(spec, a, float(u))
            c_ref, x_ref = oracles.heisenberg_spectral_functions(
                spec.energies, spec.coupling_ops, a, float(u)
            )
            assert_allclose(c_lib, c_ref, atol=1e-10, rtol=0)
            assert_allclose(x_lib, x_ref, atol=1e-10, rtol=0)


def test_spectral_function_symmetries(rng):
    # C_S is even and real-valued on the diagonal sum; chi_S is odd.
    spec = random_three_level(rng)
    for u in (0.3, 1.1, 4.2):
        c_p, x_p = system_spectral_functions(spec, 1, u)
        c_m, x_m = system_spectral_functions(spec, 1, -u)
        assert_allclose(np.trace(c_p), np.trace(c_m), atol=1e-13)
        assert_allclose(np.trace(x_p), -np.trace(x_m), atol=1e-13)
        assert abs(np.trace(c_p).imag) < 1e-13
        assert abs(np.trace(x_p).real) < 1e-13


def test_vectorized_u_matches_scalar(rng):
    spec = random_three_level(rng)
    u = np.array([0.0, 0.5, 2.0])
    c_vec, x_vec = system_spectral_functions(spec, 0, u)
    for k, uk in enumerate(u):
        c_k, x_k = system_spectral_functions(spec, 0, float(uk))
        assert_allclose(c_vec[..., k], c_k, atol=1e-14)
        assert_allclose(x_vec[..., k], x_k, atol=1e-14)


def test_index_of_unknown_label():
    from resrelax import ConfigError

    spec = two_level_system(1.0, 1.0)
    assert spec.index_of("+") == 1
    with pytest.raises(ConfigError):
        spec.index_of("nope")


def _rounding_hermitian(rng, n=3):
    """Q H Q^dagger for a random unitary Q: hermitian up to rounding."""
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(raw)
    return q @ np.diag(rng.normal(size=n)) @ q.conj().T


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-12, 13, 3)])
def test_hermiticity_check_is_scale_free(scale):
    # S -> lambda S with g -> g / lambda is the same physics, so whether
    # an operator passes cannot depend on the size of its entries
    rng = np.random.default_rng(5)
    levels = (("a", -1.0), ("b", 0.2), ("c", 1.7))
    op = scale * _rounding_hermitian(rng)
    assert np.max(np.abs(op - op.conj().T)) > 0.0
    SystemSpec(levels=levels, coupling_ops=(op,), g=1.0 / scale)
    skewed = op.copy()
    skewed[0, 2] += 1e-6 * np.max(np.abs(op))
    with pytest.raises(NonHermitianCoupling):
        SystemSpec(levels=levels, coupling_ops=(skewed,), g=1.0 / scale)


def test_zero_coupling_operator_is_hermitian():
    spec = SystemSpec(levels=(("a", 0.0), ("b", 1.0)),
                      coupling_ops=(np.zeros((2, 2)),), g=1.0)
    assert spec.active_pairs == ((0, 1), (1, 0))


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_degeneracy_ignores_an_energy_offset(offset):
    # a constant added to every level changes no physics: the pair stays
    # active and the rates move only by the rounding of omega_ab
    from resrelax import ThermalOhmic, relaxation_rate

    split, op = 1e-4, np.array([[0.0, -0.5j], [0.5j, 0.0]])
    kernel = ThermalOhmic(0.5, 5, 1)

    def spec_at(shift):
        return SystemSpec(
            levels=(("-", shift - split / 2), ("+", shift + split / 2)),
            coupling_ops=(op,), g=1.0)

    spec, ref = spec_at(offset), spec_at(0.0)
    assert spec.active_pairs == ref.active_pairs == ((0, 1), (1, 0))
    rounding = abs(spec.omega_ab(1, 0) - split) / split
    assert rounding <= 2 * np.spacing(offset + split) / split
    for a in (0, 1):
        value = relaxation_rate(spec, a, kernel).value
        expected = relaxation_rate(ref, a, kernel).value
        assert value != 0.0
        assert value == pytest.approx(expected, rel=2 * rounding + 1e-14)


def test_splitting_lost_to_rounding_is_degenerate():
    op = np.array([[0.0, 1.0], [1.0, 0.0]])
    for low in (0.0, 1.0, 1e6):
        high = np.nextafter(low, np.inf) if low else low
        spec = SystemSpec(levels=(("a", low), ("b", float(high))),
                          coupling_ops=(op,), g=1.0)
        assert spec.active_pairs == ()


def test_transition_element_of_an_admitted_operator():
    # |S_10 - conj(S_01)| = 5e-10 is within 1e-12 of the largest entry,
    # so the operator is admitted and each of its elements is usable
    op = np.array([[0.0, 1.0, 0.0], [1.0 + 5e-10j, 0.0, 0.0],
                   [0.0, 0.0, 1e3]])
    spec = SystemSpec(levels=(("a", 0.0), ("b", 1.0), ("c", 2.0)),
                      coupling_ops=(op,), g=1.0)
    assert transition_element(spec, 1, 0).strength == pytest.approx(1.0)
    assert [el.b for el in transition_elements(spec, 0)] == [1, 2]


@pytest.mark.parametrize("index", [-1, 2], ids=["minus-one", "n-levels"])
@pytest.mark.parametrize("call", [
    lambda spec, k, a, cfg: relaxation_rate(spec, a, k),
    lambda spec, k, a, cfg: transition_rates(spec, a, k),
    lambda spec, k, a, cfg: shift_kk(spec, k, a, cfg),
    lambda spec, k, a, cfg: shift_direct(spec, k, a, cfg),
    lambda spec, k, a, cfg: compute_shift(
        two_level_system(1.0, 0.0), ThermalOhmic(0.5, 5.0, 1.0), a, cfg,
        method="direct"),
    lambda spec, k, a, cfg: compute_shift(spec, k, a, cfg, method="both"),
    lambda spec, k, a, cfg: transition_element(spec, a, 0),
    lambda spec, k, a, cfg: transition_element(spec, 1, a),
], ids=["relaxation_rate", "transition_rates", "shift_kk", "shift_direct",
        "direct-at-g-zero", "compute_shift", "transition_element-a",
        "transition_element-b"])
def test_level_index_outside_the_system_refused(call, index):
    # an index past the last level has no partners, so it read as zero
    # rates and shifts, and -1 read the last level under the name -1;
    # the direct route at g = 0, which takes no pass, checks it too
    spec = two_level_system(1.0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=10.0)
    with pytest.raises(OutOfRange, match="level index %d .* 2-level" % index):
        call(spec, InertialVacuum(), index, cfg)
