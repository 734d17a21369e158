"""Oscillatory half-line transforms, principal values, regulator limits.

All reservoir quantities reduce to three numerical primitives:

1.  Half-line Fourier transforms  int_0^umax f(u) {cos, sin}(omega u) du
    of a kernel slice f(u) = f(u; eps).  One adaptive pass serves one
    frequency or a vector of them, the whole regulator schedule and
    every kernel part the caller asks for (such as Cs and Ca); its
    components are omega x eps x part, and each is refined until it
    meets its own tolerance.  The kernel is sampled once per node and
    eps, in blocks (see _eval_panels), and each panel's samples serve
    every frequency at once.

    Panel policy: a transform's initial layout is a geometric ladder
    from the short-distance scale of the kernel near u = 0 to u_max,
    with no grid on the oscillation period.  Each panel is integrated by
    a Filon-type rule: the polynomial through the kernel samples at the
    15 nodes of the Kronrod rule K15, times e^{i omega u}, is integrated
    exactly, so a panel only has to resolve the kernel, at any
    omega x width.  The same on the 7 nodes of the Gauss rule G7, which
    are among K15's, gives the panel error |F15 - F7|; at omega -> 0 the
    two rules are K15 and G7.  A plain integrand, such as a principal-
    value quotient, is integrated by K15 itself, with |K15 - G7| as the
    panel error, on panels its caller lays out from the integrand's own
    scale.  So a panel takes NODES_PER_PANEL = 15 samples, and no layout
    follows an oscillation period or an absolute length.
    The adaptive engine keeps panel bounds, values and errors in arrays
    and splits the worst panels in batches until every component meets
    its tolerance or the split budget is spent (SubdivisionLimit).

2.  A regulator limit eps -> 0.  The transform values along a
    decreasing eps schedule come from that one pass and are
    extrapolated polynomially in eps, component by component.
    The leading error model is linear, but the pinned default schedule
    {1e-2, 5e-3, 2.5e-3} leaves a measurable quadratic term for
    omega * eps ~ 0.1, so the schedule is fitted to quadratic order
    whenever three or more samples are available (linear for two).
    The reported residual is the spread between the extrapolation and
    the lower-order fit of the last two samples; it is a deliberate
    overestimate of the true extrapolation error.  The check that
    refuses a non-convergent limit, and the endpoint term and tail
    bound below, are applied to each component.

    Regulator policy: a kernel that is regular at eps = 0 is sampled
    there, once, and needs no extrapolation.  Any other kernel transform
    divides the configured schedule by max(1, the call's largest
    |omega|), so eps * omega stays small at every frequency the call
    reaches.  ``rates._kernel_transform`` is the one place that applies
    it, for the rates and for the direct shift route alike.

3.  Principal-value integrals by symmetric pole subtraction,

        PV int h(w)/(w - p) dw
            = int [h(w) - h(p)]/(w - p) dw + h(p) ln((hi - p)/(p - lo)),

    with the difference quotient replaced by a central-difference
    h'(p) inside a window |w - p| < 1e-8 (hi - lo), whose cost, about
    h'''(p) window^3, no estimate carries.  A pole within 1e-6 (hi - lo)
    of either end is refused.

Truncation of the half-line at u_max is compensated by the analytic
endpoint term -f(u_max) sin(omega u_max)/omega (cosine case, sign
flipped for sine); the remaining tail is bounded through a kernel
envelope when one is supplied and folded into the error estimate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    ConfigError,
    CutoffTooSmall,
    InsufficientSamples,
    NonConvergent,
    PoleOnBoundary,
    RoundingFloor,
    SingularEvaluation,
    SubdivisionLimit,
)

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)
LADDER_RATIO = 1.7
# Panels per sampling block of a plain integrand (960 nodes); a transform
# at W frequencies takes 960 // W panels, so that a block holds at most
# 960 (panel, frequency) pairs.  It bounds the working set of a pass;
# panel values do not depend on it.  At 256/128/64/32: a 3-level
# ThermalOhmic `shift --method both`, whose direct passes sample at most
# 128 panels per call, peaks at 28.8-29.0 MB RSS and takes about 5.5 ms
# in-process at each; the spline workspace of a 6,001-sample tabulated
# kernel (about 25 frequencies per pass) peaks at 1.5/1.2/0.85/0.69 MB
# (tracemalloc) and takes 36/36/35/41 ms (2 vCPU, Python 3.11, numpy 2.4).
BATCH_BLOCK_PANELS = 64
# K15's nodes, G7's among them
NODES_PER_PANEL = 15
# Rounding floor of a converged adaptive sum, in units of eps times the
# sum of the panels' rounding scales (see _eval_panels).  On e^{-a u}
# {cos, sin}(omega u) against mpmath, for a in {0.05, 0.2, 0.8, 3},
# a u_max = 60 and omega from 0 to 20, the largest true error seen was
# 7.9 such units at the default tolerances, quadrature error included,
# and 2.5 at rel_tol 1e-13 up to omega u_max = 1e4.
ROUNDING_FLOOR_ULPS = 8.0
# Calibrated floor for declaring the regulator limit non-convergent; the
# raw 100 * rel_tol criterion trips on the benign O((omega*eps)^3)
# curvature left by the default schedule, so a relative floor is added.
NONCONVERGENT_FLOOR = 0.02

# QUADPACK's QK15 on [-1, 1]: the 7-point Gauss rule G7 and its 15-point
# Kronrod extension K15 (Piessens et al. 1983; Laurie 1997).  Rows are
# (node, K15 weight, G7 weight or 0) for nodes >= 0, each rounded to the
# nearest double; every other node is one of G7's.
_QK15_HALF = (
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0),
)


@functools.cache
def _panel_tables():
    """(nodes, rule), built on first use: the NODES_PER_PANEL nodes of a
    panel, ascending, and the rules K15 and K15 - G7 as rows over them."""
    qk15 = np.array(_QK15_HALF)
    qk15 = np.concatenate([qk15[:0:-1] * (-1.0, 1.0, 1.0), qk15])
    return qk15[:, 0], np.array([qk15[:, 1], qk15[:, 1] - qk15[:, 2]])


def is_finite(value):
    """A finite real number, not a bool."""
    try:  # TypeError: not a number; OverflowError: an int beyond float
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


class QuadratureConfig:
    """Tolerances and truncation controls shared by every computation.

    epsilon_schedule : strictly decreasing regulator values used for the
        eps -> 0 extrapolation.
    omega_cutoff : frequency cutoff for shift integrals (required there,
        unused by plain rate evaluations).
    abs_tol, rel_tol : quadrature targets per transform.
    max_subdivisions : budget of adaptive panel splits.

    The half-line truncation is the kernel's own (``u_max_hint``), not a
    setting here.
    """

    __slots__ = ("epsilon_schedule", "omega_cutoff", "abs_tol", "rel_tol",
                 "max_subdivisions")

    def __init__(self, epsilon_schedule=DEFAULT_EPS_SCHEDULE,
                 omega_cutoff=None, abs_tol=1e-10, rel_tol=1e-8,
                 max_subdivisions=2000):
        self.omega_cutoff = omega_cutoff
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol
        self.max_subdivisions = max_subdivisions
        sched = tuple(float(e) for e in epsilon_schedule)
        if not sched:
            raise InsufficientSamples("epsilon schedule is empty")
        if any(not 0 < e < math.inf for e in sched):
            raise ConfigError("epsilon schedule values must be positive "
                              "and finite")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("epsilon schedule must be strictly decreasing")
        self.epsilon_schedule = sched
        for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
            if not is_finite(tol):
                raise ConfigError("%s must be a finite number, got %r"
                                  % (name, tol))
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if (not isinstance(max_subdivisions, (int, np.integer))
                or isinstance(max_subdivisions, bool) or max_subdivisions < 1):
            raise ConfigError("max_subdivisions must be an integer >= 1, "
                              "got %r" % (max_subdivisions,))
        if omega_cutoff is not None and not is_finite(omega_cutoff):
            raise ConfigError("omega_cutoff must be None or a finite number, "
                              "got %r" % (omega_cutoff,))

    def __repr__(self):
        return "QuadratureConfig(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__)


class IntegralResult:
    """Value with an error estimate.

    error_estimate combines quadrature error, truncation tail bound and
    (when applicable) the regulator extrapolation residual.  A transform
    at a vector of frequencies holds arrays aligned with them.
    """

    __slots__ = ("value", "error_estimate", "detail")

    def __init__(self, value, error_estimate, detail=None):
        self.value = value
        self.error_estimate = error_estimate
        self.detail = {} if detail is None else detail

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# envelopes and truncation

class Envelope:
    """Decreasing bound env(u) on |f| for large u, used for tail bounds.

    kind "power": env(u) = amplitude / u**2, kind "exp":
    env(u) = amplitude * exp(-rate * u).
    """

    __slots__ = ("kind", "amplitude", "rate")

    def __init__(self, kind, amplitude, rate=0.0):
        self.kind = kind
        self.amplitude = amplitude
        self.rate = rate

    def at(self, u):
        if self.kind == "power":
            return self.amplitude / max(u, 1e-300) ** 2
        return self.amplitude * math.exp(-self.rate * u)

    def integral_beyond(self, u):
        if self.kind == "power":
            return self.amplitude / max(u, 1e-300)
        return self.at(u) / self.rate

    def derivative_at(self, u):
        if self.kind == "power":
            return 2.0 * self.amplitude / max(u, 1e-300) ** 3
        return self.rate * self.at(u)


def tail_bound(envelope, u_max, omega):
    """Bound on the dropped tail of a half-line transform.

    For |omega| u_max >= 1 the analytic endpoint term is applied and the
    remainder is O(|f'(u_max)| / omega^2).  Frequencies too small to
    oscillate within the tail get the plain envelope integral.
    """
    if envelope is None:
        return 0.0
    w = abs(omega)
    no_osc = envelope.integral_beyond(u_max)
    if w * u_max < 1.0:
        return no_osc
    return min(no_osc, 2.0 * envelope.derivative_at(u_max) / w ** 2)


# ---------------------------------------------------------------------------
# panel machinery

def _legendre(x, n):
    """P_0 ... P_{n-1} at the points x, shape (x.size, n) (Bonnet)."""
    p = np.ones((x.size, n))
    p[:, 1] = x
    for k in range(1, n - 1):
        p[:, k + 1] = ((2 * k + 1) * x * p[:, k] - k * p[:, k - 1]) / (k + 1)
    return p


def _inverse(a):
    """a^-1 by Gauss-Jordan elimination with partial pivoting (no LAPACK)."""
    n = len(a)
    m = np.hstack([a, np.eye(n)])
    for k in range(n):
        # the first maximum, as np.argmax takes, without faulting in its
        # code: 0.12 MB of peak RSS (3-level thermal, method both)
        p = max(range(k, n), key=lambda i: abs(m[i, k]))
        m[[k, p]] = m[[p, k]]
        m[k] /= m[k, k]
        col = m[:, k].copy()
        col[k] = 0.0
        m -= np.outer(col, m[k])
    return m[:, n:]


@functools.cache
def _filon_rules():
    """Panel samples -> scaled Legendre coefficients, shape (2, 15, 15).

    Row l of rule r maps the NODES_PER_PANEL samples of a panel to
    2 (-1)^(l // 2) c_l, where c_l is the Legendre coefficient of their
    interpolating polynomial: on all nodes for K15 (r = 0), and that
    minus G7's, interpolating the odd nodes only, for r = 1.  With the
    moments int_{-1}^{1} P_l(x) e^{i theta x} dx = 2 i^l j_l(theta), the
    even rows against j_l give the real part of a panel's transform and
    the odd rows its imaginary part.  Row 0 is the rule pair itself,
    which is all that is left at theta = 0.  Built on first use, so
    that a process without a transform does not pay for it.
    """
    n = NODES_PER_PANEL
    nodes, rule = _panel_tables()
    g7 = np.zeros((n, n))
    g7[:7, 1::2] = _inverse(_legendre(nodes[1::2], 7))
    k15 = _inverse(_legendre(nodes, n))
    rules = np.stack([k15, k15 - g7])
    rules *= 2.0 * np.array([1.0, 1.0, -1.0, -1.0] * 4)[:n, None]
    rules[:, 0] = rule
    return rules


# Miller's downward recurrence for the spherical Bessel functions starts
# here; for 1 <= theta <= 14 it then gives j_0 ... j_14 to about 5 ulps
# of the largest of them.
_MILLER_START = 32


@functools.cache
def _bessel_tables():
    """(odd, series), built at the first Filon pass: odd[l] = 2l + 1 for
    l <= _MILLER_START; row k of series holds the Taylor coefficients of
    j_l(theta) (2l + 1)!! / theta^l in theta^2k, (-1/2)^k / (k! (2l + 3)
    ... (2l + 2k + 1)); ten rows reach rounding accuracy for theta < 1."""
    # from a float arange: an int -> float cast, used by no other call on
    # a shift run, costs 0.17 MB of peak RSS (3-level thermal, method both)
    odd = 2.0 * np.arange(_MILLER_START + 1.0) + 1.0
    return odd, np.cumprod(np.vstack([np.ones(NODES_PER_PANEL)] + [
        -0.5 / (k * (odd[:NODES_PER_PANEL] + 2 * k)) for k in range(1, 10)]),
        axis=0)


def _sph_bessel(theta):
    """j_0 ... j_14 at theta >= 0, shape (theta.size, 15).

    The power series below theta = 1, Miller's downward recurrence,
    normalised by sum_l (2l + 1) j_l^2 = 1, up to theta = 14, and the
    upward recurrence beyond, where it is stable for every order.
    """
    n = NODES_PER_PANEL
    odd, series = _bessel_tables()
    out = np.empty((theta.size, n))
    small, big = theta < 1.0, theta > 14.0
    mid = ~(small | big)
    if small.any():
        x = theta[small, None]
        acc = series[-1] * np.ones_like(x)
        for row in series[-2::-1]:
            acc *= x * x
            acc += row
        out[small] = acc * np.cumprod(
            np.hstack([np.ones_like(x), x / odd[1:n]]), axis=1)
    if big.any():
        x = theta[big]
        ratio = np.multiply.outer(1.0 / x, odd[:n])  # (2l + 1) / theta
        prev = np.sin(x) / x
        cur = (prev - np.cos(x)) / x
        out[big, 0], out[big, 1] = prev, cur
        for l in range(1, n - 1):
            prev, cur = cur, ratio[:, l] * cur - prev
            out[big, l + 1] = cur
    if mid.any():
        x = theta[mid]
        ratio = np.multiply.outer(1.0 / x, odd)
        seq = np.empty((x.size, _MILLER_START + 1))
        nxt, cur = 0.0, np.ones_like(x)
        seq[:, -1] = cur
        for l in range(_MILLER_START, 0, -1):
            nxt, cur = cur, ratio[:, l] * cur - nxt
            seq[:, l - 1] = cur
        norm = np.einsum("il,l->i", seq * seq, odd)  # not @: see _filon
        out[mid] = seq[:, :n] / np.sqrt(norm)[:, None]
    return out


def _halfline_breakpoints(u_scale, u_max):
    """Panel boundaries for [0, u_max]: a geometric ladder from u_scale."""
    pts = {0.0, u_max}
    u = max(u_scale / 32.0, u_max * 1e-13)
    while u < u_max:
        pts.add(u)
        u *= LADDER_RATIO
    return np.array(sorted(pts))


def _filon(samples, omega, sine, mid, half):
    """Filon-type K15 and K15 - G7 transforms of a block of panels.

    ``samples`` of shape (E, P, n_panels * NODES_PER_PANEL) are the
    kernel at each panel's nodes; part p is transformed by sin(omega u)
    where ``sine[p]``, else by cos(omega u), at every frequency of
    ``omega``.  On a panel of centre c and half-width h, the samples'
    interpolating polynomial times e^{i omega u} is integrated exactly:
    h e^{i omega c} sum_l c_l 2 i^l j_l(omega h).  Its rounding grows
    with the panel's K15 integral of |kernel|, not with the transform,
    which oscillation makes smaller; that integral is the panel's
    rounding scale.  Returns the values, the K15 - G7 differences and
    the rounding scales, shape (3, W * E * P components ordered
    (w, e, p), panels).
    """
    n_eps, n_parts = samples.shape[:2]
    # einsum (unoptimised) runs numpy's own loops where @ calls BLAS, whose
    # first call maps in OpenBLAS code and buffers: ~0.4 MB of peak RSS
    coef = np.einsum("in,mn->im", samples.reshape(-1, NODES_PER_PANEL),
                     _filon_rules().reshape(-1, NODES_PER_PANEL))
    # (eps, part, panel, rule, l)
    coef = coef.reshape(n_eps, n_parts, mid.size, 2, NODES_PER_PANEL)
    bessel = _sph_bessel(np.abs(np.multiply.outer(half, omega)).ravel())
    bessel = bessel.reshape(mid.size, omega.size, NODES_PER_PANEL)
    # real and imaginary parts of the transform on [-1, 1], (e, p, k, r, w)
    re = np.einsum("epkrl,kwl->epkrw", coef[..., 0::2], bessel[..., 0::2])
    im = np.einsum("epkrl,kwl->epkrw", coef[..., 1::2], bessel[..., 1::2])
    im *= np.sign(omega)  # j_l is odd in theta for odd l
    phase = np.multiply.outer(mid, omega)
    hc = (half[:, None] * np.cos(phase))[:, None]
    hs = (half[:, None] * np.sin(phase))[:, None]
    out = np.where(np.asarray(sine)[:, None, None, None],
                   hs * re + hc * im, hc * re - hs * im)
    out = out.transpose(3, 4, 0, 1, 2).reshape(2, omega.size, -1, mid.size)
    scale = half * np.einsum("ekn,n->ek", np.abs(samples).reshape(
        -1, mid.size, NODES_PER_PANEL), _panel_tables()[1][0])
    return np.concatenate([out, np.broadcast_to(scale, out.shape[1:])[None]]
                          ).reshape(3, -1, mid.size)


def _eval_panels(fw, lo, hi):
    """Integrate a vectorized integrand on each panel [lo_i, hi_i].

    ``fw`` maps nodes, shape (n,), to values of shape (n,) or to a stack
    of m integrand components, shape (m, n).  It may instead be a
    half-line transform (sample, omega, sine): ``sample`` maps nodes to
    kernel samples of shape (E, P, n), which are integrated against
    sin(omega u) for the parts p with ``sine[p]`` and cos(omega u) for
    the others, at the W frequencies ``omega``, by Filon-type rules
    (see _filon).  Its m = W * E * P components are ordered (w, e, p).
    Panels are taken in blocks, with one call on the NODES_PER_PANEL
    nodes of each panel in the block: BATCH_BLOCK_PANELS panels of a
    plain integrand, and for a transform at W frequencies as many panels
    as make BATCH_BLOCK_PANELS * NODES_PER_PANEL (panel, frequency)
    pairs, each with its NODES_PER_PANEL Filon moments.  Returns the
    rows (values, errors, rounding scales) per panel: K15, |K15 - G7|,
    and |K15| of a plain integrand (see _filon for a transform's), shape
    (3, n_panels) or (3, m, n_panels).
    """
    step = BATCH_BLOCK_PANELS
    x, rule = _panel_tables()
    if isinstance(fw, tuple):
        step = max(1, step * NODES_PER_PANEL // np.size(fw[1]))
    blocks = []
    for b in range(0, lo.size, step):
        blk = slice(b, b + step)
        mid = 0.5 * (lo[blk] + hi[blk])
        half = 0.5 * (hi[blk] - lo[blk])
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        if isinstance(fw, tuple):
            sample, omega, sine = fw
            rows = _filon(sample(nodes), omega, sine, mid, half)
        else:
            out = fw(nodes)
            f = np.asarray(out).reshape(np.shape(out)[:-1]
                                        + (mid.size, NODES_PER_PANEL))
            rows = np.stack([np.sum(half[:, None] * r * f, axis=-1)
                             for r in rule])
            rows = np.concatenate([rows, rows[:1]])
        rows[1:] = np.abs(rows[1:])
        blocks.append(rows)
    # in C order, so that sums over panels run pairwise, not along a
    # strided axis where their rounding grows with the count
    return np.concatenate(blocks, axis=-1)


def _work_counts(n_panels, splits, n_samples, components):
    """Work of one adaptive pass that started from ``n_panels`` panels.

    Every split evaluates two new halves at NODES_PER_PANEL nodes each,
    and each node is sampled once per kernel slice (``n_samples``
    regulator values) for all ``components`` of the integrand.
    """
    return {"components": components, "splits": splits,
            "panels": n_panels + splits,
            "kernel_points": (NODES_PER_PANEL * (n_panels + 2 * splits)
                              * n_samples)}


def _split_batch(cand, score):
    """Up to 64 of the ascending panel indices ``cand``, highest ``score``
    first, ties by index: np.lexsort((cand, -score[cand]))'s order, as
    Python's sort is stable, without faulting in numpy's sort code (0.15
    MB of peak RSS on a 3-level thermal ``shift --method both``)."""
    return np.array(sorted(cand.tolist(), key=lambda i: -score[i])[:64])


def integrate_adaptive(fw, breakpoints, abs_tol, rel_tol, max_subdivisions):
    """Globally adaptive panel integration of a vectorized integrand.

    ``fw`` returns one integrand, shape (n,), or a stack of m
    components, shape (m, n), on n nodes; or it is a half-line transform
    (see _eval_panels).  Batches of the worst panels are split until
    every component's summed panel error meets its own
    max(abs_tol, rel_tol * |value|) or the split budget is exhausted
    (SubdivisionLimit).  A non-finite panel value or error, or a sum
    that overflows, raises SingularEvaluation at once, before any more
    splits.  A batch takes up to 64 panels, ranked by their error
    relative to the tolerance of the components still open, among those
    at or above a quarter of such a component's mean panel error.  Each
    component's error gains the rounding floor ROUNDING_FLOOR_ULPS * eps
    * the sum of its panels' rounding scales (see _eval_panels), which
    the stopping test does not see and no split removes: an unmet
    tolerance below it raises RoundingFloor, a SubdivisionLimit, at
    once.  Returns (value, error, splits_used); value and error are
    floats for one integrand and arrays of shape (m,) for a stack.
    """
    bp = np.asarray(breakpoints, dtype=float)
    lo, hi = bp[:-1], bp[1:].copy()
    # rows: panel values, errors and rounding scales; (3, m, n_panels)
    rows = _eval_panels(fw, lo, hi)
    single = rows.ndim == 2
    rows = rows.reshape(3, -1, lo.size)
    splits = 0
    while True:
        total, err, scale = rows.sum(axis=2)
        if not np.all(np.isfinite(total) & np.isfinite(err)):
            bad = ~np.all(np.isfinite(rows[:2]), axis=(0, 1))
            i = np.argmax(bad)
            raise SingularEvaluation(
                "integrand is not finite on the panel [%.6g, %.6g]"
                % (lo[i], hi[i]) if bad[i] else
                "the integral over [%.6g, %.6g] overflows" % (bp[0], bp[-1]))
        floor = ROUNDING_FLOOR_ULPS * np.finfo(float).eps * scale
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        unmet = ~(err <= tol)
        if not unmet.any():
            break
        below = np.flatnonzero(unmet & (tol < floor))
        if below.size:
            raise RoundingFloor(
                "adaptive quadrature cannot reach tolerance %.3e below the "
                "rounding floor %.3e; raise quadrature.abs_tol or "
                "quadrature.rel_tol" % (tol[below[0]], floor[below[0]]))
        if splits >= max_subdivisions:
            worst = np.argmax(np.where(unmet, err / tol, -np.inf))
            raise SubdivisionLimit(
                "adaptive quadrature used all %d subdivisions (error %.3e, "
                "tolerance %.3e)" % (max_subdivisions, err[worst], tol[worst])
            )
        e_open = rows[1, unmet]
        score = np.max(e_open / tol[unmet, None], axis=0)
        cut = 0.25 * err[unmet, None] / lo.size
        cand = np.flatnonzero(np.any(e_open >= cut, axis=0))
        batch = _split_batch(cand, score)
        mid = 0.5 * (lo[batch] + hi[batch])
        right = hi[batch]
        new = _eval_panels(fw, np.concatenate([lo[batch], mid]),
                           np.concatenate([mid, right]))
        new = new.reshape(3, -1, 2 * batch.size)
        n = batch.size
        # the left half keeps the panel's slot, the right half is appended
        hi[batch] = mid
        rows[:, :, batch] = new[:, :, :n]
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, right])
        rows = np.concatenate([rows, new[:, :, n:]], axis=2)
        splits += n
    err = err + floor
    if single:
        return float(total[0]), float(err[0]), splits
    return total, err, splits


# ---------------------------------------------------------------------------
# regulator extrapolation

def _polyfit_zero(eps_arr, values, order):
    coeffs = np.polyfit(eps_arr, values, order)
    return coeffs[-1], coeffs  # the fit at eps = 0 is its constant term


def extrapolate_regulator(samples, order=2):
    """Polynomial eps -> 0 extrapolation of (eps, value) samples.

    Returns (v0, residual, weight_l1).  residual is the spread between
    the chosen fit and the linear extrapolation of the last two samples
    (plus any least-squares misfit); weight_l1 bounds how much per-
    sample noise is amplified.  Values may be equal-shape arrays, one
    sequence per eps; v0 and residual are then arrays of that shape.
    Raises InsufficientSamples for fewer than two samples and
    ConfigError unless eps is positive and strictly decreasing.
    """
    if len(samples) < 2:
        raise InsufficientSamples(
            "need at least two (eps, value) samples, got %d" % len(samples)
        )
    eps = np.array([e for e, _ in samples], dtype=float)
    vals = np.array([v for _, v in samples], dtype=float)
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ConfigError("regulator samples must have positive, strictly "
                          "decreasing eps; fix the epsilon schedule")
    shape = vals.shape[1:]
    vals = vals.reshape(eps.size, -1)  # one column per sequence
    p = min(order, len(samples) - 1)
    v0, coeffs = _polyfit_zero(eps, vals, p)
    misfit = np.max(np.abs(np.polyval(coeffs, eps[:, None]) - vals), axis=0)
    v_lin = _polyfit_zero(eps[-2:], vals[-2:], 1)[0] if p >= 1 else vals[-1]
    residual = np.abs(v0 - v_lin) + misfit
    # l1 norm of the Lagrange weights at 0 for the exact-fit case
    if p == len(samples) - 1:
        wts = []
        for k in range(len(eps)):
            others = np.delete(eps, k)
            wts.append(np.prod((0.0 - others) / (eps[k] - others)))
        weight_l1 = float(np.sum(np.abs(wts)))
    else:
        weight_l1 = float(len(samples))
    if not shape:
        return float(v0[0]), float(residual[0]), weight_l1
    return v0.reshape(shape), residual.reshape(shape), weight_l1


def _check_convergent(v0, residual, scale_hint, cfg):
    """Refuse a regulator limit whose residual is too large (per component)."""
    scale = np.maximum(np.maximum(np.abs(v0), 0.1 * scale_hint),
                       1e4 * cfg.abs_tol)
    tol = max(100.0 * cfg.rel_tol, NONCONVERGENT_FLOOR) * scale
    bad = np.flatnonzero(residual > tol)
    if bad.size:
        raise NonConvergent(
            "regulator extrapolation residual %.3e exceeds tolerance at value "
            "%.3e; decrease the epsilon schedule or omega"
            % (residual.flat[bad[0]], v0.flat[bad[0]])
        )


# ---------------------------------------------------------------------------
# half-line transforms

def halfline_transform(f, omega, cfg, kind, *, u_max, u_scale, envelope=None,
                       eps_schedule=None):
    """Half-line cos/sin transform of a kernel slice with eps -> 0 limit.

    One adaptive pass covers every frequency, the whole eps schedule and
    every kernel part: each node is sampled once per eps, and each
    component (omega, eps, part) is refined until it meets its own
    tolerance.

    Parameters
    ----------
    f : callable (u_array, eps) -> array of shape (n,), or a stack of k
        kernel parts of shape (k, n).
    omega : transform frequency, or a 1-d array of them.
    cfg : QuadratureConfig
    kind : "cos" or "sin"; for a stacked f, a sequence of them, one per
        part.
    u_max, u_scale, envelope : truncation point, short-distance scale
        near u = 0 to resolve, and tail envelope (see Envelope).
    eps_schedule : overrides cfg.epsilon_schedule; a one-entry schedule
        gives a single evaluation at that eps, without extrapolation.

    Returns an IntegralResult, or for a sequence ``kind`` a tuple of
    them, one per part; for an array ``omega`` their values and errors
    are arrays aligned with it.  Each detail holds u_max and the pass's
    work: components (frequencies times eps values times parts), splits,
    panels and kernel_points (nodes times eps values); an extrapolated
    result adds its (eps, value) samples.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    sched = tuple(eps_schedule) if eps_schedule is not None else cfg.epsilon_schedule
    u_cap = float(u_max)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    n_eps, n_parts = len(sched), len(kinds)

    def parts(u, eps):
        return np.reshape(f(u, eps), (n_parts, -1))

    def sample(u):
        return np.stack([parts(u, eps) for eps in sched])

    # Filon-type panels carry the oscillation, so they only have to
    # resolve the kernel
    bp = _halfline_breakpoints(u_scale, u_cap)
    raw, qerr, splits = integrate_adaptive(
        (sample, om, [k == "sin" for k in kinds]), bp, cfg.abs_tol,
        cfg.rel_tol, cfg.max_subdivisions
    )
    raw = raw.reshape(om.size, n_eps, n_parts)
    qerr = qerr.reshape(om.size, n_eps, n_parts)
    work = _work_counts(bp.size - 1, splits, n_eps, raw.size)
    corrected = np.abs(om) * u_cap >= 1.0
    if corrected.any():
        w = om[corrected, None, None]
        f_end = np.stack([parts(np.array([u_cap]), eps)[:, 0]
                          for eps in sched])
        edge = np.concatenate([-np.sin(w * u_cap) if k == "cos"
                               else np.cos(w * u_cap) for k in kinds], axis=-1)
        raw[corrected] += f_end * edge / w
        work["kernel_points"] += n_eps
    tails = [tail_bound(envelope, u_cap, w) for w in om]
    qerr += np.reshape(tails, (-1, 1, 1))
    detail = dict(work, u_max=u_cap)
    if n_eps == 1:
        value, err = raw[:, 0], qerr[:, 0]
    else:
        value, residual, wl1 = extrapolate_regulator(
            list(zip(sched, raw.swapaxes(0, 1))), order=2)
        err = residual + wl1 * np.max(qerr, axis=1)
        _check_convergent(value, residual, np.max(np.abs(raw), axis=1), cfg)

    def shaped(a):
        return float(a[0]) if np.ndim(omega) == 0 else a

    out = []
    for j in range(n_parts):
        d = dict(detail)
        if n_eps > 1:
            d["samples"] = [(eps, shaped(raw[:, i, j]))
                            for i, eps in enumerate(sched)]
        out.append(IntegralResult(shaped(value[:, j]), shaped(err[:, j]),
                                  detail=d))
    return out[0] if isinstance(kind, str) else tuple(out)


# ---------------------------------------------------------------------------
# principal values and Kramers-Kronig

def _pv_breakpoints(lo, hi, pole, guard, extra=()):
    """16 uniform panels, halved toward the pole and toward each extra
    point inside (lo, hi) down to the guard.  np.arange rounds its length
    and may return a 16th uniform point at or just past hi (at hi = -lo =
    0.7, 0.7000000000000005); every point within step / 2 of hi goes."""
    step = (hi - lo) / 16.0
    pts = {lo, hi, *(x for x in np.arange(lo + step, hi, step)
                     if hi - x > 0.5 * step)}
    for c in (pole, *(float(s) for s in extra if lo < s < hi)):
        pts.add(c)
        d = min(c - lo, hi - c) / 2.0
        while d > guard:
            pts.update((c - d, c + d))
            d /= 2.0
    return np.array(sorted(pts))


def pv_integral(h, pole, lo, hi, cfg, *, h_error=None, extra_breakpoints=()):
    """PV int_lo^hi h(w) / (w - pole) dw by symmetric pole subtraction.

    ``h`` maps an array of n points to one function, shape (n,), or to
    a stack of m, shape (m, n); each component meets its own tolerance.
    One call at (pole, pole -/+ window) gives the pole value and the
    derivative that stands in for the quotient within the window (see
    the module docstring).  ``h_error`` may supply a pointwise error
    bound on h, shaped like it, which is propagated through the quotient
    with the pole distance floored at the guard 1e-6 (hi - lo).
    ``extra_breakpoints`` seeds panel boundaries at known kinks or narrow
    features of h, refined toward as the pole is.
    The IntegralResult holds floats, or arrays of shape (m,) for a stack;
    its detail holds the pass's work: components, splits, panels and
    kernel_points (the samples of h, the three at the pole included).
    """
    lo, hi, pole = float(lo), float(hi), float(pole)
    span = hi - lo
    if span <= 0:
        raise PoleOnBoundary("empty integration interval [%g, %g]" % (lo, hi))
    guard = 1e-6 * span
    if pole - lo <= guard or hi - pole <= guard:
        raise PoleOnBoundary(
            "pole %g sits on the boundary of [%g, %g]" % (pole, lo, hi)
        )
    window = 1e-8 * span
    at_pole = np.asarray(h(np.array([pole, pole - window, pole + window])))
    hp = at_pole[..., :1]
    dh = (at_pole[..., 2:] - at_pole[..., 1:2]) / (2.0 * window)

    def subtracted(w):
        d = w - pole
        near = np.abs(d) < window
        safe = np.where(near, 1.0, d)
        out = (np.asarray(h(w)) - hp) / safe
        return np.where(near, dh, out)

    bp = _pv_breakpoints(lo, hi, pole, guard, extra_breakpoints)
    value, err, splits = integrate_adaptive(
        subtracted, bp, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions
    )
    work = _work_counts(bp.size - 1, splits, 1, hp.size)
    work["kernel_points"] += 3
    value = value + hp[..., 0] * math.log((hi - pole) / (pole - lo))
    if h_error is not None:
        def quotient_err(w):
            d = np.maximum(np.abs(w - pole), guard)
            return np.asarray(h_error(w)) / d
        ebp = np.array(sorted({lo, hi, pole - guard, pole + guard,
                               *np.linspace(lo, hi, 33)}))
        evals = _eval_panels(quotient_err, ebp[:-1], ebp[1:])[0]
        err = err + np.sum(np.abs(evals), axis=-1)
    if at_pole.ndim == 1:
        return IntegralResult(float(value), float(err), work)
    return IntegralResult(value, err, work)


def kk_real_from_imag(f_imag, omega, cfg):
    """Reconstruct Re f(omega) from Im f by a truncated Hilbert transform.

    Re f(omega) = (1/pi) PV int_{-wc}^{wc} Im f(w') / (w' - omega) dw'.
    The error estimate adds the magnitude of the outermost panel on each
    side as a crude bound for the dropped |w'| > wc tail.
    """
    if cfg.omega_cutoff is None:
        raise CutoffTooSmall("omega_cutoff must be set for a KK transform")
    wc = float(cfg.omega_cutoff)
    res = pv_integral(f_imag, omega, -wc, wc, cfg)
    err = res.error_estimate / math.pi
    edge = wc / 16.0
    vals = _eval_panels(lambda w: np.asarray(f_imag(w)) / (w - omega),
                        np.array([-wc, wc - edge]),
                        np.array([edge - wc, wc]))[0]
    err += float(np.sum(np.abs(vals))) / math.pi
    return IntegralResult(res.value / math.pi, err,
                          detail={"omega_cutoff": wc})
