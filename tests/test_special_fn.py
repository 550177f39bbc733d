"""Special functions against independent oracles, plus the distribution interface."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy import special as sp

from sketch_infer import densities, special_fn
from sketch_infer.errors import ConvergenceError, DomainError, NonFinite, OverflowSignal
from sketch_infer.special_fn import (
    Law,
    bessel_k,
    beta_law,
    chi2,
    dist_cdf,
    dist_quantile,
    f_law,
    kummer_m,
    kummer_u,
    log_bessel_k,
    log_kummer_u,
    student_t,
)


class TestKummerM:
    def test_unit_at_zero(self):
        for a, b in [(0.3, 1.1), (-2.0, 4.5), (7.0, 0.2)]:
            assert kummer_m(a, b, 0.0) == 1.0

    def test_closed_form_identity(self):
        # M(1, 2, z) = (e^z - 1)/z
        z = 1.5
        exact = (math.exp(z) - 1.0) / z
        assert abs(kummer_m(1.0, 2.0, z) - exact) / exact < 1e-10

    def test_high_precision_series_oracle(self):
        # 500-term exact-rational series in mpmath at 60 digits
        with mpmath.workdps(60):
            ref = float(mpmath.hyp1f1(mpmath.mpf("3.5"), mpmath.mpf("7.25"), -12))
        got = kummer_m(3.5, 7.25, -12.0)
        assert abs(got - ref) / abs(ref) < 1e-9

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m(1.0, -3.0, 1.0)

    def test_contiguous_recurrence(self):
        # M(a,b,z) = M(a+1,b,z) - (z/b) M(a+1,b+1,z)
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(0.2, 6.0)
            b = rng.uniform(0.5, 8.0)
            z = rng.uniform(-5.0, 5.0)
            lhs = kummer_m(a, b, z)
            rhs = kummer_m(a + 1, b, z) - (z / b) * kummer_m(a + 1, b + 1, z)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_large_negative_argument(self):
        with mpmath.workdps(50):
            ref = float(mpmath.hyp1f1(2.0, 5.0, -900.0))
        got = kummer_m(2.0, 5.0, -900.0)
        assert abs(got - ref) / abs(ref) < 1e-8


class TestKummerU:
    def test_exponential_integral_identity(self):
        # U(1, 1, z) = e^z E_1(z)
        z = 2.0
        exact = math.exp(z) * sp.exp1(z)
        assert abs(kummer_u(1.0, 1.0, z) - exact) / exact < 1e-8

    def test_leading_asymptote(self):
        # U(a, b, z) z^a -> 1 as z -> inf
        val = kummer_u(2.0, 1.0, 1e4) * 1e4**2
        assert abs(val - 1.0) < 1e-3

    def test_quadrature_refinement_oracle(self):
        # independent high-accuracy quadrature of the same representation
        a, b, z = 3.0, -1.5, 0.7
        with mpmath.workdps(40):
            ref = float(
                mpmath.quad(lambda t: mpmath.e ** (-z * t) * t ** (a - 1) * (1 + t) ** (b - a - 1),
                            [0, mpmath.inf]) / mpmath.gamma(a)
            )
        assert abs(kummer_u(a, b, z) - ref) / ref < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            kummer_u(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            kummer_u(1.0, 0.5, -1.0)

    def test_log_variant_large_parameters(self):
        got = log_kummer_u(2505.5, 3.0, 0.04)
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.hyperu(2505.5, 3.0, 0.04)))
        assert abs(got - ref) < 1e-7 * abs(ref)

    @pytest.mark.parametrize("a, b, z", [(0.5, 0.3, 0.2), (0.3, 2.0, 5.0)])
    def test_singular_endpoint_oracle(self, a, b, z):
        # a < 1: the integrand t^(a-1) ... is singular at t = 0
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.hyperu(a, b, z)))
        assert abs(log_kummer_u(a, b, z) - ref) < 1e-10

    def test_non_finite_arguments(self):
        for args in [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf)]:
            with pytest.raises(NonFinite):
                log_kummer_u(*args)

    def test_short_node_table_raises(self, monkeypatch):
        # a rule whose range ends inside the integrand's mass must not return
        monkeypatch.setattr(special_fn, "_NODES", special_fn._node_table(1.0, 25))
        with pytest.raises(ConvergenceError, match="range too narrow"):
            log_kummer_u(3.0, -1.5, 0.7)

    def test_coarse_node_table_raises(self, monkeypatch):
        # nor one whose step is too coarse for the integrand
        monkeypatch.setattr(special_fn, "_NODES", special_fn._node_table(7.0, 57))
        with pytest.raises(ConvergenceError, match="step too coarse"):
            log_kummer_u(0.5, 0.8, 1e-3)

    def test_small_a_narrow_peak_outside_verified_domain(self):
        # below a = 0.5 the t^a tail can outrun the rule: it raises, never
        # returns an unconverged value
        for fn in (kummer_u, log_kummer_u):
            with pytest.raises(ConvergenceError, match="range too narrow"):
                fn(0.05, 259.6, 228.3)


class TestSoftplus:
    def test_matches_logaddexp_to_one_ulp_without_warnings(self):
        # past |u| = 709.8 e^|u| overflows and e^-|u| underflows
        u = np.concatenate([np.linspace(-800.0, 800.0, 20001), [-745.2, -709.8, 709.8, 745.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plus, minus = special_fn._softplus(u, mirrored=True)
            alone = special_fn._softplus(u)
        np.testing.assert_array_max_ulp(plus, np.logaddexp(0.0, u), maxulp=1)
        np.testing.assert_array_max_ulp(minus, np.logaddexp(0.0, -u), maxulp=1)
        np.testing.assert_array_equal(alone, plus)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("x", [-800.0, -3.5, -0.0, 0.0, 1e-300, 2.5, 745.2])
def test_softplus_of_a_number_has_the_bits_of_a_one_element_array(x, mirrored):
    # _beta_rule calls _softplus(mode) on a float: a number, a numpy scalar
    # and a 0-d array each give a 0-d result with the bits of an array's
    want = special_fn._softplus(np.array([x]), mirrored)
    for u in (x, np.float64(x), np.array(x)):
        got = special_fn._softplus(u, mirrored)
        for g, w in (zip(got, want) if mirrored else [(got, want)]):
            assert np.shape(g) == ()
            assert np.asarray(g).reshape(1).view(np.int64) == w.view(np.int64)


def _integrand_at_nodes(monkeypatch, module, fn, *args):
    """(h, its nodes u) of the one ``_log_laplace_integral`` call of fn(*args)."""
    seen = []
    real = special_fn._log_laplace_integral

    def spy(h, mode, sigma):
        seen.append((h, mode, sigma))
        return real(h, mode, sigma)

    monkeypatch.setattr(module, "_log_laplace_integral", spy)
    fn(*args)
    (h, mode, sigma), = seen
    return h, mode + sigma * special_fn._NODES[0]


@pytest.mark.parametrize("a,b,z", [(3.0, -1.5, 0.7), (0.8, 2.5, 40.0), (12.0, 30.0, 1e-3),
                                   (5000.0, 6000.0, 7.5)])
def test_u_integrand_has_the_bits_of_its_plain_formula(monkeypatch, a, b, z):
    # log_kummer_u forms its integrand in place on its ufuncs' buffers: at
    # every node it must give the bits of the expression it stands for
    h, u = _integrand_at_nodes(monkeypatch, special_fn, log_kummer_u, a, b, z)
    with np.errstate(over="ignore"):
        want = a * u + (b - a - 1.0) * special_fn._softplus(u) - z * np.exp(u)
    np.testing.assert_array_equal(h(u.copy()).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("a,c,x", [(6.5, 94.5, 300.0), (0.7, 2.0, 55.0), (4000.0, 5.0, 9e4)])
def test_m_integrand_has_the_bits_of_its_plain_formula(monkeypatch, a, c, x):
    # the same for the Laplace route of Kummer M in densities
    h, u = _integrand_at_nodes(monkeypatch, densities, densities._log_m_neg_laplace, a, c, x)
    plus, minus = special_fn._softplus(u, mirrored=True)
    want = -x * sp.expit(u) - a * minus - c * plus
    np.testing.assert_array_equal(h(u.copy()).view(np.int64), want.view(np.int64))


def _u_recurrence_gap(a, b, z):
    """|log U(a,b,z) - log(a U(a+1,b,z) + U(a,b-1,z))|, DLMF 13.3.10.

    Both terms on the right are positive, so the log-space sum does not cancel.
    """
    rhs = np.logaddexp(math.log(a) + log_kummer_u(a + 1.0, b, z), log_kummer_u(a, b - 1.0, z))
    return abs(log_kummer_u(a, b, z) - rhs)


_log10_z = st.floats(-3.0, 4.0)


class TestKummerURecurrence:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.5, 6000.0), b=st.floats(-5.0, 6000.0), log10_z=_log10_z)
    @example(a=0.5, b=-5.0, log10_z=-3.0)
    @example(a=6000.0, b=6000.0, log10_z=4.0)
    @example(a=0.5, b=6000.0, log10_z=-3.0)
    @example(a=0.5, b=0.8, log10_z=-3.0)  # flat integrand: a step of 1/12 was 5e-8 off here
    def test_holds_on_the_working_box(self, a, b, log10_z):
        assert _u_recurrence_gap(a, b, 10.0 ** log10_z) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.05, 6000.0), b=st.floats(-5.0, 6000.0), log10_z=_log10_z)
    @example(a=0.05, b=0.3, log10_z=-0.7)
    @example(a=0.2, b=-5.0, log10_z=4.0)
    def test_holds_or_raises_on_a_wider_box(self, a, b, log10_z):
        # below a ~ 0.5 the t^a tail can outrun the rule: a raise is allowed,
        # a wrong value is not
        try:
            gap = _u_recurrence_gap(a, b, 10.0 ** log10_z)
        except ConvergenceError:
            return
        assert gap < 1e-10


class TestChi2Rule:
    """The chi2 mixing rule reproduces the law's moments."""

    @pytest.mark.parametrize("df", [5, 11, 19, 1e4])
    def test_moments(self, df):
        w, q = special_fn._chi2_rule(df)
        assert w.size <= 103
        assert q.sum() == pytest.approx(1.0, abs=1e-15) and np.all(q > 0)
        assert q @ w == pytest.approx(df, rel=1e-14)
        assert q @ (w * w) == pytest.approx(df * df + 2 * df, rel=1e-14)
        # E log chi2_df = digamma(df / 2) + log 2
        assert q @ np.log(w) == pytest.approx(sp.digamma(df / 2) + math.log(2.0), rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("df", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, df):
        with pytest.raises(DomainError):
            special_fn._chi2_rule(df)


class TestTTailRule:
    """The t tail rule reproduces the conditional law of T given T > a."""

    @pytest.mark.parametrize("a", [-1e5, -300.0, -30.0, -2.0, 0.0, 3.0, 40.0, 1e3])
    @pytest.mark.parametrize("df", [5, 11, 1e3])
    def test_conditional_moments(self, df, a):
        # in the products with P(T > a) below, a tail that underflows to 0
        # is checked as 0 = 0
        d, q = special_fn._t_tail_rule(df, a)
        assert np.all(d > 0) and np.all(q > 0) and q.sum() == pytest.approx(1.0, abs=1e-15)
        tail, t = sp.stdtr(df, -a), a + d
        # E[T; T > a] = (df + a^2) / (df - 1) f_t(a); a + d cancels at |a| >> 1
        mean = (df + a * a) / (df - 1) * float(special_fn._t_pdf(df, a))
        assert q @ t * tail == pytest.approx(mean, rel=1e-12, abs=1e-14 * abs(a))
        # (1 + T^2 / df)^-1 f_t(T) is a rescaled t_{df + 2} density
        scale = math.sqrt((df + 2) / df)
        moment = (float(special_fn._t_pdf(df, 0.0) / special_fn._t_pdf(df + 2, 0.0)) / scale
                  * sp.stdtr(df + 2, -a * scale))
        assert q @ (1.0 / (1.0 + t * t / df)) * tail == pytest.approx(moment, rel=1e-12)

    @pytest.mark.parametrize("df,a", [(5, math.nan), (5, math.inf), (0.0, 1.0)])
    def test_domain(self, df, a):
        with pytest.raises(DomainError):
            special_fn._t_tail_rule(df, a)


class TestBesselK:
    def test_half_integer_closed_form(self):
        x = 3.0
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert abs(bessel_k(0.5, x) - exact) / exact < 1e-10

    def test_order_symmetry(self):
        assert bessel_k(2.3, 1.1) == bessel_k(-2.3, 1.1)

    def test_integral_representation_oracle(self):
        # K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt
        nu, x = 4.75, 0.9
        ref, _ = integrate.quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                                0.0, 50.0, limit=200)
        assert abs(bessel_k(nu, x) - ref) / ref < 1e-8

    def test_overflow_signal(self):
        with pytest.raises(OverflowSignal):
            bessel_k(200.0, 1e-6)
        assert np.isfinite(log_bessel_k(200.0, 1e-6))

    def test_log_variant_extremes(self):
        for nu, x in [(5000.0, 316.0), (35.0, 1e-9), (2.0, 1e-200)]:
            got = log_bessel_k(nu, x)
            with mpmath.workdps(40):
                ref = float(mpmath.log(mpmath.besselk(nu, mpmath.mpf(x))))
            assert abs(got - ref) < 1e-8 * abs(ref)

    @pytest.mark.parametrize("nu,x", [(5.0, math.nan), (5.0, math.inf), (math.nan, 1.0),
                                      (-math.inf, 1.0)])
    def test_non_finite_arguments(self, nu, x):
        with pytest.raises(NonFinite):
            log_bessel_k(nu, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, -2.0)


class TestDistributions:
    def test_chi2_median_identity(self):
        assert abs(dist_cdf(chi2(2), 2 * math.log(2)) - 0.5) < 1e-12

    def test_t_symmetry(self):
        for df in (1, 4, 10, 55):
            assert abs(dist_cdf(student_t(df), 0.0) - 0.5) < 1e-12

    def test_f_cdf_against_mc(self):
        rng = np.random.default_rng(11)
        draws = rng.f(3, 10, 10_000_000)
        x = 1.7
        phat = np.mean(draws <= x)
        se = math.sqrt(phat * (1 - phat) / draws.size)
        assert abs(dist_cdf(f_law(3, 10), x) - phat) < 3 * se

    def test_quantile_roundtrip(self):
        laws = [chi2(5), student_t(10), f_law(3, 10), beta_law(2, 3)]
        for law in laws:
            for x in np.linspace(0.2, 4.0, 12):
                q = dist_cdf(law, x)
                if 1e-12 < q < 1 - 1e-12:
                    assert abs(dist_quantile(law, q) - x) < 1e-8 * max(1.0, x)

    def test_t_quantile_against_root_find(self):
        law = student_t(10)
        ref = optimize.brentq(lambda x: dist_cdf(law, x) - 0.975, 0.0, 50.0, xtol=1e-12)
        assert abs(dist_quantile(law, 0.975) - ref) < 1e-8

    def test_reused_law_matches_fresh_scipy_law(self):
        from scipy import stats

        # labels print integral parameters exactly, others as :g
        assert str(student_t(10)) == str(student_t(10.0)) == "t(10)"
        assert str(student_t(1_234_567)) == "t(1234567)"
        assert str(f_law(3, 9)) == "f(3, 9)" and str(beta_law(2.5, 3)) == "beta(2.5, 3)"
        for _ in range(2):
            assert dist_quantile(student_t(10), 0.975) == float(stats.t(10.0).ppf(0.975))
            assert dist_cdf(f_law(3, 10), 1.7) == stats.f(3.0, 10.0).cdf(1.7)

    # the laws the package refers pivots to at n = 10^4, p = 11, k = 21:
    # t(k-p), t(k-p+1), F(p, k-p), F(p, n-p), chi2(p), chi2(k); t at its
    # extreme df; beta at two shapes
    LAWS = [student_t(10), student_t(11), student_t(1), student_t(1e6), f_law(11, 10),
            f_law(11, 9989), chi2(11), chi2(21), beta_law(2.5, 3), beta_law(0.5, 2)]

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_equal_scipy_stats_bit_for_bit(self, law):
        from scipy import stats

        frozen = getattr(stats, law.name)(*law.params)
        x = np.concatenate([np.linspace(-50.0, 50.0, 801), np.linspace(-0.5, 1.5, 201),
                            [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e300]])
        got, ref = dist_cdf(law, x), frozen.cdf(x)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        for xi in x[::40]:
            g, r = dist_cdf(law, float(xi)), frozen.cdf(float(xi))
            assert type(g) is type(r) and (g == r or (math.isnan(g) and math.isnan(r)))
        # scipy.stats inverts beta by its own routine, which departs from
        # betaincinv in the far tails only (see test_beta_quantile_tail)
        q = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        if law.name != "beta":
            q = np.concatenate([q, [1e-300, 1e-12, 0.001, 0.025, 0.975, 0.999, 1.0 - 1e-16]])
        assert np.array_equal([dist_quantile(law, qi) for qi in q], frozen.ppf(q), equal_nan=True)

    def test_beta_quantile_tail(self):
        # Beta(1/2, 2) has CDF (3 x^{1/2} - x^{3/2}) / 2, so the 1e-10 quantile
        # is 4.44e-21; scipy.stats' beta quantile reads 2.5e-25 there
        x = dist_quantile(beta_law(0.5, 2), 1e-10)
        assert abs((3.0 * math.sqrt(x) - x ** 1.5) / 2.0 / 1e-10 - 1.0) < 1e-12

    def test_symmetric_beta_median(self):
        for a in (0.5, 1.0, 3.7):
            assert abs(dist_quantile(beta_law(a, a), 0.5) - 0.5) < 1e-10

    def test_cdf_monotone_into_unit_interval(self):
        grid = np.linspace(-50.0, 50.0, 1000)
        for law in [chi2(3), student_t(7), f_law(4, 9), beta_law(2, 5)]:
            vals = np.array([dist_cdf(law, x) for x in grid])
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            chi2(-1.0)
        with pytest.raises(DomainError):
            dist_quantile(chi2(2), 1.5)
        with pytest.raises(DomainError):
            dist_cdf(Law("nope", ()), 1.0)

    @pytest.mark.parametrize("make", [lambda: chi2(0), lambda: student_t(-2), lambda: f_law(3, 0),
                                      lambda: f_law(-1, 3), lambda: beta_law(0, 2),
                                      lambda: beta_law(2, -0.5), lambda: Law("t", (0.0,)),
                                      # a NaN passed: dist_cdf(student_t(nan), 0.5) was NaN
                                      lambda: student_t(math.nan), lambda: chi2(math.inf),
                                      lambda: f_law(3, math.nan), lambda: beta_law(math.inf, 2)])
    def test_nonpositive_parameter_rejected(self, make):
        with pytest.raises(DomainError, match="requires positive parameters"):
            make()
