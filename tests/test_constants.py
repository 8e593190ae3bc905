import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultraflow.constants import (
    GAMMA_TIE_TOL,
    FlowSpec,
    Params,
    ab_coefficients,
    beta_roots,
    classify_region,
    counterexample_coefficient,
    counterexample_roots,
    delta_of,
    gamma_discriminant,
    gamma_of_beta,
    gamma_one,
    kappa_from_beta,
    m_from_beta,
    region_rows_to_csv,
    region_sweep,
    two_sharp,
    two_star,
)
from ultraflow.errors import DomainError

from conftest import unchecked_params


class TestParams:
    def test_valid(self):
        Params(5.0, 2.0)
        Params(1.0, 50.0)  # no upper bound below d = 2
        Params(3.0, 6.0)  # exactly critical

    def test_invalid(self):
        with pytest.raises(DomainError):
            Params(0.9, 2.0)
        with pytest.raises(DomainError):
            Params(3.0, 0.5)
        with pytest.raises(DomainError):
            Params(5.0, 3.4)  # above 10/3


class TestCriticalExponents:
    def test_d5(self):
        params = Params(5.0, 2.0)
        ts, sharp = params.two_star, params.two_sharp
        assert ts == pytest.approx(10.0 / 3.0, abs=0)
        assert sharp == 51.0 / 16.0 == 3.1875

    def test_d3(self):
        params = Params(3.0, 2.0)
        ts, sharp = params.two_star, params.two_sharp
        assert ts == 6.0 and sharp == 4.75

    def test_d2_sentinel(self):
        params = Params(2.0, 7.0)
        ts, sharp = params.two_star, params.two_sharp
        assert math.isinf(ts) and sharp == 9.0

    def test_d1_sentinel(self):
        params = Params(1.0, 7.0)
        ts, sharp = params.two_star, params.two_sharp
        assert math.isinf(ts) and math.isinf(sharp)


def mp_beta_roots(d: float, p: float) -> tuple[float, float]:
    """(b - sqrt(b^2 - a))/a and (b + sqrt(b^2 - a))/a in 50 digits."""
    with mpmath.workdps(50):
        d, p = mpmath.mpf(d), mpmath.mpf(p)
        a = ((d - 1) ** 2 * p * p - 3 * (d * d + 2) * p + 3 * (d * d + 2 * d + 3)) / (d + 2) ** 2
        b = (d + 3 - p) / (d + 2)
        root = mpmath.sqrt(b * b - a)
        return float((b - root) / a), float((b + root) / a)


class TestBetaRoots:
    @pytest.mark.parametrize("d", range(4, 11))
    def test_critical_double_root(self, d):
        r = beta_roots(Params(float(d), two_star(float(d))))
        expected = (d - 2.0) / (d - 3.0)
        assert abs(r.minus - expected) < 1e-13
        assert abs(r.plus - expected) < 1e-13

    def test_degenerate_denominator(self):
        # delta(3, 4) = 0: linear equation, escaping root flagged infinite
        r = beta_roots(Params(4.0, 3.0))
        assert r.delta == 0.0
        assert r.minus == pytest.approx(0.75, abs=1e-14)
        assert math.isinf(r.plus)

    @pytest.mark.parametrize(
        "d,p",
        [(5.0, 3.0), (3.0, 4.0), (8.0, 2.2), (6.0, 2.0), (2.0, 5.0), (1.0, 1.7), (2.5, 3.0)],
    )
    def test_roots_annihilate_gamma(self, d, p):
        params = Params(d, p)
        r = beta_roots(params)
        a, b = ab_coefficients(params)
        scale = max(1.0, abs(a) * r.minus**2 + 2 * abs(b) * abs(r.minus) + 1.0)
        assert abs(gamma_of_beta(params, r.minus)) < 1e-12 * scale
        if math.isfinite(r.plus):
            scale = max(1.0, abs(a) * r.plus**2 + 2 * abs(b) * abs(r.plus) + 1.0)
            assert abs(gamma_of_beta(params, r.plus)) < 1e-12 * scale

    def test_negative_radicand(self):
        # above the critical exponent the radicand goes negative; bypass the
        # Params guard to exercise the root-level error
        with pytest.raises(DomainError):
            beta_roots(unchecked_params(5.0, 3.5))

    @pytest.mark.parametrize("d,p", [(3.0, 2.25 + 1e-8), (3.0, 2.25 - 1e-7), (1.0, 2.0 + 1e-7)])
    def test_finite_root_near_degenerate_denominator(self, d, p):
        # delta(3, 2.25) = delta(1, 2) = 0; both roots used to subtract nearly
        # equal numbers for the finite one (2.2e-9 relative at the first point)
        assert beta_roots(Params(d, p)).minus == pytest.approx(mp_beta_roots(d, p)[0],
                                                               rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [2.98995, 3.01])
    def test_escaping_root_near_a_double_zero_of_delta(self, p):
        # delta(4, p) = 9 (p - 3)^2: its expansion cancelled to 3.8e-12 and
        # 1.4e-11 relative at these points, and the root q/a with it; the
        # factored delta keeps both to an ulp
        r = beta_roots(Params(4.0, p))
        assert r.plus == pytest.approx(mp_beta_roots(4.0, p)[1], rel=1e-15, abs=0.0)
        assert r.delta == pytest.approx(9.0 * (p - 3.0) ** 2, rel=1e-15, abs=0.0)

    def test_roots_against_50_digits(self):
        # 45 x 60 grid, p at least 1e-3 below 2*.  A root beyond 1e4 sits near
        # delta = 0, where the rounding of a itself sets its size
        count = 0
        for d in np.linspace(1.0, 12.0, 45).tolist():
            hi = two_star(d) - 1e-3 if d > 2.0 else 20.0
            for p in np.linspace(1.0, hi, 60).tolist():
                r = beta_roots(Params(d, p))
                for got, exact in zip((r.minus, r.plus), mp_beta_roots(d, p)):
                    if abs(exact) <= 1e4:
                        assert got == pytest.approx(exact, rel=1e-12, abs=0.0), (d, p)
                        count += 1
        assert count > 5000

    def test_delta_matches_quadratic_coefficient(self):
        for d, p in [(5.0, 3.0), (3.0, 2.2), (7.0, 2.6)]:
            params = Params(d, p)
            a, _ = ab_coefficients(params)
            assert delta_of(params) == pytest.approx(a * (d + 2.0) ** 2, rel=1e-13)


class TestGamma:
    @pytest.mark.parametrize("d,p", [(5.0, 3.0), (3.0, 4.2), (2.0, 6.0), (1.5, 2.2), (7.0, 2.01)])
    def test_gamma_at_one_is_gamma_one(self, d, p):
        params = Params(d, p)
        assert abs(gamma_of_beta(params, 1.0) - gamma_one(params)) <= 1e-13

    def test_gamma_at_one_on_grid(self):
        # 50-point (d, p) grid
        count = 0
        for d in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0):
            hi = min(two_star(d), 10.0)
            for p in np.linspace(1.0, hi, 5):
                params = Params(d, float(p))
                assert abs(gamma_of_beta(params, 1.0) - gamma_one(params)) <= 1e-13
                count += 1
        assert count == 50

    def test_gamma_one_values(self):
        assert gamma_one(Params(1.0, 4.0)) == pytest.approx(1.0, abs=1e-15)
        assert gamma_one(Params(5.0, two_sharp(5.0))) == pytest.approx(0.0, abs=1e-15)
        assert gamma_one(Params(5.0, 3.0)) == pytest.approx(6.0 / 49.0, abs=1e-15)

    def test_gamma_one_closed_forms(self):
        # single expansion agrees with both published branches
        for d, p in [(4.0, 2.5), (9.0, 2.1), (2.0, 8.0)]:
            params = Params(d, p)
            branch = ((d - 1.0) / (d + 2.0)) ** 2 * (p - 1.0) * (two_sharp(d) - p)
            assert gamma_one(params) == pytest.approx(branch, rel=1e-13)
        assert gamma_one(Params(1.0, 3.7)) == pytest.approx((3.7 - 1.0) / 3.0, rel=1e-14)

    @pytest.mark.parametrize("d,p", [(5.0, 3.0), (3.0, 4.2), (2.0, 6.0), (1.0, 1.5), (4.0, 3.3), (10.0, 2.05)])
    def test_discriminant_identity(self, d, p):
        params = Params(d, p)
        expected = 4.0 * d / (d + 2.0) ** 2 * (p - 1.0) * (2.0 * d - p * (d - 2.0))
        assert gamma_discriminant(params) == pytest.approx(expected, abs=1e-13, rel=1e-13)

    def test_discriminant_vanishes_at_p1(self):
        for d in [3.0, 6.0, 9.0]:
            assert abs(gamma_discriminant(Params(d, 1.0))) < 1e-14


class TestCounterexampleCoefficient:
    def test_zero_at_two_sharp_beta_one(self):
        for d in [3.0, 5.0, 8.0]:
            params = Params(d, two_sharp(d))
            assert abs(counterexample_coefficient(params, 1.0)) < 1e-12
            bm, bp = counterexample_roots(params)
            assert bm == pytest.approx(1.0, abs=1e-12)
            assert bp == pytest.approx(1.0, abs=1e-12)

    def test_positive_inside_window(self):
        params = Params(5.0, 3.25)
        r = beta_roots(params)
        assert counterexample_coefficient(params, r.minus) > 0.0

    @pytest.mark.parametrize("d,p", [(5.0, 3.25), (3.0, 5.0), (4.0, 3.8)])
    def test_roots_annihilate(self, d, p):
        params = Params(d, p)
        bm, bp = counterexample_roots(params)
        assert abs(counterexample_coefficient(params, bm)) < 1e-10
        assert abs(counterexample_coefficient(params, bp)) < 1e-10

    @pytest.mark.parametrize("d", [3.0, 4.0, 5.0, 8.0])
    def test_sign_certificate_and_root_ordering(self, d):
        lo, hi = two_sharp(d), two_star(d)
        for i in range(100):
            p = lo + (hi - lo) * (i + 0.5) / 100
            params = Params(d, p)
            r = beta_roots(params)
            assert counterexample_coefficient(params, r.minus) > 0.0
            bm, bp = counterexample_roots(params)
            assert 1.0 / bm < 1.0 / r.minus < 1.0 / bp

    def test_requires_d_ge_3(self):
        with pytest.raises(DomainError):
            counterexample_coefficient(Params(2.0, 3.0), 1.0)

    def test_complex_roots_below_sharp(self):
        with pytest.raises(DomainError):
            counterexample_roots(Params(5.0, 3.0))


class TestFlowSpec:
    def test_heat(self):
        spec = FlowSpec.heat(Params(5.0, 3.0))
        assert (spec.beta, spec.m, kappa_from_beta(spec.params, spec.beta)) == (1.0, 1.0, 2.0)

    def test_nonlinear_consistency(self):
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        spec = FlowSpec(params, beta)
        assert spec.m == pytest.approx(1.0 + (2.0 / 3.3) * (1.0 / beta - 1.0), abs=1e-16)
        assert kappa_from_beta(spec.params, spec.beta) == pytest.approx(beta * 1.3 + 1.0, abs=1e-15)

    def test_critical_m(self):
        # at the critical exponent the double root gives m = 1 - 1/d
        for d in [4.0, 6.0, 9.0]:
            params = Params(d, two_star(d))
            beta = beta_roots(params).minus
            assert m_from_beta(params, beta) == pytest.approx(1.0 - 1.0 / d, abs=1e-14)

    def test_beta_infinite_case(self):
        spec = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
        assert spec.beta_is_infinite
        assert spec.m == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_near_critical_m_is_infinite_beta(self):
        # 2/3 to ten digits at p = 6 is 1 + p(m-1)/2 = 1e-10: the critical
        # member, not beta = 1e10; 1e-6 away, beta stays finite
        params = Params(3.0, 6.0)
        assert math.isinf(FlowSpec.nonlinear_from_m(params, 0.6666666667).beta)
        assert FlowSpec.nonlinear_from_m(params, 2.0 / 3.0 + 1e-6).beta == pytest.approx(
            1.0 / 3e-6, rel=1e-9
        )

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            FlowSpec(Params(5.0, 3.0), 0.0)

    def test_kappa_conventions(self):
        params = Params(5.0, 3.0)
        assert kappa_from_beta(params, 2.0) == 3.0
        assert math.isinf(kappa_from_beta(params, math.inf))


class TestClassifyRegion:
    def test_heat_admissible_below_sharp(self):
        assert classify_region(Params(5.0, 3.0), 1.0).admissible
        assert not classify_region(Params(5.0, 3.3), 1.0).admissible

    def test_boundary_ties_admissible(self):
        # double root at the critical exponent and the p = 1 corner
        assert classify_region(Params(5.0, two_star(5.0)), 1.5).admissible
        assert classify_region(Params(5.0, 1.0), 1.0).admissible

    def test_degenerate_delta_uses_left_limit(self):
        pt = classify_region(Params(4.0, 3.0), 0.75)
        assert pt.admissible
        assert not classify_region(Params(4.0, 3.0), 0.2).admissible

    def test_matches_gamma_sign(self, rng):
        # classify_region is the sign test on gamma; check it against the
        # roots instead: beta in [beta_-, beta_+] when delta > 0, outside
        # (beta_+, beta_-) when delta < 0, and the closed half-line from the
        # finite root when delta = 0
        def in_root_set(params, beta):
            r = beta_roots(params)
            lo, hi = sorted((r.minus, r.plus))
            if r.delta >= 0.0:
                return lo - GAMMA_TIE_TOL <= beta <= hi + GAMMA_TIE_TOL
            return not lo + GAMMA_TIE_TOL < beta < hi - GAMMA_TIE_TOL

        cases = []
        for _ in range(500):
            d = float(rng.uniform(1.0, 10.0))
            hi = min(two_star(d), 12.0)
            cases.append((d, float(rng.uniform(1.0, hi)), float(rng.uniform(-3.0, 5.0))))
        # exponents where delta = 0, including one with b < 0, plus the root
        for d, p in [(1.0, 2.0), (3.0, 2.25), (4.0, 3.0), (2.0, 9.0 + math.sqrt(48.0))]:
            root = beta_roots(Params(d, p)).minus
            cases += [(d, p, float(beta)) for beta in rng.uniform(-3.0, 5.0, 50)]
            cases.append((d, p, root))
        # probes just inside and outside every finite root
        for d, p, _ in list(cases):
            r = beta_roots(Params(d, p))
            for root in (r.minus, r.plus):
                if math.isfinite(root):
                    step = 1e-6 * max(1.0, abs(root))
                    cases += [(d, p, root - step), (d, p, root + step)]
        for d, p, beta in cases:
            params = Params(d, p)
            expected = in_root_set(params, beta)
            assert classify_region(params, beta).admissible == expected, (d, p, beta)

    def test_m_field(self):
        pt = classify_region(Params(5.0, 3.0), 2.0)
        assert pt.m == pytest.approx(m_from_beta(Params(5.0, 3.0), 2.0))
        assert math.isinf(classify_region(Params(5.0, 3.0), 0.0).m)

    def test_scalar_call_gives_python_scalars(self):
        # the constants command emits these fields as they come
        for d in (2.0, 5.0):
            pt = classify_region(Params(d, 3.0), 1.2)
            assert type(pt.admissible) is bool and type(pt.A_positive) is bool
            assert type(pt.gamma) is float and type(pt.A) is float and type(pt.m) is float

    def test_array_m_at_zero_and_infinite_beta(self):
        params = Params(5.0, 3.0)
        betas = np.array([0.0, -0.0, math.inf, -math.inf, 2.0, -0.5])
        m = m_from_beta(params, betas)
        assert m.tolist() == [m_from_beta(params, float(b)) for b in betas]
        assert math.isinf(m[0]) and m[0] > 0.0 and m[1] == m[0]
        assert m[2] == 1.0 - 2.0 / 3.0


def delta_zeros(d: float) -> list[float]:
    """The real zeros in p of delta = (d-1)^2 p^2 - 3(d^2+2) p + 3(d^2+2d+3),
    where the root equation turns linear: two for 1 < d <= 4, one at d = 1."""
    lead, half, const = (d - 1.0) ** 2, 1.5 * (d * d + 2.0), 3.0 * (d * d + 2.0 * d + 3.0)
    if lead == 0.0:
        return [const / (2.0 * half)]
    disc = half * half - lead * const
    return [] if disc < 0.0 else [(half - s * math.sqrt(disc)) / lead for s in (1.0, -1.0)]


def scalar_roots(params):
    """(minus, plus) of the scalar call, NaN where it raises."""
    try:
        r = beta_roots(params)
    except DomainError:
        return math.nan, math.nan
    return r.minus, r.plus


class TestArraysOfP:
    """An ndarray of p runs the closed forms elementwise: every root and
    every cell is bitwise the scalar call (compared through repr, which
    tells -0.0 from 0.0), with NaN roots where the scalar call raises."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.floats(1.0, 2.0) | st.floats(2.0, 4.0) | st.floats(4.0, 12.0)
           | st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 5.0]),
           st.lists(st.floats(0.0, 1.0), max_size=8), st.floats(1.0, 1.0 + 1e-6),
           st.lists(st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300,
                                                            5e-324]),
                    min_size=1, max_size=6))
    @example(3.0, [], 1.0, [1.0])  # 2* = 6 = d + 3: gamma is the constant -1
    @example(4.0, [0.5], 1.0 + 1e-7, [0.75])  # delta = 9 (p - 3)^2: a double zero
    @example(2.0, [0.3], 1.0, [0.0, 1e300])  # 2* infinite; b < 0 at p = 9 + sqrt(48)
    def test_roots_and_grid_are_the_scalar_calls(self, d, fractions, near, betas):
        # p = 1, p = 2* (or 20 where 2* is infinite), draws between, the zeros
        # of delta and their neighbours (the linear branch), p = d + 3 (b = 0)
        ts = two_star(d)
        hi = ts if math.isfinite(ts) else 20.0
        ps = [1.0, near, hi] + [1.0 + (hi - 1.0) * f for f in fractions]
        for p in delta_zeros(d) + [d + 3.0]:
            ps += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf), p * near]
        ps = [p for p in ps if 1.0 <= p <= hi]
        params = Params(d, np.array(ps))
        r = beta_roots(params)
        assert type(r.minus) is type(r.plus) is np.ndarray
        for i, p in enumerate(ps):
            scalar = scalar_roots(Params(d, p))
            assert (repr(r.minus[i].item()), repr(r.plus[i].item())) == tuple(map(repr, scalar))
            if not math.isnan(scalar[0]):
                assert repr(r.delta[i].item()) == repr(beta_roots(Params(d, p)).delta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            grid = classify_region(Params(d, np.array(ps)[:, None]), np.array(betas))
        for i, p in enumerate(ps):
            for j, beta in enumerate(betas):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    scalar = classify_region(Params(d, p), beta)
                for name in ("m", "gamma", "A"):
                    assert repr(getattr(grid, name)[i, j].item()) == repr(getattr(scalar, name))
                assert grid.admissible[i, j] == scalar.admissible
                assert grid.A_positive[i, j] == scalar.A_positive

    @pytest.mark.parametrize("d", [3.0, 5.0, 8.0])
    def test_nan_beyond_the_critical_exponent(self, d):
        # above 2* the discriminant is negative: the scalar call raises, the
        # array gives NaN roots there and the scalar roots elsewhere
        ps = np.linspace(1.0, two_star(d) + 0.5, 9)
        r = beta_roots(unchecked_params(d, ps))
        for i, p in enumerate(ps.tolist()):
            expected = scalar_roots(unchecked_params(d, p))
            assert (repr(r.minus[i].item()), repr(r.plus[i].item())) == tuple(map(repr, expected))
        assert np.isnan(r.minus[-1]) and not np.isnan(r.minus[0])

    @pytest.mark.parametrize("bad, message", [
        (0.5, "exponent must be finite and >= 1, got 0.5"),
        (math.nan, "exponent must be finite and >= 1, got nan"),
        (3.5, "p=3.5 exceeds the critical exponent 3.33333 for d=5.0"),
    ])
    def test_one_bad_exponent_is_named(self, bad, message):
        ps = np.linspace(1.0, 3.0, 7)
        ps[4] = bad
        with pytest.raises(DomainError) as err:
            Params(5.0, ps)
        assert str(err.value) == message
        ps[5] = 0.25  # the first bad one is named
        with pytest.raises(DomainError) as err:
            Params(5.0, ps)
        assert str(err.value) == message

    def test_overflowing_exponent_is_named(self):
        with pytest.raises(DomainError, match=r"^p=1e\+80 exceeds 1e\+75"):
            beta_roots(Params(2.0, np.array([1.0, 1e80, 3.0])))


def _csv_line(p, beta, pt):
    """The region.csv line of one scalar classification."""
    return (f"{p!r},{beta!r},{pt.m!r},{pt.gamma!r},{int(pt.admissible)},{pt.A!r},"
            f"{int(pt.A_positive)}")


class TestRegionSweep:
    def test_shape_and_csv(self, tmp_path):
        region, summary = region_sweep(5.0, (1.0, two_star(5.0)), (0.0, 4.0), 41)
        assert region.p.shape == region.beta.shape == (41,)
        for name in ("admissible", "gamma", "A", "A_positive", "m"):
            assert getattr(region.point, name).shape == (41, 41), name
        assert summary["n_admissible"] > 0
        path = tmp_path / "region.csv"
        region_rows_to_csv(region, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,beta,m,gamma,admissible,A,A_positive"
        assert len(lines) == 1 + 41 * 41

    @pytest.mark.parametrize("d", [1.0, 2.0, 2.5, 3.0, 5.0])
    def test_rows_equal_scalar_classification(self, d, tmp_path):
        # one classify_region call per p row, stacked, gives bit for bit the
        # scalar call at every grid point, and so does every region.csv
        # line; beta = 0 (m = inf) is on the grid, and below d = 3 the
        # witness coefficient A is NaN
        p_hi = two_star(d) if math.isfinite(two_star(d)) else 9.0
        region, summary = region_sweep(d, (1.0, p_hi), (0.0, 4.0), 41)
        pt = region.point
        path = tmp_path / "region.csv"
        region_rows_to_csv(region, path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 41 * 41
        n_admissible = 0
        for i, p in enumerate(region.p.tolist()):
            for j, beta in enumerate(region.beta.tolist()):
                scalar = classify_region(Params(d, p), beta)
                for name in ("m", "gamma", "A"):
                    assert repr(getattr(pt, name)[i, j].item()) == repr(getattr(scalar, name))
                assert pt.admissible[i, j] == scalar.admissible
                assert pt.A_positive[i, j] == scalar.A_positive
                assert lines[41 * i + j] == _csv_line(p, beta, scalar)
                n_admissible += scalar.admissible
        assert summary["n_admissible"] == n_admissible
        assert math.isinf(pt.m[0, 0])
        assert math.isnan(pt.A[0, 0]) == (d < 3.0)

    def test_one_admissible_band_per_row(self):
        # the d = 5 denominator never vanishes, so every p row of the
        # 201 x 201 figure sweep changes admissibility at most twice
        region, _ = region_sweep(5.0, (1.0, two_star(5.0)), (0.0, 4.0), 201)
        assert np.all(np.diff(region.beta) > 0.0)
        for flags in region.point.admissible:
            assert np.count_nonzero(flags[1:] != flags[:-1]) <= 2

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            region_sweep(5.0, (1.0, 3.0), (0.0, 4.0), 0)

    def test_d1_metadata_note(self):
        _, summary = region_sweep(1.0, (1.0, 4.0), (0.0, 2.0), 5)
        assert summary["notes"]

    def test_bad_range(self):
        with pytest.raises(DomainError):
            region_sweep(5.0, (0.2, 3.0), (0.0, 4.0), 5)
