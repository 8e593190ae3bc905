"""Exact proofs of the identities between closed forms, on the code's own
functions.

Each function runs on sympy symbols d = 3 + e and p = 1 + q (e, q > 0), so
that the code's own comparisons (d < 3, d <= 2) decide; its float
constants become rationals (nsimplify) and the difference of the two sides
must cancel to 0.  Params is built without its checks, and the float guard
_closed_form_args is bypassed: neither can compare a symbol with a float
bound.  So is improved_constant's range check p < 2#, whose two sides are
both symbolic.
"""

from types import SimpleNamespace

import pytest
import sympy

from ultraflow import constants, improvements
from ultraflow.constants import (
    _factored_delta,
    ab_coefficients,
    counterexample_coefficient,
    delta_of,
    gamma_discriminant,
    gamma_of_beta,
    gamma_one,
    two_sharp,
    two_sharp_gap,
)
from ultraflow.functionals import _bracket
from ultraflow.improvements import antipodal_constants, improved_constant

from conftest import unchecked_params

E, Q = sympy.symbols("e q", positive=True)
BETA = sympy.Symbol("beta", real=True)
D, P = 3 + E, 1 + Q


@pytest.fixture(autouse=True)
def symbolic_closed_forms(monkeypatch):
    monkeypatch.setattr(constants, "_closed_form_args", lambda params: (params.d, params.p))


def assert_identity(lhs, rhs):
    difference = sympy.cancel(sympy.nsimplify(sympy.sympify(lhs - rhs), rational=True))
    assert difference == 0, sympy.factor(difference)


def test_bracket_remainder_is_gamma():
    # the expanded bracket is J_ff - 2 c J_fc + (c^2 + gamma(beta)) J_cc
    one, minus_two_c, j_cc = (_bracket(unit, D, P, BETA)
                              for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    c = -minus_two_c / 2
    assert_identity(one, 1)
    assert_identity(j_cc - c**2, gamma_of_beta(unchecked_params(D, P), BETA))


def test_delta_is_the_scaled_leading_coefficient():
    params = unchecked_params(D, P)
    a, _ = ab_coefficients(params)
    assert_identity(delta_of(params), a * (D + 2) ** 2)
    assert_identity(delta_of(params), D**2 * (P**2 - 3 * P + 3) - 2 * D * (P**2 - 3) + (P - 3) ** 2)


def test_factored_delta_is_delta():
    # for d <= 4, delta = lead (p - p1)(p - p2) with lead = (d-1)^2, a
    # quadratic in p whose coefficients are Vieta's: lead p1 p2 is the
    # constant term with no root in it, and lead (p1 + p2) is the linear
    # one once the root r = sqrt(3d (4-d)) enters only as r^2
    d, p, r = 4 - E, sympy.Symbol("p", positive=True), sympy.Symbol("r", positive=True)
    factored = sympy.expand(sympy.nsimplify(_factored_delta(d, p, r), rational=True))
    expanded = sympy.expand(delta_of(unchecked_params(d, p)))
    assert_identity(factored.coeff(p, 2), expanded.coeff(p, 2))
    assert_identity(factored.coeff(p, 0), expanded.coeff(p, 0))
    linear = sympy.fraction(sympy.cancel(factored.coeff(p, 1) - expanded.coeff(p, 1)))[0]
    assert sympy.rem(sympy.expand(linear), r**2 - 3 * d * (4 - d), r) == 0


def test_gamma_one_is_gamma_at_one():
    params = unchecked_params(D, P)
    assert_identity(gamma_one(params), gamma_of_beta(params, 1))


@pytest.mark.parametrize("d", [D, 2 - E], ids=["two_star_finite", "two_star_infinite"])
def test_discriminant(d):
    params = unchecked_params(d, P)
    a, b = ab_coefficients(params)
    assert_identity(gamma_discriminant(params), 4 * (b**2 - a))
    assert_identity(gamma_discriminant(params),
                    4 * d / (d + 2) ** 2 * (P - 1) * (2 * d - P * (d - 2)))


def test_counterexample_lead():
    # 1 + lead = s^2 with s = ((d-1)/(d+2)) sqrt((p-1)(p-2#)), so that the
    # roots of A = -1 + 2 beta + lead beta^2 are B_-+ = 1/(1 -+ s)
    a_of_beta = sympy.expand(counterexample_coefficient(unchecked_params(D, P), BETA))
    assert_identity(a_of_beta.coeff(BETA, 1), 2)
    assert_identity(a_of_beta.coeff(BETA, 0), -1)
    lead = a_of_beta.coeff(BETA, 2)
    assert_identity(1 + lead, ((D - 1) / (D + 2)) ** 2 * (P - 1) * (P - two_sharp(D)))


def test_two_sharp_gap():
    assert_identity(two_sharp_gap(D, P), (D - 1) ** 2 * (two_sharp(D) - P))


def test_improved_constant_at_the_even_bound_is_the_antipodal_one(monkeypatch):
    # lambda* = 2(d+1) turns the transfer d + gap (lambda* - d)/(d (d+2))
    # into the antipodal heat-flow constant (d^2 + gap)/d, on 2 < p < 2#
    assert improved_constant(4.0, 3.0, 10.0) == antipodal_constants(4.0, 3.0)["prop_raw"] == 5.5
    monkeypatch.setattr(improvements, "two_sharp", lambda d: sympy.oo)
    p = 2 + Q
    assert_identity(improved_constant(D, p, 2 * (D + 1)), (D * D + two_sharp_gap(D, p)) / D)


def test_logsob_crossing(monkeypatch):
    # b* is where e(b, c1) and e(b, c2) cross, with c1 = b/2 - 1,
    # c2 = 2 sqrt(b^2 + b/(d+1)) - 2b and e(b, c) = (d b + 2(d+1) c)/(b + c),
    # a Moebius map of c: they cross where c1 = c2, that is where
    # ((c1 + 2b)/2)^2 = b^2 + b/(d+1) and c1 + 2b > 0.  The function refuses
    # d < 2, so it runs at d = 2 + e, on sympy's sqrt
    monkeypatch.setattr(improvements, "math", SimpleNamespace(sqrt=sympy.sqrt))
    d = 2 + E
    rep = improvements.logsob_improvement(d)
    b = sympy.nsimplify(rep["b_star"], rational=True)
    c1 = b / 2 - 1
    assert_identity(((c1 + 2 * b) / 2) ** 2, b**2 + b / (d + 1))
    assert sympy.cancel(9 * (d + 1) * (c1 + 2 * b)).is_positive
    assert_identity(rep["crossing_value"], rep["Lambda_star_bound"])
