"""Source-term parsing, antiderivatives, and the structural sign conditions."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from grushinlab import (Power, check_blowup_hypothesis, check_f_positive,
                        check_global_hypothesis, eval_F, nonlinearity,
                        parse_expression)
from grushinlab.nonlinearity import (MAX_DEPTH, DomainError, Expression,
                                     ExpressionError, F_values,
                                     QuadratureError, f_values,
                                     sample_points)
from grushinlab.theorems import BLOWUP, THEOREMS

from oracles import F_values_reference


class TestParser:
    def test_cubic_at_two(self):
        assert (f_values(parse_expression("u^3"), np.asarray(2.0))
                == pytest.approx(8.0))

    def test_sum_of_powers_at_one(self):
        assert (f_values(parse_expression("2*u^3 + u^5"), np.asarray(1.0))
                == pytest.approx(3.0))

    def test_whitespace_is_ignored(self):
        assert (f_values(parse_expression("  u ^ 3  "), np.asarray(2.0))
                == pytest.approx(8.0))

    def test_caret_is_right_associative(self):
        # u^2^3 parses as u^(2^3) = u^8, not (u^2)^3 = u^6.
        assert (f_values(parse_expression("u^2^3"), np.asarray(2.0))
                == pytest.approx(256.0))

    def test_power_binds_tighter_than_product(self):
        assert (f_values(parse_expression("2*u^3"), np.asarray(2.0))
                == pytest.approx(16.0))

    def test_unary_minus(self):
        assert (f_values(parse_expression("-u"), np.asarray(3.0))
                == pytest.approx(-3.0))
        assert (f_values(parse_expression("u^3 - -u"), np.asarray(2.0))
                == pytest.approx(10.0))

    def test_parentheses_and_division(self):
        e = parse_expression("u/(1+u^2)")
        assert f_values(e, np.asarray(1.0)) == pytest.approx(0.5)
        assert f_values(e, np.asarray(3.0)) == pytest.approx(0.3)

    def test_scientific_notation_coefficient(self):
        assert (f_values(parse_expression("1e-2*u"), np.asarray(10.0))
                == pytest.approx(0.1))

    def test_double_caret_reports_offset(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("u^^2")
        assert exc.value.offset == 2

    def test_unbalanced_parenthesis_reports_end_offset(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("(u^3")
        assert exc.value.offset == 4

    def test_unexpected_character_reports_offset(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("u$3")
        assert exc.value.offset == 1

    def test_malformed_number_reports_offset(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("1.2.3*u")
        assert exc.value.offset == 0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("u^3 u")

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * (n - 1) + "u" + ")" * (n - 1),
        lambda n: "+".join(["u"] * n),
        lambda n: "^".join(["u"] + ["2"] * (n - 1)),
        lambda n: "-" * (n - 1) + "u",
    ], ids=["parens", "sum", "powers", "minus"])
    def test_nesting_limit_is_exact(self, nest):
        # n operands or n - 1 prefixes reach depth n.
        parse_expression(nest(MAX_DEPTH))
        with pytest.raises(ExpressionError, match="nests deeper than 64"):
            parse_expression(nest(MAX_DEPTH + 1))


class TestSourceTermValidation:
    def test_expression_must_vanish_at_zero(self):
        with pytest.raises(ValueError, match="vanish"):
            parse_expression("u + 1")

    def test_expression_singular_at_zero_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            parse_expression("1/u")

    def test_power_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            Power(p=1.0, c=1.0)
        with pytest.raises(ValueError):
            Power(p=0.5, c=1.0)

    def test_power_coefficient_must_be_positive(self):
        with pytest.raises(ValueError):
            Power(p=3.0, c=0.0)
        with pytest.raises(ValueError):
            Power(p=3.0, c=-2.0)


class TestEvaluation:
    def test_power_odd_extension(self):
        nl = Power(p=3.0, c=1.0)
        assert f_values(nl, np.asarray(-1.0)) == pytest.approx(-1.0)
        assert f_values(nl, np.asarray(2.0)) == pytest.approx(8.0)
        # Non-integer exponent stays real on negative inputs.
        frac = Power(p=1.5, c=2.0)
        assert f_values(frac, np.asarray(-4.0)) == pytest.approx(-16.0)

    def test_f_values_vectorized_shape(self):
        u = np.array([[0.0, 1.0], [2.0, -1.0]])
        out = f_values(Power(p=3.0, c=1.0), u)
        assert out.shape == u.shape
        assert np.allclose(out, [[0.0, 1.0], [8.0, -1.0]])

    def test_f_values_does_not_alias_input(self):
        u = np.array([1.0, 2.0])
        out = f_values(parse_expression("u"), u)
        out[0] = 99.0
        assert u[0] == 1.0

    def test_expression_non_finite_point_raises_domain_error(self):
        e = parse_expression("u/(u-1)")
        with pytest.raises(DomainError, match="1.0"):
            f_values(e, np.array([0.5, 1.0, 1.5]))


class TestAntiderivative:
    def test_power_closed_form(self):
        assert eval_F(Power(p=3.0, c=1.0), 2.0) == pytest.approx(4.0)
        assert eval_F(Power(p=3.0, c=1.0), 0.0) == 0.0

    def test_expression_cubic_matches_closed_form(self):
        assert eval_F(parse_expression("u^3"), 2.0) == pytest.approx(4.0, abs=1e-10)

    def test_expression_rational_matches_log(self):
        e = parse_expression("u/(1+u^2)")
        for u in (0.5, 1.0, 2.0, 7.0):
            assert eval_F(e, u) == pytest.approx(0.5 * math.log1p(u * u), abs=1e-9)

    def test_negative_argument_integrates_from_zero(self):
        # F(-2) = integral of u^3 from 0 to -2 = (-2)^4/4 = 4.
        e = parse_expression("u^3")
        assert eval_F(e, -2.0) == pytest.approx(4.0, abs=1e-9)
        vals = F_values(e, np.array([-2.0, 0.0, 2.0]))
        assert vals[0] == pytest.approx(vals[2], rel=1e-10)
        assert vals[1] == 0.0

    def test_batched_values_preserve_shape_and_ties(self):
        e = parse_expression("u^3")
        u = np.array([[1.0, 2.0], [2.0, 0.0]])
        out = F_values(e, u)
        assert out.shape == u.shape
        assert out[0, 1] == out[1, 0]
        assert out[1, 1] == 0.0

    def test_matches_F_values_exactly(self):
        e = parse_expression("u^3 + u^5")
        for u in (0.0, 1.5, -0.7, 3.0):
            assert eval_F(e, u) == F_values(e, np.array([u]))[0]

    def test_difference_quotient_recovers_f(self):
        # Central differences of F reproduce f to 1e-6 across a point sweep.
        e = parse_expression("u/(1+u^2) + u^3")
        h = 1e-4
        for u in np.linspace(0.1, 5.0, 50):
            dq = (eval_F(e, u + h) - eval_F(e, u - h)) / (2.0 * h)
            assert dq == pytest.approx(f_values(e, np.asarray(u)), abs=1e-6)

    def test_power_and_expression_agree(self):
        p = Power(p=3.0, c=2.0)
        e = parse_expression("2*u^3")
        u = np.linspace(0.0, 10.0, 41)
        fp, fe = f_values(p, u), f_values(e, u)
        Fp, Fe = F_values(p, u), F_values(e, u)
        assert np.allclose(fe, fp, rtol=1e-10, atol=1e-12)
        assert np.allclose(Fe, Fp, rtol=1e-10, atol=1e-12)

    def test_large_exponent_large_interval(self):
        e = parse_expression("u^5")
        u = 1.0e3
        assert eval_F(e, u) == pytest.approx(u**6 / 6.0, rel=1e-12)

    def test_pole_inside_interval_raises_quadrature_error(self):
        e = parse_expression("u/(u-1)")
        with pytest.raises(QuadratureError):
            F_values(e, np.array([2.0]))  # pole at the segment midpoint

    def test_more_than_a_million_nodes_is_not_a_worklist_overflow(self):
        # The 1e6-interval cap bounds the halving rounds, where it means the
        # integrand does not settle; the initial segments are as many as
        # the nodes.
        u = np.random.default_rng(0).random(1_000_001)
        F = F_values(parse_expression("u^3"), u)
        np.testing.assert_allclose(F, u ** 4 / 4.0, rtol=1e-12, atol=0.0)

    def test_pole_near_endpoint_exhausts_worklist(self):
        e = parse_expression("u/(u-1)")
        with pytest.raises(QuadratureError, match="settle"):
            F_values(e, np.array([1.9]))

    def test_huge_repeated_value_fails_as_the_oracle_does(self):
        # Two equal values of at least 8.99e307 bound a zero-width segment
        # whose midpoint a + b overflows; that overflow warns of nothing,
        # and the quadrature fails with the oracle's text.
        e = parse_expression("u/(1+u)")
        u = np.array([1e308, 1e308])
        with pytest.raises(QuadratureError) as want:
            F_values_reference(e, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError) as got:
                F_values(e, u)
        assert str(got.value) == str(want.value)

    def test_non_finite_integrand_names_expression_and_segment(self):
        e = parse_expression("u*(2-u)^0.5")  # non-finite past u = 2
        with pytest.raises(QuadratureError) as info:
            F_values(e, np.array([3.0]))
        assert "'u*(2-u)^0.5'" in str(info.value)
        assert "[0.0, 3.0]" in str(info.value)

    def test_peak_memory_stays_a_few_states(self):
        # One 127 x 127 state is 129 KB.  Rounds walked in blocks of 4,096
        # segments peak at about 8.4 states (6.4 with blocks of 2,048, 12.7
        # with 8,192); rounds built over the whole worklist at once peak at
        # about 26.  u^3 settles in the first round; (2-u)^0.5 is not smooth
        # at u = 2, so segments near it are halved for seven rounds, and the
        # first round still sets the peak.
        u = np.random.default_rng(0).uniform(0.0, 2.0, 16_129)
        for e in (parse_expression("u^3"), parse_expression("u*(2-u)^0.5")):
            F_values(e, u)
            tracemalloc.start()
            try:
                F_values(e, u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 8 * u.size


class TestSamplePoints:
    def test_structure(self):
        u = sample_points(10.0, samples=501)
        assert u[0] > 0.0
        assert u[-1] == pytest.approx(10.0)
        assert np.all(np.diff(u) > 0.0)
        assert u.size <= 501

    def test_covers_many_scales(self):
        u = sample_points(1.0, samples=1001)
        assert u[0] <= 1e-11
        assert np.sum(u < 1e-6) > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_points(0.0)
        with pytest.raises(ValueError):
            sample_points(-1.0)
        with pytest.raises(ValueError):
            sample_points(1.0, samples=1)


class TestBlowupHypothesis:
    def test_cubic_alpha_four_holds_with_quadratic_margin(self):
        # With f = u^3 and alpha = 4 the margin reduces to beta*u^2 + 4*theta.
        rep = check_blowup_hypothesis(Power(3.0, 1.0), alpha=4.0, beta=0.1,
                                      theta=0.01, u_max=10.0)
        assert rep.holds
        expected = 0.1 * rep.argmin_u**2 + 0.04
        assert rep.worst_margin == pytest.approx(expected, rel=1e-9)

    def test_cubic_alpha_five_fails_at_large_u(self):
        rep = check_blowup_hypothesis(Power(3.0, 1.0), alpha=5.0, beta=0.1,
                                      theta=0.01, u_max=10.0)
        assert not rep.holds
        assert rep.argmin_u == pytest.approx(10.0)
        assert rep.worst_margin < 0.0

    def test_cubic_alpha_three_holds_far_out(self):
        rep = check_blowup_hypothesis(Power(3.0, 1.0), alpha=3.0, beta=0.1,
                                      theta=0.01, u_max=100.0)
        assert rep.holds

    def test_report_fields(self):
        rep = check_blowup_hypothesis(Power(3.0, 1.0), alpha=4.0, beta=0.1,
                                      theta=0.01, u_max=2.0, samples=101)
        assert rep.u_range == (0.0, 2.0)
        assert rep.samples <= 101
        assert rep.constraint_violations == ()
        assert rep.scale_at_argmin >= 0.0

    def test_holds_is_monotone_in_beta(self):
        # Raising beta only adds to the margin, so the verdict can only
        # switch from failing to holding as beta grows.
        flags = [check_blowup_hypothesis(Power(3.0, 1.0), alpha=4.4, beta=b,
                                         theta=0.01, u_max=10.0).holds
                 for b in (1.0, 5.0, 9.0, 10.5, 12.0, 50.0)]
        for earlier, later in zip(flags, flags[1:]):
            assert later >= earlier
        assert not flags[0]
        assert flags[-1]


class TestGlobalHypothesis:
    def test_alpha_zero_fails(self):
        rep = check_global_hypothesis(Power(3.0, 1.0), alpha=0.0, beta=1.0,
                                      theta=0.0, u_max=1.0)
        assert not rep.holds
        assert rep.constraint_violations == ()

    def test_negative_alpha_holds_on_small_range(self):
        rep = check_global_hypothesis(Power(3.0, 1.0), alpha=-2.0, beta=2.0,
                                      theta=1.0, u_max=0.1)
        assert rep.holds
        assert rep.constraint_violations == ()

    def test_negative_alpha_fails_on_larger_range(self):
        rep = check_global_hypothesis(Power(3.0, 1.0), alpha=-2.0, beta=2.0,
                                      theta=1.0, u_max=1.0)
        assert not rep.holds

    def test_parameter_violations_are_reported_separately(self):
        rep = check_global_hypothesis(Power(3.0, 1.0), alpha=1.0, beta=0.0,
                                      theta=-1.0, u_max=0.1)
        joined = " ".join(rep.constraint_violations)
        assert "alpha" in joined
        assert "beta" in joined
        assert "theta" in joined

    def test_beta_floor_depends_on_alpha(self):
        ok = check_global_hypothesis(Power(3.0, 1.0), alpha=-2.0, beta=2.0,
                                     theta=1.0, u_max=0.1)
        low = check_global_hypothesis(Power(3.0, 1.0), alpha=-2.0, beta=1.9,
                                      theta=1.0, u_max=0.1)
        assert ok.constraint_violations == ()
        assert any("beta" in v for v in low.constraint_violations)


class TestParameterRanges:
    def test_free_mode_has_none(self):
        assert THEOREMS.get("free") is None

    def test_blowup_beta_range_is_half_open(self):
        # lambda1*(alpha-2)/2 = 2 here.
        assert [BLOWUP.ranges(4.0, beta, 0.01, 2.0)[1][1]
                for beta in (0.0, 1e-9, 2.0, 2.0 + 1e-9)] == [
                    False, True, True, False]


class TestPositivityScan:
    def test_positive_cubic(self):
        ok, offender = check_f_positive(Power(3.0, 1.0), u_max=10.0)
        assert ok
        assert offender is None

    def test_sign_changing_expression(self):
        ok, offender = check_f_positive(parse_expression("u*(u-1)"), u_max=2.0)
        assert not ok
        assert offender is not None
        assert 0.0 < offender < 1.0

    def test_identically_zero(self):
        ok, offender = check_f_positive(parse_expression("0*u"), u_max=1.0)
        assert not ok
        assert offender is not None

    def test_non_finite_sample_fails_without_raising(self):
        ok, offender = check_f_positive(parse_expression("u*(2-u)^0.5"),
                                        u_max=3.0)
        assert not ok
        assert 2.0 < offender <= 3.0

    def test_non_finite_sample_evaluates_f_once(self, monkeypatch):
        # The sampling grid keeps f's non-finite values; it does not
        # evaluate the expression a second time to get them.
        nl = parse_expression("u*(2-u)^0.5")
        roots, evaluate = [], nonlinearity._eval_ast

        def counted(node, u):
            if node is nl.ast:
                roots.append(u.size)
            return evaluate(node, u)
        monkeypatch.setattr(nonlinearity, "_eval_ast", counted)
        nonlinearity._samples.cache_clear()
        assert not check_f_positive(nl, u_max=3.0, samples=101)[0]
        nonlinearity._samples.cache_clear()
        assert len(roots) == 1
