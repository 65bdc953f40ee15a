import math

import numpy as np
import pytest

from fraxolve.expressions import ExpressionError, parse_expression


class TestEvaluation:
    def test_constant(self):
        assert parse_expression("3.5")() == 3.5
        assert parse_expression("pi")() == pytest.approx(math.pi)

    def test_variables(self):
        fn = parse_expression("x + 2*y - t")
        assert fn(x=1.0, y=3.0, t=0.5) == pytest.approx(6.5)

    def test_referenced_variables(self):
        assert parse_expression("1 + t*x").variables == {"x", "t"}
        assert parse_expression("sin(pi*y)").variables == {"y"}
        assert parse_expression("2.5").variables == frozenset()

    def test_vectorized(self):
        fn = parse_expression("sin(x) * cos(y)")
        x = np.linspace(0.0, math.pi, 7)
        y = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(fn(x=x, y=y), np.sin(x) * np.cos(y))

    def test_functions(self):
        assert parse_expression("exp(1)")() == pytest.approx(math.e)
        assert parse_expression("sin(pi/2)")() == pytest.approx(1.0)

    def test_scientific_notation(self):
        assert parse_expression("1.5e-3")() == 1.5e-3
        assert parse_expression("2E+2")() == 200.0

    def test_source_attribute(self):
        fn = parse_expression("x^2")
        assert fn.source == "x^2"


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert parse_expression("2 + 3 * 4")() == 14.0

    def test_power_binds_tighter_than_mul(self):
        assert parse_expression("2 * 3 ^ 2")() == 18.0

    def test_power_right_associative(self):
        assert parse_expression("2 ^ 3 ^ 2")() == 512.0

    def test_unary_minus(self):
        assert parse_expression("-2 + 5")() == 3.0
        # exponent of a power may itself be a unary expression
        assert parse_expression("2 ^ -1")() == 0.5

    def test_parentheses(self):
        assert parse_expression("(2 + 3) * 4")() == 20.0

    def test_division_left_associative(self):
        assert parse_expression("8 / 4 / 2")() == 1.0


class TestErrors:
    def test_unknown_identifier_reports_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("x + foo")
        assert exc.value.pos == 4
        assert "foo" in str(exc.value)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("x $ y")
        assert exc.value.pos == 2

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin(x")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2")

    def test_missing_operand(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 +")

    def test_bad_number(self):
        with pytest.raises(ExpressionError):
            parse_expression("1.2.3")

    def test_function_requires_parentheses(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin x")


# Python parses these; the whitelist must refuse every one of them.
OUTSIDE_THE_GRAMMAR = [
    "x.real", "__import__('os')", "sin(x, y)", "sin(x=1)", "sin()", "abs(x)",
    "x if y else t", "x < y", "[x]", "lambda: 1", "x // y", "x % y", "x**2", "+x",
    "1_000", "0x10", "1j", "True", "'a'", "x\x00", "ｘ + 1", "1and x",
    "sin + 1", "x(1)", "sin(*x)", "(x := 1)", "x # a comment", "2*^3",
    pytest.param("-" * 5000 + "x", id="5000 unary minus"),
]


class TestWhitelist:
    @pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR)
    def test_refused_with_a_position_in_the_text(self, text):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert type(exc.value) is ExpressionError
        assert 0 <= exc.value.pos <= len(text)

    def test_position_maps_back_through_caret_and_blanks(self):
        # '^' is parsed as two characters and leading blanks are stripped
        with pytest.raises(ExpressionError) as exc:
            parse_expression("  x^2^2 + foo")
        assert exc.value.pos == 10
        with pytest.raises(ExpressionError) as exc:
            parse_expression("x^2 $ 1")
        assert exc.value.pos == 4

    def test_blanks_and_newlines_between_tokens(self):
        x = np.linspace(0.0, 3.0, 5)
        fn = parse_expression("\n  1 +\n 0.5 *\tsin( x )\r\n")
        assert np.array_equal(fn(x=x), 1.0 + 0.5 * np.sin(x))

    def test_leading_zeros_read_as_before(self):
        assert parse_expression("07 + 0.5e-01 + 00.25")() == 7.0 + 0.05 + 0.25


class TestParity:
    """The compiled expression runs the numpy operations a hand-written tree ran."""

    def test_benchmark_coefficient_and_initial_value_bitwise(self):
        x = np.linspace(0.0, math.pi, 2001)
        a = parse_expression("1 + 0.5*sin(x)")(x=x)
        u0 = parse_expression("0.5 + 0.3*cos(2*x)")(x=x)
        assert a.tobytes() == (1.0 + 0.5 * np.sin(x)).tobytes()
        assert u0.tobytes() == (0.5 + 0.3 * np.cos(2.0 * x)).tobytes()

    def test_power_and_unary_minus_bitwise(self):
        x = np.linspace(0.25, 2.0, 9)
        y = np.linspace(-1.0, 1.0, 9)
        fn = parse_expression("exp(-t)*sin(pi*x)*y^2 - -x^-0.5^2")
        ref = np.exp(-np.asarray(0.3)) * np.sin(math.pi * x) * y ** 2.0 - -(x ** -(0.5 ** 2.0))
        assert fn(x=x, y=y, t=0.3).tobytes() == ref.tobytes()
        assert parse_expression("-2^2")() == -4.0
