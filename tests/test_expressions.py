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
