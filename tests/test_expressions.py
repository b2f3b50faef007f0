import ast
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslevy.errors import ConfigurationError
from mslevy.expressions import compile_expression


def test_unicode_operators_normalized():
    fn = compile_expression("−pow(x,3)+x×y÷2", ("x", "y"))
    x = np.array([1.0, -2.0])
    y = np.array([4.0, 6.0])
    np.testing.assert_allclose(fn({"x": x, "y": y}), -x**3 + x * y / 2)


def test_functions_and_pow_operator():
    fn = compile_expression("sin(x) + cos(y) - arctan(x)*exp(-y) + abs(x)**3", ("x", "y"))
    x = np.array([0.3, -1.2])
    y = np.array([0.5, 2.0])
    want = np.sin(x) + np.cos(y) - np.arctan(x) * np.exp(-y) + np.abs(x) ** 3
    np.testing.assert_allclose(fn({"x": x, "y": y}), want)


def test_constant_expression_broadcasts():
    fn = compile_expression("1", ("x", "y"))
    out = fn({"x": np.zeros(5), "y": np.zeros(5)})
    assert float(out) == 1.0


def test_negative_integer_power():
    fn = compile_expression("pow(x, -2)", ("x",))
    np.testing.assert_allclose(fn({"x": np.array([2.0])}), [0.25])


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x.real",
        "lambda: 1",
        "tan(x)",
        "w + 1",
        "x % 2",
        "pow(x)",
        "sin(x, y)",
        "[1, 2]",
        "",
        "x ** y",
    ],
)
def test_grammar_rejections(bad):
    with pytest.raises(ConfigurationError):
        compile_expression(bad, ("x", "y"))


def test_compiled_function_is_pure():
    fn = compile_expression("x*x + y", ("x", "y"))
    env = {"x": np.array([2.0]), "y": np.array([1.0])}
    a = fn(env)
    b = fn(env)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(env["x"], [2.0])


@pytest.mark.parametrize("text, message", [
    ("x.real", "syntax Attribute not in grammar"),
    ("x.__class__", "syntax Attribute not in grammar"),
    ("x[0]", "syntax Subscript not in grammar"),
    ("lambda: 1", "syntax Lambda not in grammar"),
    ("sin(x=1)", "only plain calls to grammar functions are allowed"),
    ("pow(x, y=2)", "only plain calls to grammar functions are allowed"),
    ("__import__('os')", "function '__import__' not in grammar"),
    ("__class__", "unknown variable '__class__'; allowed here: x, y"),
    ("x ** y", "exponent of ** must be a numeric literal"),
    ("x ** -2", "exponent of ** must be a numeric literal"),
    ("'a' + x", "literal 'a' is not a number"),
    ("True", "literal True is not a number"),
    # an exponent literal is a literal too
    ("pow(y, 'a')", "literal 'a' is not a number"),
    ("pow(y, True)", "literal True is not a number"),
    ("y ** True", "literal True is not a number"),
    ("y ** 'a'", "literal 'a' is not a number"),
])
def test_refusals_name_what_is_outside_the_grammar(text, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        compile_expression(text, ("x", "y"))


def test_overflowing_literal_is_an_infinite_number():
    # 1e400 parses to inf: a literal bound by value, not spelled by repr
    x = np.array([1.0, -2.0])
    fn = compile_expression("1e400 * x - pow(x, 1e400)", ("x",))
    with np.errstate(all="ignore"):
        want = np.subtract(np.multiply(np.inf, x), np.power(x, np.inf))
        np.testing.assert_array_equal(fn({"x": x}), want)
    assert float(compile_expression("-1e400", ("x",))({"x": x})) == -np.inf


_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide}
_FUNCS = {"sin": np.sin, "cos": np.cos, "arctan": np.arctan, "exp": np.exp,
          "abs": np.abs}


def _loop_pow(base, exponent):
    """A literal power as a loop: for an integer exponent k in 0..8, the
    float 1.0 (k = 0) or base multiplied by itself left to right; any
    other exponent goes to np.power."""
    if isinstance(exponent, (int, float)) and float(exponent).is_integer():
        k = int(exponent)
        if 0 <= k <= 8:
            out = 1.0 if k == 0 else base
            for _ in range(k - 1):
                out = out * base
            return out
    return np.power(base, exponent)


def _walk(node, env):
    """Tree-walk evaluation of a grammar AST, making the NumPy calls of
    the grammar in operand order."""
    if isinstance(node, ast.Expression):
        return _walk(node.body, env)
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        value = _walk(node.operand, env)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            return _loop_pow(_walk(node.left, env), node.right.value)
        return _BINOPS[type(node.op)](_walk(node.left, env), _walk(node.right, env))
    if node.func.id == "pow":
        base, expo = node.args
        if isinstance(expo, ast.Constant):
            return _loop_pow(_walk(base, env), expo.value)
        return np.power(_walk(base, env), _walk(expo, env))
    return _FUNCS[node.func.id](_walk(node.args[0], env))


_LITERALS = ["0", "1", "2.5", "0.5", "3", "1e-300", "1e300", "1e400"]
_EXPONENTS = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "0.5", "2.0",
              "1e400"]


def _grammar_expressions():
    leaves = st.sampled_from(["x", "y", *_LITERALS])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from("-+"), inner).map(lambda t: f"{t[0]}{t[1]}"),
            st.tuples(st.sampled_from(sorted(_FUNCS)), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from([*_EXPONENTS, "-2", "-9"])).map(
                lambda t: f"pow({t[0]}, {t[1]})"),
            st.tuples(inner, st.sampled_from(_EXPONENTS)).map(
                lambda t: f"({t[0]}) ** {t[1]}"),
            st.tuples(inner, inner).map(lambda t: f"pow({t[0]}, {t[1]})"),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, -1.0, -2.5]),
                    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(text=_grammar_expressions(),
       xy=st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.lists(_VALUES, min_size=n, max_size=n),
           st.lists(_VALUES, min_size=n, max_size=n))))
def test_compiled_function_equals_a_tree_walk_bit_for_bit(text, xy):
    env = {"x": np.array(xy[0]), "y": np.array(xy[1])}
    fn = compile_expression(text, ("x", "y"))
    with np.errstate(all="ignore"):
        got = fn(env)
        want = np.asarray(_walk(ast.parse(text, mode="eval"), env), dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=_grammar_expressions(),
       xy=st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.lists(_VALUES, min_size=n, max_size=n),
           st.lists(_VALUES, min_size=n, max_size=n),
           st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))))
def test_prelude_on_x_then_step_on_gathered_rows_equals_the_function(text, xy):
    # a frozen run makes the prelude once on every row's x, then gathers
    # its results with the rows each step advances
    x, y, idx = np.array(xy[0]), np.array(xy[1]), np.array(xy[2])
    fn = compile_expression(text, ("x", "y"))
    with np.errstate(all="ignore"):
        slow = fn.prelude({"x": x})
        got = fn.step({"x": x[idx], "y": y[idx],
                       **{name: value[idx] for name, value in slow.items()}})
        want = fn({"x": x[idx], "y": y[idx]})
    assert set(slow) == set(fn.slow)
    assert all(value.shape == x.shape for value in slow.values())
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, slow", [
    ("sin(x) - y - y * y * y * y * y", ("_t0",)),
    ("y * (2 * 3)", ()),                # a literal-only subtree stays per step
    ("pow(x, 0) * y", ()),              # the float 1.0, not a per-row array
    ("x * y", ()),
    ("cos(x)", ("_t0",)),
    ("1", ()),
])
def test_slow_only_results_handed_to_the_step(text, slow):
    fn = compile_expression(text, ("x", "y"))
    assert fn.slow == slow
