"""Small arithmetic grammar for user-defined scalar coefficients.

Accepted: +, -, *, /, pow, sin, cos, arctan, exp, abs, numeric literals,
and the variables the hosting coefficient declares (x, y, z as
appropriate). Unicode minus/times/divide signs are normalized so
expressions copied from documents parse unchanged. Anything outside the
grammar is rejected at load time.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ConfigurationError

__all__ = ["compile_expression"]

_REWRITES = str.maketrans({"−": "-", "×": "*", "⋅": "*", "÷": "/"})

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "arctan": np.arctan,
    "exp": np.exp,
    "abs": np.abs,
}

_MAX_INT_POW = 8


def _pow(base, exponent):
    # integer powers unrolled to repeated multiplication: np.power on a
    # float64 array with an integer exponent is an order of magnitude
    # slower than chained multiplies on some BLAS/libm builds.
    if isinstance(exponent, (int, float)) and float(exponent).is_integer():
        k = int(exponent)
        if 0 <= k <= _MAX_INT_POW:
            out = 1.0 if k == 0 else base
            for _ in range(k - 1):
                out = out * base
            return out
        if -_MAX_INT_POW <= k < 0:
            return 1.0 / _pow(base, -k)
    return np.power(base, exponent)


# every name a compiled expression sees, besides its variables and literals
_NAMESPACE = {
    "__builtins__": {},
    "_asarray": np.asarray,
    "_float": float,
    "_pow": _pow,
    "_power": np.power,
    **{f"_{fn.__name__}": fn for fn in (*_BINOPS.values(), *_FUNCS.values())},
}


def compile_expression(text: str, variables: tuple[str, ...]):
    """Compile an expression string to fn(env) -> ndarray.

    `env` maps each declared variable name to a float array; all arrays
    must broadcast together. The compiled function is pure.

    The expression is checked against the grammar and compiled once, to
    one Python function of straight-line NumPy calls: one statement per
    operation, in the order a tree walk would make them (left operand
    first), each intermediate dropped after its one use. So the function
    has no nesting limit, holds no more arrays than a nested call would,
    and folds no constant. Literals and the grammar's functions are the
    only names it sees.

    The same pass splits the function for a run whose slow state x stays
    fixed. A statement is slow-only when its operands are x, literals or
    slow-only results, at least one of them not a literal, and it is no
    power with exponent 0 (whose value is the float 1.0). Then
    `fn.prelude(env)` makes the slow-only statements from env["x"] and
    returns the results that the other statements read, by name, and
    `fn.step(env)` makes the other statements, in the same order,
    reading those results (named in `fn.slow`) from env beside the
    variables. A statement gets the same operands either way, so the
    split function gives the unsplit one's bits, also on rows gathered
    after the prelude. `fn.used` names the variables the expression
    reads.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError("coefficient expression must be a nonempty string")
    source = text.translate(_REWRITES)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot parse expression {text!r}: {exc}") from exc
    variables = tuple(variables)
    literals: dict[str, object] = {}
    used: list[str] = []
    statements: list[tuple[str, str, tuple[str, ...]]] = []
    slow = {"x"}        # x and the slow-only statements' results

    def number(node) -> object:
        value = node.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        raise ConfigurationError(f"literal {value!r} is not a number")

    def literal(value) -> str:
        # bound by name, never emitted as repr: 1e400 parses to inf
        name = f"_c{len(literals)}"
        literals[name] = value
        return name

    def apply(fn: str, *args: str, zero_power=False) -> str:
        """A new temporary holding fn(*args)."""
        name = f"_t{len(statements)}"
        statements.append((name, fn, args))
        if (not zero_power and any(a in slow for a in args)
                and all(a in slow or a in literals for a in args)):
            slow.add(name)
        return name

    def power(base: str, exponent: ast.Constant) -> str:
        value = number(exponent)
        # _pow gives the float 1.0, not a per-row array, for an exponent 0
        zero = float(value).is_integer() and int(value) == 0
        return apply("_pow", base, literal(value), zero_power=zero)

    def emit(node: ast.AST) -> str:
        """The name holding `node`'s value, after the statements that compute it."""
        if isinstance(node, ast.Expression):
            return emit(node.body)
        if isinstance(node, ast.Constant):
            return literal(float(number(node)))
        if isinstance(node, ast.Name):
            if node.id in variables:
                if node.id not in used:
                    used.append(node.id)
                return node.id
            raise ConfigurationError(
                f"unknown variable {node.id!r}; allowed here: {', '.join(variables)}"
            )
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = emit(node.operand)
            if isinstance(node.op, ast.UAdd):
                return inner
            return apply("-", inner)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = emit(node.left)
                if not isinstance(node.right, ast.Constant):
                    raise ConfigurationError("exponent of ** must be a numeric literal")
                return power(base, node.right)
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ConfigurationError(f"operator {type(node.op).__name__} not in grammar")
            left = emit(node.left)
            return apply(f"_{op.__name__}", left, emit(node.right))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ConfigurationError("only plain calls to grammar functions are allowed")
            fname = node.func.id
            if fname == "pow":
                if len(node.args) != 2:
                    raise ConfigurationError("pow takes exactly two arguments")
                base = emit(node.args[0])
                if isinstance(node.args[1], ast.Constant):
                    return power(base, node.args[1])
                return apply("_power", base, emit(node.args[1]))
            fn = _FUNCS.get(fname)
            if fn is None:
                raise ConfigurationError(f"function {fname!r} not in grammar")
            if len(node.args) != 1:
                raise ConfigurationError(f"{fname} takes exactly one argument")
            return apply(f"_{fn.__name__}", emit(node.args[0]))
        raise ConfigurationError(f"syntax {type(node).__name__} not in grammar")

    result = emit(tree)
    prelude = [s for s in statements if s[0] in slow]
    steps = [s for s in statements if s[0] not in slow]
    step_reads = {a for _, _, args in steps for a in args} | {result}
    handed = [name for name, _, _ in prelude if name in step_reads]
    ret = f"_asarray({result}, dtype=_float)"
    code = [*_function("evaluate", used, statements, ret),
            *_function("prelude", ["x"] if prelude else [], prelude,
                       "{" + ", ".join(f'"{n}": {n}' for n in handed) + "}"),
            *_function("step", [v for v in used if v in step_reads] + handed, steps, ret)]
    namespace = {**_NAMESPACE, **literals}
    exec("\n".join(code), namespace)
    evaluate = namespace["evaluate"]
    evaluate.source = text
    evaluate.variables = variables
    evaluate.used = tuple(used)
    evaluate.prelude = namespace["prelude"]
    evaluate.slow = tuple(handed)
    evaluate.step = namespace["step"]
    return evaluate


def _function(name, reads, statements, returns):
    """Source lines of function `name(env)`: it reads the names `reads`
    from env, makes `statements`, dropping each temporary after its one
    read, and returns `returns`."""
    lines = [f"def {name}(env):", *(f'    {n} = env["{n}"]' for n in reads)]
    for target, fn, args in statements:
        lines.append(f"    {target} = {fn}({', '.join(args)})")
        dead = [a for a in args if a.startswith("_t")]
        if dead:
            lines.append(f"    del {', '.join(dead)}")
    lines.append(f"    return {returns}")
    return lines
