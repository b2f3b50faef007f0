"""Model declarations for slow-fast jump-diffusion systems.

A :class:`ModelSpec` packages the six coefficient maps of the system

    dX = b(X, Y) dt + sigma(X, Y) dW1 + h1(X-, z) compensated-jumps(nu1)
    dY = (1/eps) f(X, Y) dt + (1/sqrt(eps)) g(X, Y) dW2
         + h2(X-, Y-, z) compensated-jumps(nu2 / eps)

together with dimensions, jump measures, and declared structural
constants. Coefficients follow a batch convention: states are arrays of
shape (paths, dim) and outputs keep the batch axis (diffusions return
(paths, dim, wiener_dim)).

Structural assumptions (one-sided Lipschitz slow drift, dissipative fast
drift, fast contraction) are not provable numerically; the checkers here
probe them on a sampling box and report fitted constants, with a hard
counterexample witness whenever a probe violates the declared bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .expressions import compile_expression
from .rng import JumpMeasureSpec, RngStream, _mark_affine, default_jump_measure
from .schema import apply_schema, boolean, dataclass_of, string

__all__ = [
    "AssumptionParams",
    "AssumptionReport",
    "ModelSpec",
    "scalar_model",
    "example_2_7",
    "example_2_8",
    "BUILTIN_MODELS",
    "get_model",
    "model_from_config",
    "fast_coefficients",
    "check_monotonicity",
    "check_fast_dissipativity",
    "check_strong_monotonicity_fast",
    "check_growth",
]


@dataclass(frozen=True)
class AssumptionParams:
    """Declared constants of the structural assumptions.

    growth_exp: polynomial growth exponent of the drift and its partials.
    coercivity_exp: power q in the coercivity bounds (>= 2).
    contraction_rate: strong-monotonicity rate of the fast drift (beta).
    dissipation_rate: fast coercivity rate (lambda).
    jump_lipschitz: fast jump contraction loss, must stay below beta.
    diffusion_growth_exp / jump_growth_exp: sublinear growth powers in [0, 1).
    moment_order: moment index used to weight the jump terms in the
        contraction checker.
    drift_monotone_bound: one-sided Lipschitz constant of the slow drift.
    """

    growth_exp: float
    coercivity_exp: float
    contraction_rate: float
    dissipation_rate: float
    jump_lipschitz: float = 0.0
    diffusion_growth_exp: float = 0.0
    jump_growth_exp: float = 0.0
    moment_order: float = 10.0
    drift_monotone_bound: float = 1.0

    def __post_init__(self):
        if self.growth_exp < 2 or self.coercivity_exp < 2:
            raise ConfigurationError("growth and coercivity exponents must be >= 2")
        if not 0 <= self.jump_lipschitz < self.contraction_rate:
            raise ConfigurationError(
                "jump_lipschitz must lie in [0, contraction_rate)"
            )
        for z in (self.diffusion_growth_exp, self.jump_growth_exp):
            if not 0 <= z < 1:
                raise ConfigurationError("growth powers must lie in [0, 1)")


_PROBE_SEED = 0x5EED_CAFE


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one slow-fast system.

    Safe to share across concurrent path simulations: coefficients must be
    pure functions and all fields are frozen after construction.
    """

    name: str
    dim_slow: int
    dim_fast: int
    dw_slow: int
    dw_fast: int
    slow_drift: Callable
    slow_diffusion: Callable
    slow_jump: Callable
    fast_drift: Callable
    fast_diffusion: Callable
    fast_jump: Callable
    slow_measure: JumpMeasureSpec
    fast_measure: JumpMeasureSpec
    sigma_y_independent: bool = False
    params: AssumptionParams | None = None

    def __post_init__(self):
        gen = np.random.Generator(np.random.Philox(_PROBE_SEED))
        x = gen.uniform(-2, 2, (8, self.dim_slow))
        y = gen.uniform(-2, 2, (8, self.dim_fast))
        z = gen.uniform(-0.5, 0.5, 8)
        shapes = {
            "slow_drift": (self.slow_drift(x, y), (8, self.dim_slow)),
            "slow_diffusion": (self.slow_diffusion(x, y), (8, self.dim_slow, self.dw_slow)),
            "slow_jump": (self.slow_jump(x, z), (8, self.dim_slow)),
            "fast_drift": (self.fast_drift(x, y), (8, self.dim_fast)),
            "fast_diffusion": (self.fast_diffusion(x, y), (8, self.dim_fast, self.dw_fast)),
            "fast_jump": (self.fast_jump(x, y, z), (8, self.dim_fast)),
        }
        for label, (out, want) in shapes.items():
            out = np.asarray(out)
            if out.shape != want:
                raise ConfigurationError(
                    f"{label} returned shape {out.shape}, expected {want}"
                )
            if not np.all(np.isfinite(out)):
                raise ConfigurationError(f"{label} is not finite on probe points")
        if self.sigma_y_independent:
            y1 = gen.uniform(-4, 4, (1000, self.dim_fast))
            y2 = gen.uniform(-4, 4, (1000, self.dim_fast))
            xs = gen.uniform(-4, 4, (1000, self.dim_slow))
            a = np.asarray(self.slow_diffusion(xs, y1))
            b = np.asarray(self.slow_diffusion(xs, y2))
            if not np.array_equal(a, b):
                raise ConfigurationError(
                    "sigma_y_independent is set but slow_diffusion varies with the fast state"
                )


def scalar_model(
    name: str,
    *,
    b,
    sigma,
    f,
    g,
    h1=lambda x, z: z,
    h2=lambda x, y, z: z,
    nu1: JumpMeasureSpec | None = None,
    nu2: JumpMeasureSpec | None = None,
    sigma_y_independent: bool = False,
    params: AssumptionParams | None = None,
) -> ModelSpec:
    """One-dimensional model from flat scalar-array coefficients.

    Coefficients may be plain numbers (constants) or functions of flat
    (paths,) arrays: b(x, y), sigma(x, y), h1(x, z), f(x, y), g(x, y),
    h2(x, y, z).
    """
    given = {"b": b, "sigma": sigma, "f": f, "g": g, "h1": h1, "h2": h2}
    return _scalar_spec(name, {key: _flat(value) for key, value in given.items()},
                        nu1, nu2, sigma_y_independent, params)


def _flat(value):
    """A number or a function of flat arrays as a function of the env of
    `_coefficient`, whose values arrive in the function's argument order;
    a number is a 0-d array."""
    if callable(value):
        return lambda env: np.asarray(value(*env.values()), dtype=float)
    const = np.asarray(float(value))
    return lambda env: const


# ---------------------------------------------------------------------------
# Built-in example systems
# ---------------------------------------------------------------------------


def example_2_7(sigma_variant: str = "state_linear") -> ModelSpec:
    """Cubic slow drift with a quintic-damped fast component.

    b(x, y) = -x^3 + x + y^3,  f(x, y) = sin(x) - y - y^5,  g = 1,
    jumps h1 = h2 = z. `sigma_variant` selects sigma(x, y) = x
    (state_linear, independent of the fast state) or
    sigma(x, y) = sin(x) + sin(y) + 3 (sine_bounded).
    """
    if sigma_variant == "state_linear":
        sigma, y_indep, name = "x", True, "example_2_7_linear"
    elif sigma_variant == "sine_bounded":
        sigma, y_indep, name = "sin(x) + sin(y) + 3.0", False, "example_2_7_sine"
    else:
        raise ConfigurationError(f"unknown sigma variant {sigma_variant!r}")
    return model_from_config({
        "name": name,
        "b": "-x * x * x + x + y * y * y",
        "sigma": sigma,
        "f": "sin(x) - y - y * y * y * y * y",
        "g": "1",
        "sigma_y_independent": y_indep,
        "params": {"growth_exp": 4, "coercivity_exp": 6, "contraction_rate": 2.0,
                   "dissipation_rate": 0.5, "drift_monotone_bound": 1.0},
    })


def example_2_8() -> ModelSpec:
    """Arctan-coupled slow drift with a cubic-damped fast component.

    b(x, y) = x - arctan(x) y^2 + y,  sigma = 1,  f(x, y) = cos(x) - y^3,
    g = 1, jumps h1 = h2 = z.
    """
    return model_from_config({
        "name": "example_2_8",
        "b": "x - arctan(x) * y * y + y",
        "sigma": "1",
        "f": "cos(x) - y * y * y",
        "g": "1",
        "sigma_y_independent": True,
        "params": {"growth_exp": 2, "coercivity_exp": 4, "contraction_rate": 1.0,
                   "dissipation_rate": 0.5, "drift_monotone_bound": 1.0},
    })


BUILTIN_MODELS = {
    "example_2_7_linear": lambda: example_2_7("state_linear"),
    "example_2_7_sine": lambda: example_2_7("sine_bounded"),
    "example_2_8": example_2_8,
}


# per expression key: its ModelSpec field, its variables and the unit
# dimensions its flat value gains
_COEFFICIENTS = {"b": ("slow_drift", ("x", "y"), 1),
                 "sigma": ("slow_diffusion", ("x", "y"), 2),
                 "f": ("fast_drift", ("x", "y"), 1),
                 "g": ("fast_diffusion", ("x", "y"), 2),
                 "h1": ("slow_jump", ("x", "z"), 1),
                 "h2": ("fast_jump", ("x", "y", "z"), 1)}

_MODEL_SCHEMA = {
    "name": (False, "custom", string()),
    "b": (True, None, string()),
    "sigma": (True, None, string()),
    "f": (True, None, string()),
    "g": (True, None, string()),
    "h1": (False, "z", string()),
    "h2": (False, "z", string()),
    "nu1": (False, None, JumpMeasureSpec.from_dict),
    "nu2": (False, None, JumpMeasureSpec.from_dict),
    "params": (False, None, dataclass_of(AssumptionParams)),
    "sigma_y_independent": (False, None, boolean),
}


def _coefficient(evaluate, variables, trailing):
    """`evaluate` (a compiled expression of `variables`, or `_flat`) as a
    coefficient in the batch convention, in one closure: states arrive
    as (paths, 1) columns and marks as a flat array, `evaluate` maps them
    by variable name to a flat value, and that value gains `trailing`
    unit dimensions (a constant value is broadcast over the batch).
    `fast_coefficients` splits it for frozen runs. Its `constant` is the
    finite float value of an expression that reads no variable
    (`g = "1"`), which the kernel adds as a diffusion without calling
    it; else None."""
    expand = (slice(None),) + (None,) * trailing
    if variables == ("x", "z"):
        def coefficient(x, z):
            out = evaluate({"x": x[:, 0], "z": np.asarray(z, dtype=float)})
            return (out if out.ndim else np.full(len(x), float(out)))[expand]
    elif variables == ("x", "y", "z"):
        def coefficient(x, y, z):
            out = evaluate({"x": x[:, 0], "y": y[:, 0], "z": np.asarray(z, dtype=float)})
            return (out if out.ndim else np.full(len(x), float(out)))[expand]
    else:
        def coefficient(x, y):
            out = evaluate({"x": x[:, 0], "y": y[:, 0]})
            return (out if out.ndim else np.full(len(x), float(out)))[expand]
    coefficient.expression, coefficient.expand = evaluate, expand
    coefficient.constant = None
    if getattr(evaluate, "used", None) == ():
        with np.errstate(all="ignore"):
            value = float(evaluate({}))
        if np.isfinite(value):
            coefficient.constant = value
    return coefficient


def model_from_config(cfg: dict) -> ModelSpec:
    """Build a scalar model from expression-valued coefficients.

    Expected keys: b, sigma, f, g (variables x, y), h1 (x, z),
    h2 (x, y, z), optional nu1/nu2 measure dicts, optional params dict,
    optional name and sigma_y_independent (true or false; probed from
    sigma when absent). Expressions use the arithmetic
    grammar (+, -, *, /, pow, sin, cos, arctan, exp, abs).
    """
    m = apply_schema(cfg, _MODEL_SCHEMA, "model")
    exprs = {}
    for key, (_, variables, _) in _COEFFICIENTS.items():
        exprs[key] = compile_expression(m[key], variables)

    sigma_flag = m["sigma_y_independent"]
    if sigma_flag is None:
        # probe: exact equality across fast-state resamples
        gen = np.random.Generator(np.random.Philox(_PROBE_SEED + 1))
        xs = gen.uniform(-4, 4, 1000)
        sig = exprs["sigma"]
        a = np.broadcast_to(sig({"x": xs, "y": gen.uniform(-4, 4, 1000)}), xs.shape)
        b = np.broadcast_to(sig({"x": xs, "y": gen.uniform(-4, 4, 1000)}), xs.shape)
        sigma_flag = bool(np.array_equal(a, b))

    return _scalar_spec(m["name"], exprs, m["nu1"], m["nu2"], sigma_flag,
                        m["params"])


def _scalar_spec(name, evaluators, nu1, nu2, sigma_y_independent, params):
    """The scalar ModelSpec whose coefficients are `_coefficient`s of
    `evaluators`, one function of an env per `_COEFFICIENTS` key."""
    return ModelSpec(
        name=name, dim_slow=1, dim_fast=1, dw_slow=1, dw_fast=1,
        **{field: _coefficient(evaluators[key], variables, trailing)
           for key, (field, variables, trailing) in _COEFFICIENTS.items()},
        slow_measure=nu1 if nu1 is not None else default_jump_measure(),
        fast_measure=nu2 if nu2 is not None else default_jump_measure(),
        sigma_y_independent=sigma_y_independent,
        params=params,
    )


def get_model(ref) -> ModelSpec:
    """Resolve a model reference: built-in name or a custom config dict."""
    if isinstance(ref, str):
        try:
            return BUILTIN_MODELS[ref]()
        except KeyError:
            raise ConfigurationError(
                f"unknown model {ref!r}; built-ins: {sorted(BUILTIN_MODELS)}"
            ) from None
    return model_from_config(ref)


def fast_coefficients(model: ModelSpec, frozen: bool = False):
    """The fast coefficients f, g and h2 for the kernel: (prelude, binds,
    reads).

    Each of the three binds maps a fast component's name to its kernel
    closure, closure(sub) or, for h2, closure(sub, z), which reads x and
    that component's state from the kernel's `sub`, and the prelude keys
    in the matching entry of `reads`.

    A frozen run holds x fixed. With `frozen`, each expression
    coefficient splits as `compile_expression` describes: prelude(x)
    maps keys to per-row arrays of the slow-only parts at the slow
    states x (paths, dim_slow), which the kernel makes once per run and
    keeps among its states, gathered with the rows, and the closures read
    them from `sub`. A coefficient whose value reads no fast state and no
    mark is its per-row array. Other callables, and every coefficient of
    a run whose x moves, have no prelude and bind to plain closures.

    A diffusion with a `constant` (`_coefficient`) has no prelude in any
    run: its plain closures carry the mark, so the kernel adds c * dw
    without calling them.
    """
    parts, binds, reads = [], [], []
    for key, marks in (("fast_drift", False), ("fast_diffusion", False),
                       ("fast_jump", True)):
        fn = getattr(model, key)
        split = frozen and (key != "fast_diffusion"
                            or getattr(fn, "constant", None) is None)
        part, bind, keys = _frozen(fn, key) if split else (None, None, ())
        if part is None:
            bind = _plain_bind(fn, marks)
        else:
            parts.append(part)
        binds.append(bind)
        reads.append(keys)

    def prelude(x):
        return {k: v for part in parts for k, v in part(x).items()}

    return prelude, binds, reads


def _plain_bind(fn, marks):
    if marks:
        return lambda name: lambda sub, z: fn(sub["x"], sub[name], z)

    def bind(name):
        def closure(sub):
            return fn(sub["x"], sub[name])
        closure.constant = getattr(fn, "constant", None)
        return closure

    return bind


def _frozen(fn, key):
    """(part, bind, keys) of coefficient `fn` in a frozen run: part(x)
    maps keys that start with `key` to fn's per-row arrays, bind is as
    in `fast_coefficients` (bind(name) reads that state as y), and its
    closures read the prelude `keys`; (None, None, ()) when fn does not
    split."""
    evaluate = getattr(fn, "expression", None)
    if getattr(evaluate, "step", None) is None:
        return None, None, ()
    expand = fn.expand
    if set(evaluate.used) <= {"x"}:
        # no fast state and no mark: the whole value is one per-row array
        def whole(x):
            out = evaluate({"x": x[:, 0]})
            return {key: (out if out.ndim else np.full(len(x), float(out)))[expand]}

        return whole, lambda name: lambda sub, *z: sub[key], (key,)

    prelude, step = evaluate.prelude, evaluate.step
    slow = [(n, f"{key}.{n}") for n in evaluate.slow]

    def part(x):
        return {f"{key}.{n}": v for n, v in prelude({"x": x[:, 0]}).items()}

    def bind(name):
        def closure(sub, *z):
            env = {"x": sub["x"][:, 0], "y": sub[name][:, 0]}
            if z:
                env["z"] = np.asarray(z[0], dtype=float)
            for n, k in slow:
                env[n] = sub[k]
            out = step(env)
            return (out if out.ndim else np.full(len(env["y"]), float(out)))[expand]
        return closure

    return part, bind, tuple(k for _, k in slow)


# ---------------------------------------------------------------------------
# Assumption checkers
# ---------------------------------------------------------------------------


@dataclass
class AssumptionReport:
    """Outcome of one randomized structural check.

    `passed` is a pure function of the probes and the declared params;
    a pass is evidence, not proof, while a failing witness re-evaluates
    to the same violation.
    """

    assumption: str
    n_probes: int
    observed: float
    declared: float | None
    passed: bool
    witness: dict | None
    details: dict

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        decl = "-" if self.declared is None else f"{self.declared:.4g}"
        return (
            f"[{state}] {self.assumption}: observed {self.observed:.6g} "
            f"(declared {decl}, {self.n_probes} probes)"
        )


def _boxes(model, box):
    if isinstance(box, (tuple, list)) and len(box) == 2 and np.isscalar(box[0]):
        halves = float(box[0]), float(box[1])
    elif np.isscalar(box):
        halves = float(box), float(box)
    else:
        raise ConfigurationError("box must be a half-width or (slow, fast) half-widths")
    # the probes draw from [-h, h], whose width 2h must be finite too
    if not all(0 < 2 * h < np.inf for h in halves):
        raise ConfigurationError(
            f"box half-widths must be positive and at most half the largest "
            f"float, not {box!r}")
    return halves


def _pair_sample(gen, half, shape):
    a = gen.uniform(-half, half, shape)
    b = gen.uniform(-half, half, shape)
    # resample coincident pairs rather than divide by zero
    for _ in range(8):
        bad = np.sum((a - b) ** 2, axis=-1) < 1e-20
        if not bad.any():
            break
        b[bad] = gen.uniform(-half, half, (int(bad.sum()), shape[1]))
    return a, b


def check_monotonicity(model: ModelSpec, probes: int, box, stream: RngStream) -> AssumptionReport:
    """One-sided Lipschitz bound of the slow drift in its slow argument.

    Reports sup over probe pairs of <b(x1,y)-b(x2,y), x1-x2> / |x1-x2|^2
    and compares it with the declared bound plus 10% slack. For scalar
    slow states a dense grid scan of the difference quotient is included.
    """
    if probes < 1:
        raise ConfigurationError("probes must be >= 1")
    sx, sy = _boxes(model, box)
    gen = stream.child("monotonicity").generator()
    x1, x2 = _pair_sample(gen, sx, (probes, model.dim_slow))
    y = gen.uniform(-sy, sy, (probes, model.dim_fast))
    ratios = _mono_ratio(model, x1, x2, y)
    best = int(np.argmax(ratios))
    observed = float(ratios[best])
    witness = {"x1": x1[best].copy(), "x2": x2[best].copy(), "y": y[best].copy(),
               "ratio": observed}
    details = {"random_max": observed}

    if model.dim_slow == 1:
        grid = np.linspace(-sx, sx, 161)
        ii, jj = np.triu_indices(grid.size, k=1)
        g1 = grid[ii][:, None]
        g2 = grid[jj][:, None]
        for tag, yv in (("y0", 0.0), ("y+", 0.8 * sy), ("y-", -0.8 * sy)):
            yg = np.full((g1.shape[0], model.dim_fast), yv)
            r = _mono_ratio(model, g1, g2, yg)
            k = int(np.argmax(r))
            details[f"grid_max_{tag}"] = float(r[k])
            if r[k] > observed:
                observed = float(r[k])
                witness = {"x1": g1[k].copy(), "x2": g2[k].copy(), "y": yg[k].copy(),
                           "ratio": observed}
    declared = model.params.drift_monotone_bound if model.params else None
    if declared is None:
        passed = bool(np.isfinite(observed))
    else:
        passed = bool(observed <= declared + 0.1 * max(1.0, abs(declared)))
    return AssumptionReport("slow_drift_monotonicity", probes, observed, declared,
                            passed, witness, details)


def _mono_ratio(model, x1, x2, y):
    db = model.slow_drift(x1, y) - model.slow_drift(x2, y)
    dx = x1 - x2
    return np.sum(db * dx, axis=1) / np.sum(dx * dx, axis=1)


def check_fast_dissipativity(model: ModelSpec, probes: int, box,
                             stream: RngStream) -> AssumptionReport:
    """Coercivity of the fast drift: <f(x,y), y> <= -lam(|y|^2+|y|^q) + C,
    with q the declared coercivity exponent (2 without declared params).

    The fitted rate is the worst ratio -<f,y>/(|y|^2+|y|^q) over probes in
    the outer shell |y| >= box/2, where the additive constant is
    negligible; C is reported as the residual at the declared rate.
    """
    if probes < 1:
        raise ConfigurationError("probes must be >= 1")
    sx, sy = _boxes(model, box)
    q = model.params.coercivity_exp if model.params else 2.0
    gen = stream.child("dissipativity").generator()
    x = gen.uniform(-sx, sx, (probes, model.dim_slow))
    # half the probes forced into the shell so the fit never starves
    y = gen.uniform(-sy, sy, (probes, model.dim_fast))
    shell_dirs = gen.standard_normal((probes // 2 + 1, model.dim_fast))
    shell_dirs /= np.linalg.norm(shell_dirs, axis=1, keepdims=True)
    radii = gen.uniform(0.5 * sy, sy, (probes // 2 + 1, 1))
    y = np.concatenate([y, shell_dirs * radii], axis=0)
    x = np.concatenate([x, x[: probes // 2 + 1]], axis=0)

    inner = np.sum(model.fast_drift(x, y) * y, axis=1)
    norm = np.linalg.norm(y, axis=1)
    denom = norm**2 + norm**q
    shell = norm >= 0.5 * sy
    ratios = -inner[shell] / denom[shell]
    k = int(np.argmin(ratios))
    observed = float(ratios[k])
    idx = np.flatnonzero(shell)[k]
    witness = {"x": x[idx].copy(), "y": y[idx].copy(), "ratio": observed}
    declared = model.params.dissipation_rate if model.params else None
    residual_rate = declared if declared is not None else max(observed, 0.0)
    resid = float(np.max(inner + residual_rate * denom))
    details = {"residual_constant": max(resid, 0.0), "q": float(q),
               "shell_probes": int(shell.sum())}
    if declared is None:
        passed = bool(observed > 0)
    else:
        passed = bool(observed >= 0.9 * declared)
    return AssumptionReport("fast_drift_dissipativity", int(len(y)), observed,
                            declared, passed, witness, details)


def _fast_jump_increment_sq(model, x, y1, y2):
    """Integral of |h2(x,y1,z)-h2(x,y2,z)|^2 against the fast jump measure.

    Uses the mark moments when h2 is affine in the mark, quadrature on the
    bounded support otherwise.
    """
    measure = model.fast_measure
    P = x.shape[0]

    def diff(z):
        return model.fast_jump(x, y1, z) - model.fast_jump(x, y2, z)

    coefs = _mark_affine(diff, P)
    if coefs is not None:
        c0, c1 = coefs
        m1, m2 = measure.m1, measure.m2
        val = (np.sum(c0 * c0, axis=1) + 2 * m1 * np.sum(c0 * c1, axis=1)
               + m2 * np.sum(c1 * c1, axis=1))
        return measure.intensity * val
    nodes, weights = measure.size.quadrature()
    acc = np.zeros(P)
    for z, w in zip(nodes, weights):
        d = diff(np.full(P, z))
        acc += w * np.sum(d * d, axis=1)
    return measure.intensity * acc


def check_strong_monotonicity_fast(model: ModelSpec, probes: int, box,
                                   stream: RngStream) -> AssumptionReport:
    """Contraction of the fast dynamics between two fast states.

    Evaluates, at shared slow state,
        2<f(x,y1)-f(x,y2), y1-y2> + (l-1)||g(x,y1)-g(x,y2)||^2
        + 2^(l-3)(l-1) * integral |h2(x,y1,z)-h2(x,y2,z)|^2 nu2(dz)
    and fits the contraction rate as the worst value of -(lhs)/|y1-y2|^2.
    """
    if probes < 1:
        raise ConfigurationError("probes must be >= 1")
    sx, sy = _boxes(model, box)
    ell = model.params.moment_order if model.params else 10.0
    gen = stream.child("contraction").generator()
    x = gen.uniform(-sx, sx, (probes, model.dim_slow))
    y1, y2 = _pair_sample(gen, sy, (probes, model.dim_fast))
    if model.dim_fast == 1:
        grid = np.linspace(-sy, sy, 81)
        ii, jj = np.triu_indices(grid.size, k=1)
        x = np.concatenate([x, np.zeros((ii.size, model.dim_slow))], axis=0)
        y1 = np.concatenate([y1, grid[ii][:, None]], axis=0)
        y2 = np.concatenate([y2, grid[jj][:, None]], axis=0)

    dy = y1 - y2
    dist2 = np.sum(dy * dy, axis=1)
    df = model.fast_drift(x, y1) - model.fast_drift(x, y2)
    dg = model.fast_diffusion(x, y1) - model.fast_diffusion(x, y2)
    lhs = (2.0 * np.sum(df * dy, axis=1)
           + (ell - 1.0) * np.sum(dg * dg, axis=(1, 2))
           + 2.0 ** (ell - 3.0) * (ell - 1.0)
           * _fast_jump_increment_sq(model, x, y1, y2))
    rates = -lhs / dist2
    k = int(np.argmin(rates))
    observed = float(rates[k])
    witness = {"x": x[k].copy(), "y1": y1[k].copy(), "y2": y2[k].copy(),
               "rate": observed}
    declared = model.params.contraction_rate if model.params else None
    if declared is None:
        passed = bool(observed > 0)
    else:
        passed = bool(observed >= 0.9 * declared)
    return AssumptionReport("fast_contraction", int(len(y1)), observed, declared,
                            passed, witness, {"moment_order": float(ell)})


def check_growth(model: ModelSpec, probes: int, box, stream: RngStream) -> AssumptionReport:
    """Finite-ratio report for the polynomial growth of drift derivatives.

    Central finite differences (step 1e-5) of the drifts along every
    coordinate; the statistic is max ||d(drift)|| / (1 + |x|^k + |y|^k).
    Report-only: passes whenever the ratios are finite.
    """
    if probes < 1:
        raise ConfigurationError("probes must be >= 1")
    sx, sy = _boxes(model, box)
    k = model.params.growth_exp if model.params else 2.0
    gen = stream.child("growth").generator()
    x = gen.uniform(-sx, sx, (probes, model.dim_slow))
    y = gen.uniform(-sy, sy, (probes, model.dim_fast))
    step = 1e-5
    envelope = 1.0 + np.linalg.norm(x, axis=1) ** k + np.linalg.norm(y, axis=1) ** k
    worst = 0.0
    for fn, wrt in ((model.slow_drift, "x"), (model.slow_drift, "y"),
                    (model.fast_drift, "x"), (model.fast_drift, "y")):
        dim = model.dim_slow if wrt == "x" else model.dim_fast
        for axis in range(dim):
            bump = np.zeros((1, dim))
            bump[0, axis] = step
            if wrt == "x":
                d = fn(x + bump, y) - fn(x - bump, y)
            else:
                d = fn(x, y + bump) - fn(x, y - bump)
            grad = np.linalg.norm(d, axis=1) / (2 * step)
            # np.maximum keeps a NaN ratio, which Python's max drops
            worst = float(np.maximum(worst, np.max(grad / envelope)))
    finite = bool(np.isfinite(worst))
    return AssumptionReport("drift_growth_ratio", probes, worst, None, finite,
                            None, {"growth_exp": float(k)})
