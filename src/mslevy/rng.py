"""Deterministic splittable random streams and finite-activity jump sampling.

Streams are value-like: an :class:`RngStream` is a key, not a stateful
generator. Deriving a child stream (`child`) never consumes randomness,
so any part of a simulation can be replayed in isolation.
The underlying bit generator is counter-based (Philox) keyed through
``numpy``'s ``SeedSequence``, which is stable across platforms.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError
from .schema import apply_schema, dataclass_of, finite, mapping, string

__all__ = [
    "RngStream",
    "PointMass",
    "Uniform",
    "TruncatedGaussian",
    "JumpMeasureSpec",
    "sample_jump_times_batch",
]

_MASK64 = (1 << 64) - 1
# Gauss-Legendre nodes of a bounded size family's quadrature rule
_QUAD_NODES = 64


def _tag(purpose: str) -> int:
    # crc32 is stable across runs and platforms, unlike hash().
    return zlib.crc32(purpose.encode("utf-8"))


@dataclass(frozen=True)
class RngStream:
    """Key for a reproducible random stream.

    Same (master_seed, stream_id, tags) always yields the same draw
    sequence. Distinct keys give statistically independent streams.
    A single stream must not be shared by concurrent consumers; derive
    children instead.
    """

    master_seed: int
    stream_id: int = 0
    tags: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.master_seed) <= _MASK64):
            raise ConfigurationError("master_seed must fit in 64 bits")

    def child(self, purpose: str) -> "RngStream":
        """Derive an independent stream for a named purpose."""
        return replace(self, tags=self.tags + (_tag(purpose),))

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator positioned at the stream origin."""
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed),
            spawn_key=(int(self.stream_id),) + self.tags,
        )
        return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# Jump-size families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass:
    """Degenerate jump size: every mark equals `value`."""

    value: float

    def moments(self) -> tuple[float, float]:
        return float(self.value), float(self.value) ** 2

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, float(self.value))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([float(self.value)]), np.array([1.0])


@dataclass(frozen=True)
class Uniform:
    """Uniform jump sizes on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ConfigurationError("uniform size family needs hi > lo")

    def moments(self) -> tuple[float, float]:
        lo, hi = float(self.lo), float(self.hi)
        return 0.5 * (lo + hi), (lo * lo + lo * hi + hi * hi) / 3.0

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.uniform(self.lo, self.hi, size)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
        half = 0.5 * (self.hi - self.lo)
        mid = 0.5 * (self.hi + self.lo)
        # weights of leggauss sum to 2; the density is 1/(hi-lo).
        return mid + half * nodes, 0.5 * weights


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian(mu, sd) conditioned on [-bound, bound]."""

    mu: float
    sd: float
    bound: float

    def __post_init__(self):
        if self.sd <= 0 or self.bound <= 0:
            raise ConfigurationError("truncated gaussian needs sd > 0 and bound > 0")
        if abs(self.mu) >= self.bound:
            raise ConfigurationError("truncated gaussian mean must lie inside the bound")

    def _pieces(self):
        a = (-self.bound - self.mu) / self.sd
        b = (self.bound - self.mu) / self.sd
        fa, fb = _phi(a), _phi(b)
        z = ndtr(b) - ndtr(a)
        return a, b, fa, fb, z

    def moments(self) -> tuple[float, float]:
        a, b, fa, fb, z = self._pieces()
        mean = self.mu + self.sd * (fa - fb) / z
        var = self.sd**2 * (1.0 + (a * fa - b * fb) / z - ((fa - fb) / z) ** 2)
        return float(mean), float(var + mean * mean)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        a, b, _, _, _ = self._pieces()
        u = gen.uniform(0.0, 1.0, size)
        p = ndtr(a) + u * (ndtr(b) - ndtr(a))
        return self.mu + self.sd * ndtri(p)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
        half = float(self.bound)
        x = half * nodes
        _, _, _, _, z = self._pieces()
        dens = _phi((x - self.mu) / self.sd) / (self.sd * z)
        w = weights * half * dens
        return x, w / w.sum()


def _phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


_SIZE_FAMILIES = {"point_mass": PointMass, "uniform": Uniform,
                  "truncated_gaussian": TruncatedGaussian}


def size_family_from_dict(d, path="size"):
    """The jump size family of a config block {"kind": name, **fields};
    errors name `path`."""
    kind = string(tuple(_SIZE_FAMILIES))(mapping(d, path).get("kind"), f"{path}.kind")
    values = {k: v for k, v in d.items() if k != "kind"}
    return dataclass_of(_SIZE_FAMILIES[kind])(values, path)


# ---------------------------------------------------------------------------
# Jump measure
# ---------------------------------------------------------------------------

_MOMENT_TOL = 1e-12


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Finite-activity jump measure: event rate plus mark distribution.

    `m1` and `m2` are the first and second moments of the mark law. They
    may be declared explicitly, in which case construction validates them
    against the family's analytic moments to within 1e-12.
    """

    intensity: float
    size: PointMass | Uniform | TruncatedGaussian
    m1: float = None  # type: ignore[assignment]
    m2: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.intensity < 0:
            raise ConfigurationError("jump intensity must be nonnegative")
        a1, a2 = self.size.moments()
        if self.m1 is None:
            object.__setattr__(self, "m1", a1)
        elif abs(self.m1 - a1) > _MOMENT_TOL * max(1.0, abs(a1)):
            raise ConfigurationError(
                f"declared m1={self.m1!r} disagrees with analytic {a1!r}"
            )
        if self.m2 is None:
            object.__setattr__(self, "m2", a2)
        elif abs(self.m2 - a2) > _MOMENT_TOL * max(1.0, abs(a2)):
            raise ConfigurationError(
                f"declared m2={self.m2!r} disagrees with analytic {a2!r}"
            )
        if not np.isfinite(self.m2):
            raise ConfigurationError("second mark moment must be finite")

    @classmethod
    def from_dict(cls, d, path="measure") -> "JumpMeasureSpec":
        """The measure of a config block {"intensity": rate, "size": {...}};
        errors name `path`."""
        return cls(**apply_schema(d, {
            "intensity": (True, None, finite),
            "size": (True, None, size_family_from_dict)}, path))


def _mark_affine(g, k: int):
    """(c0, c1) with g(z) = c0 + z * c1 when the map g of k marks is affine
    in the mark, from its values at z = 0 and 1 and a check at z = 0.37
    (rtol 1e-9, atol 1e-12); None when it is not."""
    c0 = g(np.zeros(k))
    c1 = g(np.ones(k)) - c0
    probe = g(np.full(k, 0.37))
    if not np.allclose(probe, c0 + 0.37 * c1, rtol=1e-9, atol=1e-12):
        return None
    return c0, c1


def default_jump_measure() -> JumpMeasureSpec:
    """Unit-rate mean-zero bounded marks used by the built-in example models."""
    return JumpMeasureSpec(intensity=1.0, size=Uniform(-0.5, 0.5))


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------


def sample_jump_times_batch(
    intensity: float, horizon: float, n_paths: int, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Event times for many independent paths at once.

    Uses the conditional-uniformity construction (Poisson count, then
    order statistics), which is distribution-exact and vectorizes.
    Returns (path_index, time) sorted by path then time.
    """
    if intensity < 0:
        raise ConfigurationError("intensity must be nonnegative")
    if not horizon > 0:
        raise ConfigurationError("horizon must be positive")
    if intensity == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    gen = stream.generator()
    counts = gen.poisson(intensity * horizon, n_paths)
    total = int(counts.sum())
    times = gen.uniform(0.0, horizon, total)
    paths = np.repeat(np.arange(n_paths, dtype=np.int64), counts)
    # the paths come grouped: order the times, then group their paths
    # again, so that each path's times ascend (np.lexsort's order); one
    # permutation is composed and the times gathered once
    order = _time_order(times)
    key = paths[order]

    def reorder(o):
        nonlocal order
        key[:], order = key[o], order[o]

    _sort_by_digits(key, reorder)
    del key
    return paths, times[order]


def _time_order(times) -> np.ndarray:
    """A permutation that sorts `times`, tied times in their given order
    (a stable sort runs only when two times tie)."""
    order = np.argsort(times)
    t = times[order]
    if (t[1:] == t[:-1]).any():
        order = np.argsort(times, kind="stable")
    return order


def _sort_by_digits(key, reorder):
    """Sort stably by the nonnegative integers `key`: for each 16 bits of
    the key, least significant first, `reorder(order)` applies the stable
    argsort of that digit (which NumPy runs as a radix sort) to the key
    and the arrays that go with it, in place. After a stable sort by
    other keys, this gives np.lexsort's order with `key` as the primary
    key."""
    top = int(key.max()) if len(key) else 0
    for shift in range(0, top.bit_length(), 16):
        digit = (key >> shift if shift else key).astype(np.uint16)
        reorder(np.argsort(digit, kind="stable"))
