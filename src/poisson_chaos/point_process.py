"""Control measures and Poisson point patterns on bounded windows.

The state space is Z = R x R with coordinates z = (u, x): u is the jump size,
x the time coordinate.  A control measure mu is either homogeneous,
mu(du, dx) = nu(du) dx with nu a jump marginal, or one of two non-homogeneous
families whose u-density depends on x.  Patterns are sampled conditionally:
a Poisson count for the window followed by i.i.d. locations from the
normalized restriction of mu, which is dimension-agnostic and embarrassingly
parallel across replications.

Infinite-activity marginals are handled by a hard truncation of jumps below
``eps``; no small-jump Gaussian correction is applied, and the neglected
second-moment mass is reported so callers can bound the bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.random   # numpy loads it lazily; load it with this module, not mid-run

__all__ = [
    "InfiniteMassError",
    "SupportError",
    "Window",
    "PointPattern",
    "DiscreteControl",
    "GeneralizedGammaControl",
    "ExtendedGammaControl",
    "BetaControl",
    "sample_pattern",
    "check_atom_budget",
    "MAX_MEAN_ATOMS",
    "replication_seed",
]


class InfiniteMassError(ValueError):
    """Raised when an operation would require the mass of an infinite-activity
    marginal without truncation."""


class SupportError(ValueError):
    """Raised when a kernel or region leaks outside the sampled window."""


@dataclass(frozen=True)
class Window:
    """Strip [x_lo, x_hi] x (full support of the jump marginal) in Z."""

    x_lo: float
    x_hi: float

    def __post_init__(self):
        for name, value in (("x_lo", self.x_lo), ("x_hi", self.x_hi)):
            if not math.isfinite(value):
                raise ValueError(f"window bound {name} must be finite, got {value}")
        if not self.x_hi > self.x_lo:
            raise ValueError(f"degenerate window: x in [{self.x_lo}, {self.x_hi}]")

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo


@dataclass(frozen=True)
class PointPattern:
    """Atoms of one Poisson realization on a window.

    ``u`` and ``x`` are parallel arrays (jump sizes / time coordinates).
    """

    u: np.ndarray
    x: np.ndarray
    window: Window

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.u.shape != self.x.shape:
            raise ValueError("u and x must be parallel arrays")
        # the comparisons are False for a NaN atom, which is refused too
        if self.u.size and not (self.x.min() >= self.window.x_lo
                                and self.x.max() <= self.window.x_hi):
            raise ValueError("atom outside window")

    def __len__(self) -> int:
        return int(self.u.size)


# ---------------------------------------------------------------------------
# replication seeds: numpy's SeedSequence hash (O'Neill's seed_seq, NEP 19)
# and PCG64's seeding step, in Python ints and uint64 arrays
# ---------------------------------------------------------------------------

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, low word first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n >> 32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash_constants(h: int, mult: int, count: int) -> list[tuple[int, int]]:
    # (xor, multiplier) of successive hashes: the running constant before
    # and after its update
    out = []
    for _ in range(count):
        out.append((h, h * mult & _M32))
        h = out[-1][1]
    return out


def _hashmix(value: int, xm: tuple[int, int]) -> int:
    value = (value ^ xm[0]) * xm[1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=16)
def _master_pool(master_seed: int, index_words: int):
    """The index-free part of SeedSequence(master_seed, spawn_key=(index,)),
    as uint64 columns that broadcast over a block of indices: the pool after
    mixing in the master's words (shape (4, 1)), the (xor, multiplier) hash
    constants that mix in each of the index's words (shape (2, 4, 1) per
    word), and those of generate_state (shape (2, 8, 1))."""
    words = _uint32_words(master_seed)
    words += [0] * (4 - len(words))   # with a spawn key, the entropy fills the pool
    hashes = iter(_hash_constants(0x43B0D7E5, 0x931E8875, 4 * (len(words) + index_words)))
    pool = [_hashmix(w, next(hashes)) for w in words[:4]]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = _mix(pool[d], _hashmix(pool[s], next(hashes)))
    for w in words[4:]:
        pool = [_mix(p, _hashmix(w, next(hashes))) for p in pool]
    rest = list(hashes)
    pool = np.array(pool, dtype=np.uint64)[:, None]
    index_hashes = [_pair_columns(rest[k:k + 4]) for k in range(0, len(rest), 4)]
    out = _pair_columns(_hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    for a in (pool, out, *index_hashes):   # cached, so shared by every block
        a.setflags(write=False)
    return pool, index_hashes, out


def _pair_columns(pairs) -> np.ndarray:
    # (xor, multiplier) pairs as two uint64 columns, shape (2, len(pairs), 1)
    return np.array(pairs, dtype=np.uint64).T[:, :, None]


# Replication seeds are computed for this many aligned indices at a time.
# 2^32 is a multiple of it, so the indices of a block share every uint32
# word but the lowest, and so their word count.
_SEED_BLOCK = 64


@lru_cache(maxsize=8)
def _seed_block(master_seed: int, block: int) -> tuple[tuple[int, int], ...]:
    """PCG64's (state, inc) for the indices block * _SEED_BLOCK + k,
    k < _SEED_BLOCK: the SeedSequence hashing in uint64 arrays masked to 32
    bits, one column per index (the products of 32-bit words are exact, and
    differences wrap modulo 2^64, a multiple of 2^32), then the 128-bit
    words in Python ints."""
    words = _uint32_words(block * _SEED_BLOCK)
    pool, hashes, (ox, om) = _master_pool(master_seed, len(words))
    low = np.arange(words[0], words[0] + _SEED_BLOCK, dtype=np.uint64)
    for w, (x, m) in zip([low, *words[1:]], hashes):
        # pool[d] = _mix(pool[d], _hashmix(w, hashes[d]))
        v = (w ^ x) * m & _M32
        v ^= v >> 16
        r = (0xCA01F9DD * pool - 0x4973F715 * v) & _M32
        pool = r ^ r >> 16
    # generate_state(4, np.uint64): the pool words hashed twice round,
    # paired low word first into the 64-bit halves of PCG64's 128-bit state
    # s and increment t
    v = (np.concatenate([pool, pool]) ^ ox) * om & _M32
    v ^= v >> 16
    s_hi, s_lo, t_hi, t_lo = (v[0::2] | v[1::2] << 32).tolist()
    states = []
    for sh, sl, th, tl in zip(s_hi, s_lo, t_hi, t_lo):
        # pcg_setseq_128_srandom_r: inc = 2t + 1, two LCG steps
        inc = (th << 65 | tl << 1 | 1) & _M128
        states.append(((((sh << 64 | sl) + inc) * _PCG64_MULT + inc) & _M128, inc))
    return tuple(states)


def replication_seed(master_seed: int, index: int) -> dict:
    """Counter-based replication seed: the state that
    np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(index,)))
    starts in, as a dict to assign to a PCG64's ``state``.  It depends only
    on (master_seed, index), never on scheduling order or worker count.  The
    states are computed a block of _SEED_BLOCK aligned indices at a time and
    cached, so a run that seeds its replications in index order pays the
    hashing once per block; the stream is the same."""
    index = int(index)
    state, inc = _seed_block(int(master_seed), index // _SEED_BLOCK)[index % _SEED_BLOCK]
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


# ---------------------------------------------------------------------------
# inverse-CDF tables for the truncated infinite-activity marginals
# ---------------------------------------------------------------------------


# Guide-table buckets of the inverse-CDF lookup.  A power of two, so v * B
# and k / B are exact in floating point and bucket k holds exactly the
# uniforms in [k / B, (k + 1) / B).
_GUIDE_BUCKETS = 1 << 14

# Points of the generalized- and extended-Gamma inverse-CDF tables, and the
# extra geometric points per smooth piece of the extended-Gamma table.
_TABLE_SIZE = 4096
_PIECE_POINTS = 33


class _InverseCDF:
    """Inverse of the normalized trapezoid CDF of ``dens`` on ``grid``.

    ``lookup(v)`` returns np.interp(v, cdf, grid) bit for bit for v in
    [0, 1): interp's segment j is the last breakpoint with cdf[j] <= v, and
    its value is slopes[j] * (v - cdf[j]) + grid[j].  The segment is found
    without a search: bucket k of the guide table holds the segment of
    k / B, and a bucket that holds at most one further breakpoint needs one
    comparison.  A crowded bucket, one that holds more, holds -1 instead:
    its comparison reads cdf[-1] = 1 > v and leaves the -1, which marks the
    uniform for a search.  Crowded buckets lie where the CDF is flat (its
    ends), so few uniforms reach them.  The table is cached and shared by
    every sampling call, so its arrays are made read-only.
    """

    def __init__(self, grid: np.ndarray, dens: np.ndarray):
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        self.total = cdf[-1]
        cdf /= self.total
        with np.errstate(divide="ignore"):   # flat segments are never looked up
            slopes = np.diff(grid) / np.diff(cdf)
        segment = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS,
                                  side="right") - 1
        guide = segment[:-1]
        guide[np.diff(segment) > 1] = -1   # crowded buckets
        self.grid, self.cdf, self.slopes, self.guide = grid, cdf, slopes, guide
        for a in (grid, cdf, slopes, guide):
            a.setflags(write=False)

    def lookup(self, v: np.ndarray) -> np.ndarray:
        j = self.guide.take((v * _GUIDE_BUCKETS).astype(np.intp))
        # a crowded bucket's -1 compares v with cdf[-1] = 1 > v, so stays -1
        j += self.cdf[1:].take(j) <= v
        searched = np.flatnonzero(j < 0)
        if searched.size:
            j[searched] = np.searchsorted(self.cdf, v.take(searched), side="right") - 1
        out = self.cdf.take(j)
        np.subtract(v, out, out=out)
        out *= self.slopes.take(j)
        out += self.grid.take(j)
        return out


@lru_cache(maxsize=32)
def _window_constants(control, window: Window):
    """Per-(control, window) sampling constants, the inverse-CDF table and
    the mean atom count (and the extended-Gamma full-span point), computed
    once per process; both arguments are frozen dataclasses and so hashable
    by value."""
    return control._compute_window_constants(window)


# ---------------------------------------------------------------------------
# control measures
# ---------------------------------------------------------------------------


class ControlMeasure:
    """Common surface of all control measures.

    Subclasses provide per-window masses, jump-moment integrals and samplers
    that draw each atom directly (no rejection): exactly, or through an
    inverse-CDF table.  All instances are immutable and safe to share across
    workers.
    """

    homogeneous: bool = True

    # -- masses ------------------------------------------------------------
    def jump_mass(self) -> float:
        raise NotImplementedError

    def mass(self, window: Window) -> float:
        return self.jump_mass() * window.length   # nu(R) |W|; non-homogeneous controls override

    # -- moments -----------------------------------------------------------
    def moment(self, i: int) -> float:
        """K_nu^(i) = int u^i nu(du) over the (truncated) support."""
        raise NotImplementedError

    def abs_moment(self, i: int) -> float:
        """int |u|^i nu(du); equals moment(i) for positive marginals."""
        return self.moment(i)

    def neglected_second_moment(self) -> float:
        """Second-moment mass int_0^eps u^2 nu(du) dropped by truncation."""
        return 0.0

    def require_finite_mass(self) -> None:
        """Raise InfiniteMassError if the control has infinite mass, so that
        no pattern of it can be sampled.  Reads the parameters only: no mass
        is computed."""

    # -- sampling ----------------------------------------------------------
    def mean_atoms(self, window: Window) -> float:
        """Mean atom count of sample() on the window: mu(window) by default."""
        return self.mass(window)

    def sample(self, window: Window, rng: np.random.Generator):
        """(u, x) of one Poisson pattern on the window."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiscreteControl(ControlMeasure):
    """Finite discrete jump marginal nu = sum_i w_i delta_{u_i} times
    Lebesgue measure on the time axis.

    sample() draws the count, then the times, then the marks: a law with two
    or more values equals Generator.choice draw for draw and leaves the
    generator in the same state; a one-point law draws no marks.
    """

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.weights) or not self.values:
            raise ValueError("values and weights must be non-empty and parallel")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for name in ("values", "weights"):
            bad = [v for v in getattr(self, name) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"discrete jump {name} must be finite, got {bad[0]}")
        if any(w <= 0 for w in self.weights):
            raise ValueError("discrete jump weights must be positive")
        # read-only arrays, the sampling CDF (the one Generator.choice builds
        # from p = w / w.sum()) and the moments of orders 0-4 (all the
        # statistics use), built once; not fields, so eq and hash still see
        # only the tuples
        vals, w = np.array(self.values), np.array(self.weights)
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        for a in (vals, w, cdf):
            a.setflags(write=False)
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_moments", {i: float(np.sum(w * vals ** i)) for i in range(5)})
        object.__setattr__(self, "_abs_moments", {})   # filled by abs_moment on first use

    def jump_mass(self) -> float:
        return self._moments[0]   # sum(w), the cached zeroth moment

    def moment(self, i: int) -> float:
        if i in self._moments:
            return self._moments[i]
        return float(np.sum(self._weights * self._values ** i))

    def abs_moment(self, i: int) -> float:
        if i not in self._abs_moments:
            self._abs_moments[i] = float(np.sum(self._weights * np.abs(self._values) ** i))
        return self._abs_moments[i]

    def sample(self, window: Window, rng: np.random.Generator):
        n = rng.poisson(self.mean_atoms(window))
        x = rng.uniform(window.x_lo, window.x_hi, size=n)
        if self._values.size == 1:
            return self._values.repeat(n), x   # one value: no marks to draw
        # rng.choice(vals, size=n, p=w / w.sum()), draw for draw, for two or
        # more values
        u = self._values.take(self._cdf.searchsorted(rng.random(n), side="right"))
        return u, x


def _upper_gamma(a: float, z: float) -> float:
    # Gamma(a, z) for a > -1, a != 0, including the negative range needed by
    # truncated generalized-Gamma masses: Gamma(a, z) = (Gamma(a+1, z) - z^a e^-z)/a
    if a > 0:
        from scipy.special import gamma as gamma_fn, gammaincc
        return float(gamma_fn(a) * gammaincc(a, z))
    return float((_upper_gamma(a + 1.0, z) - z ** a * np.exp(-z)) / a)


@dataclass(frozen=True)
class GeneralizedGammaControl(ControlMeasure):
    """Homogeneous control with density Gamma(1-sigma)^{-1} e^{-gamma u} u^{-1-sigma}
    on u > 0, truncated at eps; sigma in (0,1), gamma > 0.

    Infinite activity at the origin: eps = 0 has infinite mass and every mass
    request raises.  Truncated sampling uses an inverse-CDF table; moments use
    upper incomplete Gamma closed forms.
    """

    sigma: float
    gamma: float
    eps: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (0.0 <= self.eps < math.inf):
            raise ValueError("eps must be nonnegative and finite")

    def require_finite_mass(self):
        if self.eps <= 0.0:
            raise InfiniteMassError(
                "generalized-Gamma marginal has infinite mass without truncation (eps = 0)")

    def _norm(self) -> float:
        from scipy.special import gamma as gamma_fn
        return 1.0 / float(gamma_fn(1.0 - self.sigma))

    def moment(self, i: int) -> float:
        if i == 0 and self.eps <= 0.0:
            raise InfiniteMassError("zeroth moment diverges without truncation")
        part = _upper_gamma(i - self.sigma, self.gamma * self.eps)
        return self._norm() * self.gamma ** (self.sigma - i) * part

    def jump_mass(self) -> float:
        self.require_finite_mass()
        return self.moment(0)

    def neglected_second_moment(self) -> float:
        # int_0^eps u^2 nu(du) = (1 - sigma) gamma^{sigma-2} P(2-sigma, gamma eps), by the
        # regularized lower incomplete Gamma P: full - moment(2) would cancel at small eps
        from scipy.special import gammainc
        return ((1.0 - self.sigma) * self.gamma ** (self.sigma - 2.0)
                * float(gammainc(2.0 - self.sigma, self.gamma * self.eps)))

    def _u_grid(self):
        self.require_finite_mass()
        return np.geomspace(self.eps, self.eps + 60.0 / self.gamma, _TABLE_SIZE)

    def _compute_window_constants(self, window: Window):
        grid = self._u_grid()
        dens = np.exp(-self.gamma * grid) * grid ** (-1.0 - self.sigma)
        return _InverseCDF(grid, dens), self.mass(window)

    def sample(self, window: Window, rng: np.random.Generator):
        table, total = _window_constants(self, window)
        n = rng.poisson(total)
        x = rng.uniform(window.x_lo, window.x_hi, size=n)
        u = table.lookup(rng.uniform(size=n))
        return u, x


@dataclass(frozen=True)
class ExtendedGammaControl(ControlMeasure):
    """Non-homogeneous control with density e^{-beta(x) u} / u on u > 0, x > 0,
    where beta(x) = beta0 + beta1 * sqrt(x) (strictly positive, nondecreasing).

    The u-marginal is infinite-activity (u^{-1} at the origin); jumps below
    eps are dropped.  Sampling is exact conditional sampling in v = beta(x) u:
    du / u = dv / v, so mu is e^{-v} / v dv dx on v >= beta(x) eps, and
    given v the time x is uniform on the closed interval [x_lo, b(v)] of
    window times with beta(x) eps <= v (beta is nondecreasing).  A call
    draws a Poisson count, v from a 4096-point inverse-CDF table of
    e^{-v} / v (b(v) - x_lo) on [beta(x_lo) eps, beta(x_lo) eps + 80] (the
    kink of b at beta(x_hi) eps, where b reaches x_hi, is a grid point and
    each smooth piece beside it gets 33 more), x uniform on [x_lo, b(v)] and
    u = v / beta(x); nothing is rejected.  b(v) is computed only for the
    atoms below the full-span point, the smallest v at which it reaches
    x_hi (at T = 1e4 about a tenth of them); every other atom's interval is
    the whole window.  The table and that point depend only on the
    (control, window) pair and are built once per process, with numpy
    alone: sampling calls no scipy.  mu(window) (a quadrature of x_mass)
    and the per-time masses and moments call scipy, which is imported when
    first needed.
    """

    beta0: float = 1.0
    beta1: float = 1.0
    eps: float = 1e-4

    homogeneous = False

    def __post_init__(self):
        if not 0.0 < self.beta0 < math.inf:
            raise ValueError(f"beta0 must be positive and finite, got {self.beta0}")
        if not 0.0 <= self.beta1 < math.inf:
            raise ValueError(f"beta1 must be nonnegative and finite, got {self.beta1}")
        if not (0.0 <= self.eps < math.inf):
            raise ValueError("eps must be nonnegative and finite")

    def beta(self, x):
        return self.beta0 + self.beta1 * np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0))

    def require_finite_mass(self):
        if self.eps <= 0.0:
            raise InfiniteMassError(
                "extended-Gamma marginal has infinite mass without truncation (eps = 0)")

    def x_mass(self, x):
        """Per-time u-mass int e^{-beta(x)u}/u du over [eps, inf)."""
        from scipy.special import exp1
        self.require_finite_mass()
        return exp1(self.beta(x) * self.eps)

    def x_moment(self, i: int, x):
        """int u^i e^{-beta(x)u}/u du over [eps, inf) for i >= 1."""
        if i < 1:
            raise ValueError("use x_mass for the zeroth moment")
        from scipy.special import gamma as gamma_fn, gammaincc
        b = self.beta(x)
        return gamma_fn(i) * gammaincc(i, b * self.eps) / b ** i

    def moment(self, i: int) -> float:
        raise ValueError("non-homogeneous control has no global jump moments; use x_moment")

    def neglected_mean_mass(self) -> float:
        # int_0^eps e^{-beta0 u} du <= eps; reported bound on the dropped mean mass per unit time
        return float(self.eps)

    def neglected_second_moment(self) -> float:
        # int_0^eps u e^{-beta0 u} du = (1 - (1 + beta0 eps) e^{-beta0 eps}) / beta0^2
        # ~ eps^2 / 2, dropped at x = 0, where beta is smallest: a bound for every
        # x >= 0.  gammainc(2, .) evaluates it without that form's cancellation.
        from scipy.special import gammainc
        return float(gammainc(2.0, self.beta0 * self.eps)) / self.beta0 ** 2

    def _require_window(self, window: Window) -> None:
        self.require_finite_mass()
        if window.x_lo < 0:
            raise ValueError("extended-Gamma control is supported on x > 0")

    def mass(self, window: Window) -> float:
        from scipy.integrate import quad
        self._require_window(window)
        val, _ = quad(self.x_mass, window.x_lo, window.x_hi,
                      epsabs=1e-11, epsrel=1e-9, limit=400)
        return float(val)

    def _x_end(self, v: np.ndarray, window: Window) -> np.ndarray:
        """b(v), the last window time x with beta(x) eps <= v, elementwise
        in v; a fresh array."""
        if self.beta1 == 0.0:
            return np.where(v >= self.beta0 * self.eps, window.x_hi, window.x_lo)
        # ((v / eps - beta0) / beta1)_+^2, the x >= 0 with beta(x) = v / eps
        # (0 where v / eps <= beta0), clipped to the window
        s = v / self.eps
        s -= self.beta0
        s /= self.beta1
        np.maximum(s, 0.0, out=s)
        s *= s
        return np.clip(s, window.x_lo, window.x_hi, out=s)

    def _compute_window_constants(self, window: Window):
        self._require_window(window)
        v_lo = float(self.beta(window.x_lo)) * self.eps
        v_hi = v_lo + 80.0
        # b is smooth on each side of the kink beta(x_hi) eps, where it
        # reaches x_hi.  Each piece gets its own _PIECE_POINTS geometric
        # points besides the global grid, so a piece narrower than the grid
        # spacing is still resolved.  Sorting and masking repeats avoids
        # np.unique, which loads numpy.ma.
        kink = float(self.beta(window.x_hi)) * self.eps
        edges = [v_lo, kink, v_hi] if v_lo < kink < v_hi else [v_lo, v_hi]
        grid = np.sort(np.concatenate(
            [np.geomspace(v_lo, v_hi, _TABLE_SIZE)]
            + [np.geomspace(p, q, _PIECE_POINTS) for p, q in zip(edges[:-1], edges[1:])]))
        grid = grid[np.concatenate([[True], np.diff(grid) > 0.0])]
        b = self._x_end(grid, window)
        b -= window.x_lo
        table = _InverseCDF(grid, np.exp(-grid) / grid * b)
        # the table's mass, within 1e-5 of mu(window)
        return table, table.total, self._full_span_point(window)

    def _full_span_point(self, window: Window) -> float:
        """The smallest float v with _x_end(v) = x_hi.  The float formula
        is nondecreasing in v, so b(v) = x_hi exactly from this point on;
        it is found by stepping with nextafter from beta(x_hi) eps."""
        if self.beta1 == 0.0:
            return self.beta0 * self.eps
        v = np.array([float(self.beta(window.x_hi)) * self.eps])
        while self._x_end(v, window)[0] < window.x_hi:
            v = np.nextafter(v, np.inf)
        while self._x_end(below := np.nextafter(v, -np.inf), window)[0] == window.x_hi:
            v = below
        return float(v[0])

    def mean_atoms(self, window: Window) -> float:
        return _window_constants(self, window)[1]   # the table's mass: no scipy

    def sample(self, window: Window, rng: np.random.Generator):
        table, total, full = _window_constants(self, window)
        n = rng.poisson(total)
        v = table.lookup(rng.random(n))
        # x = x_lo + (b(v) - x_lo) t: b(v) = x_hi from the full-span point
        # on, so b is computed only for the atoms below it
        x = rng.random(n)
        low = np.flatnonzero(v < full)
        t = x.take(low)
        x *= window.length
        b = self._x_end(v.take(low), window)
        b -= window.x_lo
        t *= b
        x[low] = t
        if window.x_lo:   # at x_lo = 0 both change no bit: +0 <= x <= b <= x_hi
            x += window.x_lo
            np.minimum(x, window.x_hi, out=x)   # x_lo + (b - x_lo) t can round above b
        # u = v / beta(x) with no temporaries besides u; x >= 0 here, so
        # beta's clamp at 0 is not needed
        u = np.sqrt(x)
        u *= self.beta1
        u += self.beta0
        np.divide(v, u, out=u)
        return np.maximum(u, self.eps, out=u), x


@dataclass(frozen=True)
class BetaControl(ControlMeasure):
    """Non-homogeneous control with density c(x) (1-u)^{c(x)-1} on u in (0,1),
    x > 0, where c(x) = max(c1 * sqrt(x), c0).

    The floor c0 keeps the density proper near x = 0; only the large-x
    behaviour c(x) ~ sqrt(x) matters for the limit constants.  Finite
    activity: unit u-mass at every x, so no truncation is needed.
    """

    c0: float = 1.0
    c1: float = 1.0

    homogeneous = False

    def __post_init__(self):
        for name, value in (("c0", self.c0), ("c1", self.c1)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def c(self, x):
        return np.maximum(self.c1 * np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0)), self.c0)

    def x_moment(self, i: int, x):
        # int u^i c (1-u)^{c-1} du = i! / ((c+1)...(c+i))
        c = self.c(x)
        out = np.ones_like(np.asarray(c, dtype=float))
        for k in range(1, i + 1):
            out = out * k / (c + k)
        return out

    def moment(self, i: int) -> float:
        raise ValueError("non-homogeneous control has no global jump moments; use x_moment")

    def mass(self, window: Window) -> float:
        if window.x_lo < 0:
            raise ValueError("Beta control is supported on x > 0")
        return window.length

    def sample(self, window: Window, rng: np.random.Generator):
        # exact conditional inversion: u | x ~ 1 - (1-V)^{1/c(x)}
        n = rng.poisson(self.mean_atoms(window))
        x = rng.uniform(window.x_lo, window.x_hi, size=n)
        u = 1.0 - (1.0 - rng.uniform(size=n)) ** (1.0 / self.c(x))
        return u, x


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------


# Largest mean atom count of one sampled pattern that a run may ask for:
# about 100 times the largest documented run (a hazard horizon of 1e5), and
# far below a count whose arrays would exhaust a host's memory.
MAX_MEAN_ATOMS = 1e7


def check_atom_budget(control: ControlMeasure, window: Window) -> None:
    """Raises ValueError, before any sampling, if a pattern of the control
    on the window has more than MAX_MEAN_ATOMS atoms on average."""
    mean = control.mean_atoms(window)
    if not mean <= MAX_MEAN_ATOMS:
        raise ValueError(f"a pattern on x in [{window.x_lo:g}, {window.x_hi:g}] has "
                         f"{mean:.3g} atoms on average, over the budget of "
                         f"{MAX_MEAN_ATOMS:.0e} per replication")


def sample_pattern(control: ControlMeasure, window: Window, seed) -> PointPattern:
    """Sample one Poisson realization: count ~ Poisson(mu(window)), locations
    i.i.d. mu restricted to the window; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    u, x = control.sample(window, rng)
    return PointPattern(u=u, x=x, window=window)

