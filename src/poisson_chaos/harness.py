"""Replicated-experiment engine: deterministic parallel replication, moment
summaries with jackknife errors, Kolmogorov-Smirnov distances against
centered Gaussian references, and the report records the CLI serializes.

Replication i draws the stream of PCG64(SeedSequence(master_seed, spawn_key=(i,))):
each chunk of replications reuses one generator and sets its state from
point_process.replication_seed(master_seed, i), a port of that seeding.  So
results are independent of worker count and scheduling; reductions run in
replication-index order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random   # numpy loads it lazily; load it with this module, not mid-run

from .point_process import replication_seed
from .quadrature import _dot

__all__ = [
    "TargetSpec", "VerdictRecord", "ExperimentReport",
    "collect", "summarize", "tail_mass",
    "ks_statistic", "gaussian_cdf", "jackknife_variance_se",
]


# ---------------------------------------------------------------------------
# standard normal CDF: a port of Cephes ndtr/erf/erfc, the algorithm behind
# scipy.special.ndtr, with the same coefficients and operation order
# ---------------------------------------------------------------------------

_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821794e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef, leading_one: bool = False):
    # Horner's scheme; leading_one prepends an implicit coefficient 1
    ans = x + coef[0] if leading_one else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_series(x):
    # erf(x) for |x| <= 1
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, leading_one=True)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """scipy.special.ndtr(a), bit for bit.  The exp(-x^2) factor of erfc is
    evaluated by math.exp, the C library's exp that scipy's compiled code
    calls; np.exp can round differently in the last bit."""
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    out = np.empty_like(z)
    i = np.flatnonzero(z < _SQRT1_2)
    out[i] = 0.5 + 0.5 * _erf_series(x[i])
    # 0.5 * erfc(|x|) for |x| >= sqrt(1/2); erfc(z) = 1 - erf(z) below 1
    i = np.flatnonzero((z >= _SQRT1_2) & (z < 1.0))
    out[i] = 0.5 * (1.0 - _erf_series(z[i]))
    with np.errstate(over="ignore"):
        z2 = z * z
    for i, p, q in ((np.flatnonzero((z >= 1.0) & (z < 8.0)), _ERFC_P, _ERFC_Q),
                    (np.flatnonzero((z >= 8.0) & (z2 <= _MAXLOG)), _ERFC_R, _ERFC_S)):
        zi = z[i]
        e = np.fromiter(map(math.exp, (-z2[i]).tolist()), float, zi.size)
        out[i] = 0.5 * ((e * _polevl(zi, p)) / _polevl(zi, q, leading_one=True))
    out[z2 > _MAXLOG] = 0.0           # erfc underflow, and |x| = inf
    out[np.isnan(z)] = np.nan
    np.subtract(1.0, out, out=out, where=(x > 0) & (z >= _SQRT1_2))
    return out.reshape(a.shape)[()]


def gaussian_cdf(x, variance: float = 1.0):
    """Centered Gaussian CDF: ndtr(x / sqrt(variance)), accurate to ~1 ulp
    (far below the 1e-12 budget the distance computations need) and equal
    to scipy.special.ndtr bit for bit without importing scipy."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return _ndtr(np.asarray(x, dtype=float) / math.sqrt(variance))


def ks_statistic(samples, reference_variance: float) -> float:
    """sup |empirical CDF - N(0, reference_variance) CDF| by the sorted-sample
    formula."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite samples")
    cdf = gaussian_cdf(s, reference_variance)
    i = np.arange(1, s.size + 1)
    return float(max(np.max(cdf - (i - 1) / s.size), np.max(i / s.size - cdf)))


def jackknife_variance_se(x) -> float:
    """Delete-one jackknife standard error of the sample variance."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("need at least three samples")
    s1 = x.sum()
    s2 = _dot(x, x)
    loo_mean = (s1 - x) / (n - 1)
    loo_var = (s2 - x ** 2 - (n - 1) * loo_mean ** 2) / (n - 2)
    return float(math.sqrt((n - 1) / n * np.sum((loo_var - loo_var.mean()) ** 2)))


@dataclass(frozen=True)
class TargetSpec:
    name: str
    value: float
    tol: float


@dataclass(frozen=True)
class VerdictRecord:
    name: str
    target: float
    tol: float
    estimate: float
    se: float
    within_tol: bool
    within_3se: bool

    @property
    def passed(self) -> bool:
        # bias and noise are judged separately: the estimate must sit inside
        # the stated tolerance band AND the target inside estimate +- 3 se
        # (inside the tolerance band when se is 0)
        return self.within_tol and self.within_3se


@dataclass
class ExperimentReport:
    statistic: str
    replications: int
    master_seed: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    skewness: float
    kurtosis: float
    ks_distance: float | None
    ks_reference_variance: float | None
    verdicts: tuple[VerdictRecord, ...]
    tail_masses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return _record_dict(self, passed=self.passed,
                            tail_masses={str(k): v for k, v in self.tail_masses.items()},
                            verdicts=[_record_dict(v, passed=v.passed) for v in self.verdicts])


def _record_dict(record, **extra) -> dict:
    """A report record's dataclass fields by name, one level deep (values are
    not copied; a nested record is serialized by the caller), updated with
    extra."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_allocator_tuned = False


def _tune_allocator() -> None:
    """Keep the heap of a replication process from being returned to the OS
    between replications; once per process, a no-op after the first call.

    A long replication allocates tens of arrays of a few hundred KB (about
    360 KB each for the 45k atoms of an extended-Gamma pattern at T = 1e4).
    glibc's adaptive mmap threshold puts them on the heap, and its free()
    trims the heap top back to the OS as soon as more than twice that
    threshold is free there, which two such arrays freed together are
    enough for.  The next replication then faults every page in again:
    about 500 minor faults per replication, a third of its time spent in
    the kernel.  Fixed thresholds (mmap from 4 MiB, trim above 32 MiB of
    free top) keep the pages; larger arrays, over 4 MiB, are still
    mmapped and unmapped on free.  Both are set together:
    setting either one alone disables the adaptive threshold and faults
    more, not less.  Values and random streams are unaffected.  Outside
    Linux, or on a C library without mallopt (musl), nothing is done.
    """
    global _allocator_tuned
    if _allocator_tuned:
        return
    _allocator_tuned = True
    if not sys.platform.startswith("linux"):
        return
    import ctypes   # already loaded by numpy
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _run_chunk(args):
    _tune_allocator()
    rep_fn, cfg, master_seed, lo, hi = args
    rng = np.random.default_rng()   # its state is set before every replication
    bitgen = rng.bit_generator
    out = []
    for i in range(lo, hi):
        bitgen.state = replication_seed(master_seed, i)
        try:
            out.append(rep_fn(cfg, rng))
        except Exception as exc:  # abort with the offending replication pinned
            raise RuntimeError(f"replication {i} (master seed {master_seed}) failed: "
                               f"{type(exc).__name__}: {exc}") from exc
    return out


def collect(rep_fn, cfg, R: int, master_seed: int, workers: int = 1) -> np.ndarray:
    """Run rep_fn(cfg, rng) for R replications, rng set to the stream of
    replication i (one generator per chunk is reseeded in place, so rep_fn
    must not keep it); returns the (R, m) value array reduced in
    replication-index order regardless of worker count (both maps return
    the chunks in the order they were given)."""
    if R < 1:
        raise ValueError("need at least one replication")
    step = -(-R // max(workers * 4, 1))
    chunks = [(rep_fn, cfg, master_seed, lo, min(lo + step, R)) for lo in range(0, R, step)]
    if workers <= 1:
        results = map(_run_chunk, chunks)
    else:
        # imported here: the pool module and multiprocessing cost start-up
        # time that single-worker runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    arr = np.asarray([v for chunk in results for v in chunk], dtype=float)
    return arr if arr.ndim > 1 else arr[:, None]


def tail_mass(samples: np.ndarray, thresholds) -> dict:
    """E[S^4 1(S^4 > M)] over a grid of M, a heavy-tail diagnostic for the
    fourth-power family (no uniform-integrability verdict is claimed)."""
    s4 = np.asarray(samples, dtype=float) ** 4
    return {float(m): float(np.mean(np.where(s4 > m, s4, 0.0))) for m in thresholds}


def summarize(name: str, values: np.ndarray, targets=(), master_seed: int = 0,
              ks_reference_variance: float | None = None,
              tail_thresholds=()) -> ExperimentReport:
    """Moment summary with jackknife errors and verdicts against targets.

    A target named 'variance' compares the sample variance; a target named
    'ks' compares the KS distance.
    """
    v = np.asarray(values, dtype=float).ravel()
    r = v.size
    mean = float(v.mean())
    var = float(v.var(ddof=1))
    sd = math.sqrt(var) if var > 0 else 0.0
    mean_se = sd / math.sqrt(r) if r > 1 else 0.0
    var_se = jackknife_variance_se(v) if r > 2 and var > 0 else 0.0
    skew = float(np.mean((v - mean) ** 3) / sd ** 3) if sd > 0 else 0.0
    kurt = float(np.mean((v - mean) ** 4) / sd ** 4) if sd > 0 else 0.0
    ks = ks_statistic(v, ks_reference_variance) if ks_reference_variance else None
    verdicts = []
    for t in targets:
        if t.name.startswith("var"):
            est, se = var, var_se
        elif t.name.startswith("ks"):
            est, se = (ks if ks is not None else math.nan), 0.0
        else:
            raise ValueError(f"unknown target kind {t.name!r}")
        within_tol = abs(est - t.value) <= t.tol
        # a target without a standard error (ks) is held to its tolerance
        within_3se = abs(est - t.value) <= (3.0 * se if se > 0 else t.tol)
        verdicts.append(VerdictRecord(t.name, t.value, t.tol, est, se,
                                      bool(within_tol), bool(within_3se)))
    tails = tail_mass(v, tail_thresholds) if tail_thresholds else {}
    return ExperimentReport(
        statistic=name, replications=r, master_seed=master_seed,
        mean=mean, mean_se=mean_se, variance=var, variance_se=var_se,
        skewness=skew, kurtosis=kurt,
        ks_distance=ks, ks_reference_variance=ks_reference_variance,
        verdicts=tuple(verdicts), tail_masses=tails,
    )
