"""Synthetic sparse-SPD ground truths, Gaussian sampling, dataset files.

Ground-truth precision matrices come from sparsity-seeded Cholesky factors:
a lower-triangular L with diagonal -1 whose strictly-lower entries are zero
with probability ``alpha`` and otherwise drawn from [0.1, 0.9] and negated,
squared into L'L, symmetrically permuted at random, then shifted by
``diag_boost`` on the diagonal. Each n-sample empirical covariance is built
from draws of the zero-mean Gaussian whose precision is that ground truth.

Randomness comes from the counter-based 64-bit Philox generator. Entry
``j`` of a dataset uses the child key ``splitmix64(splitmix64(seed) + j)``,
so entries are reproducible independently of generation order. Bit equality
is promised within this implementation, not across languages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg

__all__ = [
    "Dataset",
    "DatasetEntry",
    "FORMAT_TAG",
    "GenConfig",
    "build_dataset",
    "child_seed",
    "load_dataset",
    "make_rng",
    "make_sparse_spd",
    "sample_covariance",
    "save_dataset",
]

FORMAT_TAG = "SPODNET-DS-1"
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """64-bit child stream key: splitmix64(splitmix64(seed) + index)."""
    return _splitmix64((_splitmix64(seed & _MASK64) + index) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True)
class GenConfig:
    p: int
    n: int
    num: int
    alpha: float
    diag_boost: float = 0.1
    seed: int = 0
    keep_samples: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.num < 1:
            raise ValueError("num must be >= 1")
        if self.diag_boost < 0.0:
            raise ValueError("diag_boost must be >= 0")


@dataclass
class DatasetEntry:
    theta_true: np.ndarray
    s: np.ndarray
    samples: np.ndarray | None = None


@dataclass
class Dataset:
    config: GenConfig
    entries: list[DatasetEntry]


def make_sparse_spd(p: int, alpha: float, diag_boost: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One sparse SPD matrix with smallest eigenvalue above ``diag_boost``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    lower = np.tril(np.ones((p, p), dtype=bool), k=-1)
    # fixed draw counts keep the stream layout independent of alpha
    keep = (rng.random((p, p)) >= alpha) & lower
    mags = rng.uniform(0.1, 0.9, size=(p, p))
    factor = -np.eye(p)
    factor[keep] = -mags[keep]
    base = factor.T @ factor
    perm = rng.permutation(p)
    theta = base[np.ix_(perm, perm)] + diag_boost * np.eye(p)
    return 0.5 * (theta + theta.T)


def sample_covariance(theta_true, n: int, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(S, X): empirical covariance and the n raw draws behind it.

    Rows of X are x = L^{-T} z with theta_true = L L' and z standard normal,
    so each row has covariance inv(theta_true); S = X'X / n.
    """
    t = linalg.as_sym_array(theta_true)
    L = linalg.cholesky(t)
    z = rng.standard_normal((n, t.shape[0]))
    x = solve_triangular(L.T, z.T, lower=False).T
    s = x.T @ x / n
    return 0.5 * (s + s.T), x


def build_dataset(cfg: GenConfig) -> Dataset:
    entries = []
    for j in range(cfg.num):
        rng = make_rng(child_seed(cfg.seed, j))
        theta = make_sparse_spd(cfg.p, cfg.alpha, cfg.diag_boost, rng)
        s, x = sample_covariance(theta, cfg.n, rng)
        entries.append(DatasetEntry(theta_true=theta, s=s,
                                    samples=x if cfg.keep_samples else None))
    return Dataset(config=cfg, entries=entries)


def _blob(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_dataset(ds: Dataset, path) -> None:
    """Directory layout: meta.json plus one binary blob per entry.

    Each blob stores theta_true then S as p*p little-endian float64
    row-major values, followed by the n*p raw samples when the dataset was
    generated with ``keep_samples``.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {"format": FORMAT_TAG, **asdict(ds.config)}
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for j, entry in enumerate(ds.entries):
        blob = _blob(entry.theta_true) + _blob(entry.s)
        if ds.config.keep_samples:
            blob += _blob(entry.samples)
        (root / f"entry-{j:05d}.bin").write_bytes(blob)


def load_dataset(path) -> Dataset:
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text())
    tag = meta.pop("format", None)
    if tag != FORMAT_TAG:
        raise ValueError(f"unrecognized dataset format tag {tag!r}")
    cfg = GenConfig(**meta)
    p, n = cfg.p, cfg.n
    mat_bytes = p * p * 8
    entries = []
    for j in range(cfg.num):
        blob = (root / f"entry-{j:05d}.bin").read_bytes()
        expected = 2 * mat_bytes + (n * p * 8 if cfg.keep_samples else 0)
        if len(blob) != expected:
            raise ValueError(f"entry {j} has {len(blob)} bytes, expected {expected}")
        theta = np.frombuffer(blob[:mat_bytes], dtype="<f8").reshape(p, p).copy()
        s = np.frombuffer(blob[mat_bytes:2 * mat_bytes], dtype="<f8").reshape(p, p).copy()
        samples = None
        if cfg.keep_samples:
            samples = np.frombuffer(blob[2 * mat_bytes:], dtype="<f8").reshape(n, p).copy()
        for name, arr in (("theta_true", theta), ("S", s), ("samples", samples)):
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"entry {j}: {name} has non-finite values")
        # the layers start from inv(S + I); reject what they cannot invert
        try:
            linalg.cholesky(s + np.eye(p))
        except (ValueError, linalg.NotPositiveDefinite) as exc:
            raise ValueError(f"entry {j}: S + I: {exc}") from None
        entries.append(DatasetEntry(theta_true=theta, s=s, samples=samples))
    return Dataset(config=cfg, entries=entries)
