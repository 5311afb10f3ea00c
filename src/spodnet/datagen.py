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

A saved dataset is a directory: ``meta.json`` plus one ``.npy`` stack per
array kind, read back whole (see :func:`save_dataset`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

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

FORMAT_TAG = "SPODNET-DS-2"
# entries per stacked S + I check in load_dataset: one stack of all 200
# training matrices at p=20 made (200, 20, 20) temporaries that raised a
# training process's peak RSS by 1.6 MB; chunks of 20 leave it unchanged
_CHECK_CHUNK = 20
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
        if not 0.0 <= self.diag_boost < np.inf:
            raise ValueError("diag_boost must be finite and >= 0")


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
    """One sparse SPD matrix with smallest eigenvalue above ``diag_boost``.
    ``alpha`` must lie in [0, 1], which :class:`GenConfig` checks."""
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
    t = linalg.as_sym_matrix(theta_true)
    L = linalg.cholesky(t)
    z = rng.standard_normal((n, t.shape[0]))
    # L' is upper triangular, so gesv pivots no rows, factors it exactly
    # and back-solves with the same dtrsm as a triangular solve: same bits,
    # without loading scipy
    x = np.linalg.solve(L.T, z.T).T
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


def _stack_shapes(cfg: GenConfig) -> dict[str, tuple]:
    """Shape of each DatasetEntry field a dataset stores, stacked."""
    mats = {"theta_true": (cfg.num, cfg.p, cfg.p), "s": (cfg.num, cfg.p, cfg.p)}
    return {**mats, "samples": (cfg.num, cfg.n, cfg.p)} if cfg.keep_samples else mats


def save_dataset(ds: Dataset, path) -> None:
    """Directory layout: meta.json plus one float64 ``.npy`` stack per
    array kind, in entry order: ``theta_true.npy`` and ``s.npy`` of shape
    ``(num, p, p)``, and ``samples.npy`` of shape ``(num, n, p)`` when the
    dataset was generated with ``keep_samples``.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {"format": FORMAT_TAG, **asdict(ds.config)}
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    (root / "samples.npy").unlink(missing_ok=True)  # left by an earlier save
    for kind in _stack_shapes(ds.config):
        stack = np.stack([getattr(entry, kind) for entry in ds.entries])
        np.save(root / f"{kind}.npy", stack.astype("<f8", copy=False))


def load_dataset(path) -> Dataset:
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text())
    if not isinstance(meta, dict):
        raise ValueError("meta.json is not a JSON object")
    tag = meta.pop("format", None)
    if tag != FORMAT_TAG:
        raise ValueError(f"dataset format {tag!r} is not {FORMAT_TAG!r}; regenerate the "
                         "dataset with gen-data and the arguments in its meta.json")
    for key in ("p", "n", "num"):
        if key in meta and type(meta[key]) is not int:
            raise ValueError(f"meta.json: {key} must be an integer, got {meta[key]!r}")
    if type(meta.get("keep_samples", False)) is not bool:
        raise ValueError(f"meta.json: keep_samples must be a bool, got "
                         f"{meta['keep_samples']!r}")
    try:
        cfg = GenConfig(**meta)
    except TypeError as exc:
        raise ValueError(f"meta.json: {exc}") from None
    stacks = {}
    for kind, shape in _stack_shapes(cfg).items():
        try:
            arr = np.load(root / f"{kind}.npy")
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{kind}.npy: {exc}") from None
        if arr.dtype != np.float64 or arr.shape != shape:
            raise ValueError(f"{kind}.npy holds {arr.dtype} {arr.shape}, "
                             f"meta.json implies float64 {shape}")
        stacks[kind] = arr
    # name the lowest entry with a non-finite value, and its first such array
    bad = [(np.argmin(ok), "S" if kind == "s" else kind) for kind, arr in stacks.items()
           if not (ok := np.isfinite(arr).all(axis=(1, 2))).all()]
    if bad:
        j, label = min(bad, key=lambda b: b[0])
        raise ValueError(f"entry {j}: {label} has non-finite values")
    # the layers start from inv(S + I); reject what they cannot invert. One
    # stacked factorization per chunk; only when it fails are the chunk's
    # entries walked, to name the first failing one
    for start in range(0, cfg.num, _CHECK_CHUNK):
        shifted = stacks["s"][start:start + _CHECK_CHUNK] + np.eye(cfg.p)
        try:
            linalg.cholesky(shifted)
        except (ValueError, linalg.NotPositiveDefinite):
            for j, m in enumerate(shifted, start):
                try:
                    linalg.cholesky(m)
                except (ValueError, linalg.NotPositiveDefinite) as exc:
                    raise ValueError(f"entry {j}: S + I: {exc}") from None
    # each entry holds views of the stacks, which are in DatasetEntry's field order
    return Dataset(config=cfg, entries=[DatasetEntry(*arrays)
                                        for arrays in zip(*stacks.values())])
