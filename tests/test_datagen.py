"""Ground-truth generation, Gaussian sampling, dataset persistence."""

import json
from dataclasses import replace

import numpy as np
import pytest

from spodnet import datagen, linalg
from spodnet.datagen import (Dataset, GenConfig, build_dataset, child_seed,
                             load_dataset, make_rng, make_sparse_spd,
                             sample_covariance, save_dataset)

from oracles import is_spd


class TestMakeSparseSpd:
    def test_alpha_one_is_shifted_identity(self):
        theta = make_sparse_spd(6, 1.0, 0.1, make_rng(0))
        assert np.array_equal(theta, 1.1 * np.eye(6))

    def test_strongly_sparse_density(self):
        densities = []
        for seed in range(5):
            theta = make_sparse_spd(100, 0.95, 0.1, make_rng(seed))
            off = ~np.eye(100, dtype=bool)
            densities.append(float((theta[off] != 0.0).mean()))
        assert all(0.02 <= d <= 0.20 for d in densities)

    def test_weakly_sparse_zero_fraction(self):
        fractions = []
        for seed in range(5):
            theta = make_sparse_spd(100, 0.7, 0.1, make_rng(seed))
            fractions.append(float((theta == 0.0).mean()))
        assert all(0.10 <= f <= 0.40 for f in fractions)

    def test_min_eigenvalue_above_boost(self):
        for seed in range(10):
            theta = make_sparse_spd(20, 0.95, 0.1, make_rng(seed))
            assert np.linalg.eigvalsh(theta)[0] > 0.1
            assert is_spd(theta)

    def test_zero_pattern_is_symmetric(self):
        theta = make_sparse_spd(40, 0.9, 0.1, make_rng(3))
        assert np.array_equal(theta == 0.0, theta.T == 0.0)


class TestSampleCovariance:
    def test_law_of_large_numbers_identity(self):
        s, _ = sample_covariance(np.eye(10), 100_000, make_rng(1))
        assert np.linalg.norm(s - np.eye(10)) / np.sqrt(10) <= 0.05

    def test_single_sample_is_rank_one_psd(self):
        s, x = sample_covariance(np.eye(4), 1, make_rng(2))
        assert np.linalg.matrix_rank(s) == 1
        assert np.linalg.eigvalsh(s)[0] >= -1e-12
        assert np.allclose(s, np.outer(x[0], x[0]), atol=1e-15)

    def test_seed_determinism_is_bitwise(self):
        theta = make_sparse_spd(6, 0.8, 0.1, make_rng(5))
        s1, x1 = sample_covariance(theta, 50, make_rng(7))
        s2, x2 = sample_covariance(theta, 50, make_rng(7))
        assert s1.tobytes() == s2.tobytes()
        assert x1.tobytes() == x2.tobytes()

    def test_covariance_targets_inverse_of_precision(self):
        rng = make_rng(8)
        theta = make_sparse_spd(8, 0.8, 0.1, rng)
        s, _ = sample_covariance(theta, 200_000, rng)
        sigma = linalg.spd_inverse(theta)
        rel = np.linalg.norm(s - sigma) / np.linalg.norm(sigma)
        assert rel <= 0.05

    def test_statistical_sanity_across_entries(self):
        rels = []
        for j in range(200):
            rng = make_rng(child_seed(99, j))
            theta = make_sparse_spd(10, 0.9, 0.1, rng)
            s, _ = sample_covariance(theta, 10_000, rng)
            sigma = linalg.spd_inverse(theta)
            rels.append(np.linalg.norm(s - sigma) / np.linalg.norm(sigma))
        assert float(np.mean(rels)) <= 0.1

    @pytest.mark.parametrize("p", [6, 20, 50, 100])
    def test_draws_match_a_triangular_solve_bitwise(self, p):
        # numpy's general solve on the upper-triangular L' must round like
        # LAPACK's triangular solve, which generated the datasets before
        from scipy.linalg import solve_triangular
        for seed in range(4):
            theta = make_sparse_spd(p, 0.9, 0.1, make_rng(seed))
            n = 3 * p + seed
            s, x = sample_covariance(theta, n, make_rng(seed + 100))
            L = linalg.cholesky(theta)
            z = make_rng(seed + 100).standard_normal((n, p))
            x_ref = solve_triangular(L.T, z.T, lower=False).T
            s_ref = x_ref.T @ x_ref / n
            assert x.tobytes() == x_ref.tobytes()
            assert s.tobytes() == (0.5 * (s_ref + s_ref.T)).tobytes()


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(p=5, n=10, num=1, alpha=1.5)
        with pytest.raises(ValueError):
            GenConfig(p=1, n=10, num=1, alpha=0.5)
        with pytest.raises(ValueError):
            GenConfig(p=5, n=0, num=1, alpha=0.5)
        with pytest.raises(ValueError):
            GenConfig(p=5, n=10, num=1, alpha=0.5, diag_boost=-0.1)
        for boost in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="diag_boost"):
                GenConfig(p=5, n=10, num=1, alpha=0.5, diag_boost=boost)


class TestDataset:
    def test_entries_differ_and_are_reproducible(self):
        cfg = GenConfig(p=6, n=20, num=2, alpha=0.8, seed=7)
        ds1 = build_dataset(cfg)
        ds2 = build_dataset(cfg)
        assert not np.array_equal(ds1.entries[0].theta_true,
                                  ds1.entries[1].theta_true)
        for a, b in zip(ds1.entries, ds2.entries):
            assert a.theta_true.tobytes() == b.theta_true.tobytes()
            assert a.s.tobytes() == b.s.tobytes()

    def test_seed_sensitivity(self):
        a = build_dataset(GenConfig(p=6, n=20, num=1, alpha=0.8, seed=1))
        b = build_dataset(GenConfig(p=6, n=20, num=1, alpha=0.8, seed=2))
        assert not np.array_equal(a.entries[0].theta_true,
                                  b.entries[0].theta_true)

    def test_all_entries_pass_spd_check(self):
        ds = build_dataset(GenConfig(p=20, n=100, num=10, alpha=0.95, seed=0))
        for entry in ds.entries:
            assert is_spd(entry.theta_true)
            assert np.linalg.eigvalsh(entry.s)[0] >= -1e-10

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = GenConfig(p=5, n=12, num=3, alpha=0.7, seed=7, keep_samples=True)
        ds = build_dataset(cfg)
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.config == cfg
        for a, b in zip(ds.entries, back.entries):
            assert a.theta_true.tobytes() == b.theta_true.tobytes()
            assert a.s.tobytes() == b.s.tobytes()
            assert a.samples.tobytes() == b.samples.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3,
                                     keep_samples=True))
        save_dataset(ds, tmp_path / "one")
        save_dataset(load_dataset(tmp_path / "one"), tmp_path / "two")
        names = ["meta.json", "s.npy", "samples.npy", "theta_true.npy"]
        assert sorted(f.name for f in (tmp_path / "one").iterdir()) == names
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_layout_without_samples(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=3, alpha=0.6, seed=3))
        # over a directory that held samples
        save_dataset(build_dataset(replace(ds.config, keep_samples=True)),
                     tmp_path / "ds")
        save_dataset(ds, tmp_path / "ds")
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == \
            ["meta.json", "s.npy", "theta_true.npy"]
        stack = np.load(tmp_path / "ds" / "s.npy")
        assert stack.dtype == np.dtype("<f8") and stack.shape == (3, 4, 4)
        assert stack[2].tobytes() == ds.entries[2].s.tobytes()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_keep_samples_must_be_a_bool(self, tmp_path, value):
        # a non-bool that reads as true would send the loader after a
        # samples.npy that was never written
        save_dataset(build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3)),
                     tmp_path / "ds")
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        (tmp_path / "ds" / "meta.json").write_text(
            json.dumps({**meta, "keep_samples": value}))
        with pytest.raises(ValueError, match="^meta.json: keep_samples must be a bool"):
            load_dataset(tmp_path / "ds")

    def test_bad_format_tag(self, tmp_path):
        # SPODNET-DS-1 stored one blob file per entry; its meta.json holds
        # the gen-data arguments that rebuild the same data
        ds = build_dataset(GenConfig(p=4, n=8, num=1, alpha=0.6, seed=3))
        save_dataset(ds, tmp_path / "ds")
        meta = (tmp_path / "ds" / "meta.json").read_text()
        for tag in ("NOPE", "SPODNET-DS-1"):
            (tmp_path / "ds" / "meta.json").write_text(
                meta.replace(datagen.FORMAT_TAG, tag))
            with pytest.raises(ValueError, match=f"'{tag}'.*regenerate.*gen-data"):
                load_dataset(tmp_path / "ds")

    def test_truncated_entry_rejected(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=1, alpha=0.6, seed=3))
        save_dataset(ds, tmp_path / "ds")
        blob = (tmp_path / "ds" / "s.npy").read_bytes()
        # empty, inside the header's length, inside the header, one value short
        for cut in (0, 8, 100, len(blob) - 8):
            (tmp_path / "ds" / "s.npy").write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="^s\\.npy"):
                load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("kind, bad", [
        ("theta_true", np.ones((2, 4, 4))),
        ("s", np.ones((3, 4, 5))),
        ("samples", np.ones((3, 4, 4))),
        ("s", np.ones((3, 4, 4), dtype=np.float32)),
        ("theta_true", np.ones((3, 4, 4), dtype=">f8")),
    ])
    def test_stack_disagreeing_with_meta_rejected(self, tmp_path, kind, bad):
        ds = build_dataset(GenConfig(p=4, n=8, num=3, alpha=0.6, seed=3,
                                     keep_samples=True))
        save_dataset(ds, tmp_path / "ds")
        np.save(tmp_path / "ds" / f"{kind}.npy", bad)
        with pytest.raises(ValueError, match=f"^{kind}\\.npy"):
            load_dataset(tmp_path / "ds")

    def test_non_finite_entry_rejected(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3))
        ds.entries[1].s[2, 3] = np.nan
        save_dataset(ds, tmp_path / "ds")
        with pytest.raises(ValueError, match="entry 1: S"):
            load_dataset(tmp_path / "ds")

    def test_lowest_non_finite_entry_is_named(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=5, alpha=0.6, seed=3,
                                     keep_samples=True))
        ds.entries[4].theta_true[0, 0] = np.inf
        ds.entries[3].samples[1, 2] = np.nan
        ds.entries[2].s[1, 1] = -np.inf
        save_dataset(ds, tmp_path / "ds")
        with pytest.raises(ValueError, match="entry 2: S has"):
            load_dataset(tmp_path / "ds")
        # within one entry, theta_true is named before S and samples
        ds.entries[2].theta_true[3, 3] = np.nan
        ds.entries[2].samples[0, 0] = np.nan
        save_dataset(ds, tmp_path / "ds")
        with pytest.raises(ValueError, match="entry 2: theta_true has"):
            load_dataset(tmp_path / "ds")

    def test_loaded_entries_are_views_of_writable_stacks(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=3, alpha=0.6, seed=3))
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        first, last = back.entries[0].s, back.entries[-1].s
        assert first.base is not None and first.base is last.base
        assert first.flags.writeable and last.flags.writeable
        # a loaded dataset can be rewritten in place, as the benchmark's
        # shuffle does
        back.entries.reverse()
        save_dataset(back, tmp_path / "ds")
        again = load_dataset(tmp_path / "ds")
        for a, b in zip(again.entries, reversed(ds.entries)):
            assert a.s.tobytes() == b.s.tobytes()
            assert a.theta_true.tobytes() == b.theta_true.tobytes()

    def test_invalid_covariance_rejected(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3))
        for bad, why in ((np.diag([-3.0, 1.0, 1.0, 1.0]), "positive definite"),
                         (np.triu(np.ones((4, 4))), "symmetric")):
            ds.entries[1].s = bad
            save_dataset(ds, tmp_path / "ds")
            with pytest.raises(ValueError, match=f"entry 1: S \\+ I: .*{why}"):
                load_dataset(tmp_path / "ds")

    def test_first_invalid_covariance_is_named(self, tmp_path):
        # stacked factorizations check every S + I; the entry named is the
        # first that fails, whatever the later ones hold
        ds = build_dataset(GenConfig(p=4, n=8, num=45, alpha=0.6, seed=3))
        for first in (1, 41):
            ds.entries[first].s = np.diag([-3.0, 1.0, 1.0, 1.0])
            ds.entries[first + 1].s = np.triu(np.ones((4, 4)))
        ds.entries[1].s = ds.entries[0].s
        save_dataset(ds, tmp_path / "ds")
        with pytest.raises(ValueError, match="entry 2: S \\+ I: .*symmetric"):
            load_dataset(tmp_path / "ds")
        ds.entries[2].s = ds.entries[0].s
        save_dataset(ds, tmp_path / "ds")
        with pytest.raises(ValueError, match="entry 41: S \\+ I: .*positive definite"):
            load_dataset(tmp_path / "ds")

    def test_samples_not_stored_by_default(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=1, alpha=0.6, seed=3))
        assert ds.entries[0].samples is None
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.entries[0].samples is None

    def test_child_seed_split_rule(self):
        assert child_seed(0, 0) != child_seed(0, 1)
        assert child_seed(0, 5) != child_seed(1, 5)
        assert child_seed(123, 7) == child_seed(123, 7)
