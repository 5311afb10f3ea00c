"""Ground-truth generation, Gaussian sampling, dataset persistence."""

import numpy as np
import pytest

from spodnet import datagen, linalg
from spodnet.datagen import (Dataset, GenConfig, build_dataset, child_seed,
                             load_dataset, make_rng, make_sparse_spd,
                             sample_covariance, save_dataset)


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
            assert linalg.is_spd(theta)

    def test_zero_pattern_is_symmetric(self):
        theta = make_sparse_spd(40, 0.9, 0.1, make_rng(3))
        assert np.array_equal(theta == 0.0, theta.T == 0.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            make_sparse_spd(5, 1.5, 0.1, make_rng(0))


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
            assert linalg.is_spd(entry.theta_true)
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
        ds = build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3))
        save_dataset(ds, tmp_path / "one")
        save_dataset(load_dataset(tmp_path / "one"), tmp_path / "two")
        for name in ("meta.json", "entry-00000.bin", "entry-00001.bin"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_bad_format_tag(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=1, alpha=0.6, seed=3))
        save_dataset(ds, tmp_path / "ds")
        meta = (tmp_path / "ds" / "meta.json").read_text()
        (tmp_path / "ds" / "meta.json").write_text(
            meta.replace("SPODNET-DS-1", "NOPE"))
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "ds")

    def test_truncated_entry_rejected(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=1, alpha=0.6, seed=3))
        save_dataset(ds, tmp_path / "ds")
        blob = (tmp_path / "ds" / "entry-00000.bin").read_bytes()
        (tmp_path / "ds" / "entry-00000.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "ds")

    def test_non_finite_entry_rejected(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3))
        ds.entries[1].s[2, 3] = np.nan
        save_dataset(ds, tmp_path / "ds")
        with pytest.raises(ValueError, match="entry 1: S"):
            load_dataset(tmp_path / "ds")

    def test_invalid_covariance_rejected(self, tmp_path):
        ds = build_dataset(GenConfig(p=4, n=8, num=2, alpha=0.6, seed=3))
        for bad, why in ((np.diag([-3.0, 1.0, 1.0, 1.0]), "positive definite"),
                         (np.triu(np.ones((4, 4))), "symmetric")):
            ds.entries[1].s = bad
            save_dataset(ds, tmp_path / "ds")
            with pytest.raises(ValueError, match=f"entry 1: S \\+ I: .*{why}"):
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
