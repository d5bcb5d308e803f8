import csv

import mpmath
import numpy as np
import pytest

from shotrope import analysis, rope
from shotrope.shots import ShotRopeParams
from shotrope.tensor import ConfigError, ShapeError


class TestPartialSumMagnitudes:
    @pytest.mark.parametrize("d", [4, 16, 128])
    def test_value_at_zero_is_triangular_number(self, d):
        half = d // 2
        assert analysis.partial_sum_magnitudes(d, 0.0) == half * (half + 1) / 2

    def test_d2_closed_form(self):
        # single pair: f(x) = |e^{ix}| = 1 for every x
        for x in (0.0, 0.5, 3.0, 40.0):
            assert abs(analysis.partial_sum_magnitudes(2, x) - 1.0) <= 1e-12

    def test_d4_against_direct_complex_oracle(self):
        basis = rope.make_basis_1d(4)
        for x in (0.0, 1.0, 7.5, 30.0):
            s1 = np.exp(1j * x * basis.angles[0])
            s2 = s1 + np.exp(1j * x * basis.angles[1])
            expect = abs(s1) + abs(s2)
            assert abs(analysis.partial_sum_magnitudes(4, x) - expect) <= 1e-12

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            analysis.partial_sum_magnitudes(5, 1.0)


class TestDeltaCurve:
    def test_normalized_start_is_one(self):
        curve = analysis.delta_curve(128, np.linspace(0.0, 50.0, 101))
        assert curve.delta[0] == 1.0

    def test_strictly_below_one_away_from_zero(self):
        curve = analysis.delta_curve(128, np.linspace(0.0, 50.0, 101))
        assert np.all(curve.delta[1:] < 1.0)

    def test_decreasing_on_shot_separation_grid(self):
        # the operational arguments x = k * shot-distance, k = 6
        curve = analysis.delta_curve(128, np.array([0.0, 6.0, 12.0, 18.0, 24.0]))
        assert np.all(np.diff(curve.delta) < 0)

    def test_matches_extended_precision_oracle(self):
        # delta(x) = sum_j |S_j(x)| / f(0) evaluated at 30 digits
        d = 128
        xs = np.arange(0.0, 50.5, 0.5)
        curve = analysis.delta_curve(d, xs)
        with mpmath.workdps(30):
            thetas = [mpmath.power(10000, mpmath.mpf(-2 * i) / d) for i in range(d // 2)]

            def f(x):
                partial = mpmath.mpc(0)
                total = mpmath.mpf(0)
                for theta in thetas:
                    partial += mpmath.expj(x * theta)
                    total += abs(partial)
                return total

            f0 = f(mpmath.mpf(0))
            expect = np.array([float(f(mpmath.mpf(float(x))) / f0) for x in xs])
        assert np.max(np.abs(curve.delta - expect)) <= 1e-12

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            analysis.delta_curve(128, [])
        with pytest.raises(ConfigError):
            analysis.delta_curve(128, [1.0, 2.0])
        with pytest.raises(ConfigError):
            analysis.delta_curve(128, [0.0, 2.0, 1.0])


class TestPairProducts:
    def test_hand_example(self):
        # q = (1, 2), k = (3, -4): (1+2i) * conj(3-4i) = (1+2i)(3+4i) = -5 + 10i
        got = analysis.pair_products([1.0, 2.0], [3.0, -4.0])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(-5 + 10j)

    def test_real_part_sums_to_dot_product(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        assert np.real(analysis.pair_products(q, k).sum()) == pytest.approx(q @ k)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            analysis.pair_products(np.zeros(4), np.zeros(6))


class TestSuppressedLogit:
    def test_matches_rotary_inner_product_oracle(self):
        rng = np.random.default_rng(1)
        params = ShotRopeParams(k=6.0)
        basis = rope.make_basis_1d(32)
        from shotrope.shots import tarope

        for _ in range(100):
            q = rng.standard_normal(32)
            k = rng.standard_normal(32)
            s1, s2 = (int(x) for x in rng.integers(0, 5, 2))
            got = analysis.suppressed_logit(q, k, s1, s2, params, basis)
            oracle = tarope(q, s1, params, basis) @ tarope(k, s2, params, basis)
            assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_same_shot_is_plain_dot_product(self):
        rng = np.random.default_rng(2)
        basis = rope.make_basis_1d(16)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        got = analysis.suppressed_logit(q, k, 3, 3, ShotRopeParams(), basis)
        assert abs(got - q @ k) <= 1e-12


class TestLogitBoundCheck:
    @pytest.mark.parametrize("d", [16, 64, 128])
    def test_bound_holds_on_random_pairs(self, d):
        rng = np.random.default_rng(3)
        basis = rope.make_basis_1d(d)
        params = ShotRopeParams(k=6.0)
        for _ in range(200):
            q = rng.standard_normal(d)
            k = rng.standard_normal(d)
            s1, s2 = (int(x) for x in rng.integers(0, 5, 2))
            assert analysis.logit_bound_check(q, k, s1, s2, params, basis) >= -1e-6

    def test_matched_shot_bound_uses_f_at_zero(self):
        # at s1 == s2 the bound is max|dh| * f(0); check it dominates |q.k|
        rng = np.random.default_rng(4)
        basis = rope.make_basis_1d(16)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        assert analysis.logit_bound_check(q, k, 2, 2, ShotRopeParams(), basis) >= 0.0


class TestShotBlockMatrix:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((8, 8))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        shots = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        mat = analysis.shot_block_matrix(probs, shots, shots, 3)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_hand_example(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]])
        q_shots = np.array([0, 1])
        k_shots = np.array([0, 1, 1])
        mat = analysis.shot_block_matrix(probs, q_shots, k_shots, 2)
        assert np.allclose(mat, [[0.5, 0.5], [0.1, 0.9]])

    def test_rectangular_cross_attention_blocks(self):
        probs = np.full((4, 2), 0.5)
        q_shots = np.array([0, 0, 1, 1])
        k_shots = np.array([0, 1])
        mat = analysis.shot_block_matrix(probs, q_shots, k_shots, 2)
        assert np.allclose(mat, 0.5)


class TestCsvWriters:
    def test_curve_roundtrip(self, tmp_path):
        curve = analysis.delta_curve(4, np.linspace(0.0, 10.0, 11))
        path = tmp_path / "curve.csv"
        analysis.write_curve_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "f", "delta"]
        xs = np.array([float(r[0]) for r in rows[1:]])
        deltas = np.array([float(r[2]) for r in rows[1:]])
        assert np.array_equal(xs, curve.xs)
        assert np.array_equal(deltas, curve.delta)


class TestMonteCarloDecay:
    def test_mean_logit_magnitude_decays_with_shot_distance(self):
        # matched-content pairs (k = q): the regime the suppression is
        # designed for; isotropic independent pairs are rotation-invariant
        # and show no decay by symmetry
        d = 128
        basis = rope.make_basis_1d(d)
        rng = np.random.default_rng(6)
        q = rng.standard_normal((10000, d))
        qc = q[:, 0::2] + 1j * q[:, 1::2]
        h = qc * np.conj(qc)
        means = []
        for ds in range(5):
            logit = np.real(h @ np.exp(1j * 6.0 * ds * basis.angles))
            means.append(np.abs(logit).mean())
        assert np.all(np.diff(means) <= 0)


def test_heatmaps_under_reference_attention_are_finite_and_isolate_shot0():
    from shotrope import model as M
    from shotrope import synthetic as S

    world = S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)
    cfg = M.DenoiserConfig(
        d_model=24, blocks=2, heads=2, ffn_mult=2, d_token=32, d_id=8, v_scene=4, v_mot=2,
        variant="full+refattn",
    )
    params = M.init_params(cfg, seed=0)
    batch = S.make_batch(world, 2, shot_count_range=(3, 3), shot_len_range=(1, 2), seed=3)
    self_mat, cross_mat = analysis.attention_heatmaps(params, cfg, batch, tau=0.5)
    assert self_mat.shape == cross_mat.shape == (3, 3)
    assert np.isfinite(self_mat).all() and np.isfinite(cross_mat).all()
    for mat in (self_mat, cross_mat):
        assert abs(mat[0, 0] - 1.0) <= 1e-6
        assert not mat[0, 1:].any()
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-6)


def test_heatmaps_reject_a_batch_of_mixed_shot_counts(monkeypatch):
    """Shot-block matrices of different sizes cannot be averaged: a batch of a
    4-shot and a 3-shot sample is a ShapeError that names both counts, raised
    before any forward runs."""
    from shotrope import model as M
    from shotrope import synthetic as S

    world = S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)
    cfg = M.DenoiserConfig(d_model=24, blocks=1, heads=2, ffn_mult=2, d_token=32, d_id=8,
                           v_scene=4, v_mot=2)
    params = M.init_params(cfg, seed=0)
    batch = S.make_batch(world, 2, seed=4)
    assert [s.layout.shot_count for s in batch] == [4, 3]
    calls = []
    monkeypatch.setattr(M, "denoiser_forward", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ShapeError, match=r"\[3, 4\] shots"):
        analysis.attention_heatmaps(params, cfg, batch)
    assert calls == []


def test_heatmaps_reject_an_empty_batch(monkeypatch):
    """An empty batch has nothing to average: a ShapeError raised before any
    forward runs, not a NaN mean."""
    from shotrope import model as M

    cfg = M.DenoiserConfig(d_model=24, blocks=1, heads=2, ffn_mult=2, d_token=32, d_id=8,
                           v_scene=4, v_mot=2)
    params = M.init_params(cfg, seed=0)
    calls = []
    monkeypatch.setattr(M, "denoiser_forward", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ShapeError, match="empty batch"):
        analysis.attention_heatmaps(params, cfg, [])
    assert calls == []
