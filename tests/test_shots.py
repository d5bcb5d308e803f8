import numpy as np
import pytest

from shotrope import rope
from shotrope.shots import (
    ShotLayout,
    ShotRopeParams,
    effective_time_index,
    tarope,
    tcrope,
)


class TestShotLayout:
    def test_time_offsets_are_cumulative(self):
        layout = ShotLayout((2, 3, 4), 2, 2)
        assert layout.time_offsets == (0, 2, 5)

    def test_token_counts(self):
        layout = ShotLayout((2, 3), 2, 3)
        assert layout.tokens_per_frame == 6
        assert layout.total_tokens == 30
        assert layout.token_spans() == [(0, 12), (12, 30)]

    def test_token_shot_index(self):
        layout = ShotLayout((1, 2), 1, 2)
        assert layout.token_shot_index().tolist() == [0, 0, 1, 1, 1, 1]

    def test_token_positions_without_jump(self):
        layout = ShotLayout((1, 1), 1, 2)
        t, h, w = layout.token_positions(j=0.0)
        assert t.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert h.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert w.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_token_positions_with_jump(self):
        layout = ShotLayout((2, 2, 2), 1, 1)
        t, _, _ = layout.token_positions(j=4.0)
        # global frame index plus 4 extra per crossed boundary
        assert t.tolist() == [0.0, 1.0, 6.0, 7.0, 12.0, 13.0]

    @pytest.mark.parametrize("j", [0.0, 4.0, 2.5])
    def test_token_positions_unequal_shots_match_loop(self, j):
        layout = ShotLayout((1, 3, 2), 2, 3)
        expect = [], [], []
        for s, n in enumerate(layout.frame_counts):
            for tl in range(n):
                for hh in range(layout.height):
                    for ww in range(layout.width):
                        expect[0].append(layout.time_offsets[s] + tl + s * j)
                        expect[1].append(hh)
                        expect[2].append(ww)
        for got, want in zip(layout.token_positions(j=j), expect):
            assert got.dtype == np.float64
            assert np.array_equal(got, np.asarray(want, dtype=np.float64))

    def test_token_shot_index_unequal_shots_match_loop(self):
        layout = ShotLayout((1, 3, 2), 2, 3)
        expect = [s for s, n in enumerate(layout.frame_counts) for _ in range(n * 6)]
        got = layout.token_shot_index()
        assert got.dtype == np.int64
        assert got.tolist() == expect

    def test_rejects_empty_shot(self):
        with pytest.raises(ValueError):
            ShotLayout((2, 0), 2, 2)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ShotLayout((2,), 0, 2)


class TestEffectiveTimeIndex:
    def test_first_shot_matches_local_index(self):
        layout = ShotLayout((3, 3), 2, 2)
        for t in range(3):
            assert effective_time_index(layout, 0, t, j=4.0) == t

    def test_boundary_jump(self):
        layout = ShotLayout((2, 3, 1), 2, 2)
        assert effective_time_index(layout, 1, 0, j=4.0) == 2 + 0 + 4
        assert effective_time_index(layout, 2, 0, j=4.0) == 5 + 0 + 8

    def test_zero_jump_is_global_frame_index(self):
        layout = ShotLayout((2, 2), 1, 1)
        assert effective_time_index(layout, 1, 1, j=0.0) == 3

    def test_out_of_range(self):
        layout = ShotLayout((2, 2), 1, 1)
        with pytest.raises(IndexError):
            effective_time_index(layout, 2, 0, j=1.0)
        with pytest.raises(IndexError):
            effective_time_index(layout, 0, 2, j=1.0)


class TestShotRopeParams:
    def test_defaults(self):
        p = ShotRopeParams()
        assert p.j == 4.0
        assert p.k == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ShotRopeParams(j=-1.0)


class TestTcrope:
    def test_equals_shifted_3d_rotation(self):
        layout = ShotLayout((2, 3), 2, 2)
        params = ShotRopeParams(j=4.0)
        basis = rope.make_basis_3d(12)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(12)
        got = tcrope(v, t_local=1, h=1.0, w=0.0, s=1, layout=layout, params=params, basis3d=basis)
        expect = rope.rope_3d(v, 2 + 1 + 4, 1.0, 0.0, basis)
        assert np.array_equal(got, expect)

    def test_zero_jump_reduces_to_plain_global_time(self):
        layout = ShotLayout((2, 2), 1, 1)
        params = ShotRopeParams(j=0.0)
        basis = rope.make_basis_3d(12)
        v = np.arange(12.0)
        got = tcrope(v, 0, 0.0, 0.0, 1, layout, params, basis)
        assert np.array_equal(got, rope.rope_3d(v, 2.0, 0.0, 0.0, basis))


class TestTarope:
    def test_shot_zero_is_identity(self):
        basis = rope.make_basis_1d(16)
        v = np.arange(16.0)
        assert np.array_equal(tarope(v, 0, ShotRopeParams(), basis), v)

    def test_rotation_position_is_shot_times_k(self):
        basis = rope.make_basis_1d(16)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(16)
        got = tarope(v, 3, ShotRopeParams(k=6.0), basis)
        assert np.array_equal(got, rope.rope_1d(v, 18.0, basis))

    def test_matched_shots_leave_inner_product_unchanged(self):
        basis = rope.make_basis_1d(32)
        params = ShotRopeParams()
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = rng.standard_normal(32)
            k = rng.standard_normal(32)
            s = int(rng.integers(0, 6))
            got = tarope(q, s, params, basis) @ tarope(k, s, params, basis)
            assert abs(got - q @ k) <= 1e-6 * max(1.0, abs(q @ k))

    def test_dim_mismatch_rejected(self):
        from shotrope.tensor import ShapeError

        with pytest.raises(ShapeError):
            tarope(np.zeros(8), 1, ShotRopeParams(), rope.make_basis_1d(16))
