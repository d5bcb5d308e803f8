import math

import mpmath
import numpy as np
import pytest

from shotrope import rope
from shotrope import tensor as T
from shotrope.tensor import ShapeError, Tensor


class TestBasis1D:
    def test_d4_angles(self):
        basis = rope.RotaryBasis(4)
        assert np.allclose(basis.angles, [1.0, 0.01])

    def test_d2_single_pair(self):
        assert np.allclose(rope.RotaryBasis(2).angles, [1.0])

    def test_first_angle_exactly_one(self):
        assert rope.RotaryBasis(128).angles[0] == 1.0

    def test_strictly_decreasing(self):
        a = rope.RotaryBasis(128).angles
        assert np.all(np.diff(a) < 0)

    def test_d128_last_angle_high_precision(self):
        # extended-precision oracle for 10000^(-126/128)
        expect = float(mpmath.power(mpmath.mpf(10000), mpmath.mpf(-126) / 128))
        got = rope.RotaryBasis(128).angles[-1]
        assert abs(got - expect) <= 1e-15

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            rope.RotaryBasis(5)


class TestRope1D:
    def test_zero_position_is_identity(self):
        v = np.arange(8.0)
        assert np.array_equal(rope.rope_1d(v, 0.0, rope.RotaryBasis(8)), v)

    def test_quarter_turn(self):
        out = rope.rope_1d(np.array([1.0, 0.0]), np.pi / 2, rope.RotaryBasis(2))
        assert np.allclose(out, [0.0, 1.0], atol=1e-6)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        basis = rope.RotaryBasis(32)
        v = rng.standard_normal(32)
        out = rope.rope_1d(v, 7.0, basis)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-6 * np.linalg.norm(v)

    def test_norm_preservation_property(self):
        rng = np.random.default_rng(1)
        basis = rope.RotaryBasis(64)
        for _ in range(1000):
            v = rng.standard_normal(64)
            m = rng.uniform(-512, 512)
            out = rope.rope_1d(v, m, basis)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-6 * np.linalg.norm(v)

    def test_relative_position_identity(self):
        rng = np.random.default_rng(2)
        basis = rope.RotaryBasis(64)
        for _ in range(1000):
            q = rng.standard_normal(64)
            k = rng.standard_normal(64)
            m, n = rng.uniform(-512, 512, 2)
            lhs = rope.rope_1d(q, m, basis) @ rope.rope_1d(k, n, basis)
            rhs = q @ rope.rope_1d(k, n - m, basis)
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))

    def test_composition(self):
        rng = np.random.default_rng(3)
        basis = rope.RotaryBasis(64)
        for _ in range(1000):
            v = rng.standard_normal(64)
            a, b = rng.uniform(-256, 256, 2)
            lhs = rope.rope_1d(rope.rope_1d(v, a, basis), b, basis)
            rhs = rope.rope_1d(v, a + b, basis)
            assert np.max(np.abs(lhs - rhs)) <= 1e-5

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            rope.rope_1d(np.zeros(6), 1.0, rope.RotaryBasis(8))


class TestBasis3D:
    def test_relaxed_mode_leaves_remainder_unrotated(self):
        """A dim that is not a multiple of 6 leaves its trailing pairs unrotated."""
        basis = rope.RotaryBasis(32)
        cos, sin = rope.phase_tables_3d(basis, 9.0, 5.0, 2.0)
        assert cos.shape == sin.shape == (1, 16)
        unrotated = (cos[0] == 1.0) & (sin[0] == 0.0)
        assert np.flatnonzero(unrotated).tolist() == [15]  # one unrotated pair
        v = np.zeros(32)
        v[-2:] = [3.0, 4.0]
        out = rope.rope_3d(v, 9.0, 5.0, 2.0, basis)
        assert np.array_equal(out[-2:], [3.0, 4.0])

    def test_cyclic_axis_pattern(self):
        basis = rope.RotaryBasis(12)
        for axis in range(3):
            pos = [0.0, 0.0, 0.0]
            pos[axis] = 1.0
            cos, sin = rope.phase_tables_3d(basis, *pos)
            assert np.flatnonzero(sin[0]).tolist() == [axis, axis + 3]
            assert np.allclose(sin[0, [axis, axis + 3]], np.sin(basis.angles[:2]))
            assert np.allclose(cos[0, [axis, axis + 3]], np.cos(basis.angles[:2]))


class TestOneBasis:
    """The 3D tables read the (t, h, w) map off the one basis's angles."""

    @pytest.mark.parametrize("d", [12, 24, 32])
    def test_phase_tables_3d_closed_form(self, d):
        base = 10000.0
        rng = np.random.default_rng(10)
        positions = rng.uniform(-16, 16, (7, 3))
        cos, sin = rope.phase_tables_3d(rope.RotaryBasis(d, base), *positions.T)
        assert cos.shape == sin.shape == (7, d // 2)
        for row, pos in enumerate(positions):
            for p in range(d // 2):
                if p < 3 * (d // 6):
                    ang = pos[p % 3] * base ** (-2 * (p // 3) / d)
                    assert abs(cos[row, p] - math.cos(ang)) <= 1e-12
                    assert abs(sin[row, p] - math.sin(ang)) <= 1e-12
                else:
                    assert (cos[row, p], sin[row, p]) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "dim,base,error",
        [(5, 10000.0, ShapeError), (0, 10000.0, ShapeError), (-2, 10000.0, ShapeError),
         (8, 1.0, ValueError), (8, 0.5, ValueError)],
    )
    def test_bad_basis_rejected_for_1d_and_3d_tables(self, dim, base, error):
        with pytest.raises(error):
            rope.phase_tables_1d(rope.RotaryBasis(dim, base), 1.0)
        with pytest.raises(error):
            rope.phase_tables_3d(rope.RotaryBasis(dim, base), 1.0, 1.0, 1.0)


class TestRope3D:
    def test_origin_is_identity(self):
        basis = rope.RotaryBasis(12)
        v = np.arange(12.0)
        assert np.array_equal(rope.rope_3d(v, 0, 0, 0, basis), v)

    def test_time_axis_separability(self):
        basis = rope.RotaryBasis(12)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(12)
        out = rope.rope_3d(v, 5.0, 0.0, 0.0, basis)
        # only t-assigned pairs move; each rotates as 1D at angle t*theta_i
        for p in range(6):
            pair = v[2 * p : 2 * p + 2]
            got = out[2 * p : 2 * p + 2]
            if p % 3 == 0:
                ang = 5.0 * basis.angles[p // 3]
                c, s = np.cos(ang), np.sin(ang)
                expect = [pair[0] * c - pair[1] * s, pair[0] * s + pair[1] * c]
                assert np.allclose(got, expect, atol=1e-12)
            else:
                assert np.array_equal(got, pair)

    def test_norm_preserved_property(self):
        basis = rope.RotaryBasis(24)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v = rng.standard_normal(24)
            t, h, w = rng.uniform(-64, 64, 3)
            out = rope.rope_3d(v, t, h, w, basis)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-6 * np.linalg.norm(v)

    def test_relative_position_identity(self):
        basis = rope.RotaryBasis(24)
        rng = np.random.default_rng(6)
        for _ in range(500):
            q = rng.standard_normal(24)
            k = rng.standard_normal(24)
            t1, h1, w1, t2, h2, w2 = rng.uniform(-32, 32, 6)
            lhs = rope.rope_3d(q, t1, h1, w1, basis) @ rope.rope_3d(k, t2, h2, w2, basis)
            rhs = q @ rope.rope_3d(k, t2 - t1, h2 - h1, w2 - w1, basis)
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ShapeError):
            rope.rope_3d(np.zeros(10), 0, 0, 0, rope.RotaryBasis(12))


class TestOneKernel:
    """The scalar oracles and the model's rope_pairs rotate with one kernel."""

    @staticmethod
    def _model_rotation(v, cos, sin):
        cos, sin = (np.repeat(tab, 2, axis=1) for tab in (cos, sin))
        return T.rope_pairs(Tensor(v[None, :]), cos, sin).data[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rope_1d_equals_rope_pairs(self, dtype):
        rng = np.random.default_rng(8)
        basis = rope.RotaryBasis(32)
        for _ in range(100):
            v = rng.standard_normal(32).astype(dtype)
            m = rng.uniform(-64, 64)
            expect = self._model_rotation(v, *rope.phase_tables_1d(basis, m))
            assert np.array_equal(rope.rope_1d(v, m, basis), expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim,multiple_of_six", [(24, True), (32, False)])
    def test_rope_3d_equals_rope_pairs(self, dtype, dim, multiple_of_six):
        rng = np.random.default_rng(9)
        basis = rope.RotaryBasis(dim)
        _, sin = rope.phase_tables_3d(basis, 1.0, 1.0, 1.0)
        assert np.all(sin != 0) == multiple_of_six  # 32: an unrotated tail
        for _ in range(100):
            v = rng.standard_normal(dim).astype(dtype)
            t, h, w = rng.uniform(-16, 16, 3)
            expect = self._model_rotation(v, *rope.phase_tables_3d(basis, t, h, w))
            assert np.array_equal(rope.rope_3d(v, t, h, w, basis), expect)
