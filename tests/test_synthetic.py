
import pickle

import numpy as np
import pytest

from shotrope import synthetic as S
from shotrope.shots import ShotLayout
from shotrope.tensor import ConfigError


@pytest.fixture(scope="module")
def world():
    return S.SyntheticWorld(seed=11)


@pytest.fixture(scope="module")
def clean_world():
    return S.SyntheticWorld(seed=11, sigma=0.0)


class TestWorldConstruction:
    def test_identity_pool_is_unit_norm(self, world):
        norms = np.linalg.norm(world.ids, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_vocabularies_are_orthonormal(self, world):
        for vocab in (world.scene_vecs, world.motion_vecs):
            gram = vocab.astype(np.float64) @ vocab.astype(np.float64).T
            assert np.allclose(gram, np.eye(len(vocab)), atol=1e-5)

    def test_render_map_full_rank(self, world):
        assert np.linalg.matrix_rank(world.render_map) == world.d_factor

    def test_config_roundtrip(self, world):
        clone = S.SyntheticWorld.from_config(world.config())
        assert np.array_equal(clone.render_map, world.render_map)
        assert np.array_equal(clone.ids, world.ids)

    def test_config_needs_a_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            S.SyntheticWorld.from_config({"n_ids": 8})

    def test_config_types_each_key_by_its_annotation(self):
        with pytest.raises(ConfigError, match="sigma"):
            S.SyntheticWorld.from_config({"seed": 1, "sigma": "0.1"})
        with pytest.raises(ConfigError, match="n_ids"):
            S.SyntheticWorld.from_config({"seed": 1, "n_ids": 8.0})
        assert S.SyntheticWorld.from_config({"seed": 1, "sigma": 0}).sigma == 0.0

    def test_pickle_roundtrip(self, world):
        """`ablate` hands the world to its worker processes by pickle."""
        clone = pickle.loads(pickle.dumps(world))
        assert clone.config() == world.config()
        for name in ("ids", "scene_vecs", "motion_vecs", "render_map", "render_pinv"):
            assert np.array_equal(getattr(clone, name), getattr(world, name))

    def test_same_seed_same_world(self):
        a = S.SyntheticWorld(seed=5)
        b = S.SyntheticWorld(seed=5)
        assert np.array_equal(a.render_map, b.render_map)

    def test_different_seed_different_world(self):
        a = S.SyntheticWorld(seed=5)
        b = S.SyntheticWorld(seed=6)
        assert not np.array_equal(a.render_map, b.render_map)


class TestRenderDecodeOracle:
    def test_clean_tokens_decode_exactly(self, clean_world):
        layout = ShotLayout((2, 3), 4, 4)
        tokens = S.render_sample(clean_world, 7, (1, 4), (0, 2), layout, noise_seed=0)
        ids = S.decode_identity(tokens, clean_world, layout)
        for s in range(2):
            assert np.max(np.abs(ids[s] - clean_world.ids[7])) <= 1e-5
        assert S.decode_scene(tokens, clean_world, layout).tolist() == [1, 4]
        assert S.decode_motion(tokens, clean_world, layout).tolist() == [0, 2]

    def test_noisy_tokens_decode_to_correct_vocab_entries(self, world):
        layout = ShotLayout((3, 3, 2), 4, 4)
        tokens = S.render_sample(world, 100, (0, 5, 2), (3, 1, 0), layout, noise_seed=9)
        assert S.decode_scene(tokens, world, layout).tolist() == [0, 5, 2]
        assert S.decode_motion(tokens, world, layout).tolist() == [3, 1, 0]

    def test_frame_level_scene_decode_marks_boundaries(self, world):
        layout = ShotLayout((2, 3), 4, 4)
        tokens = S.render_sample(world, 3, (2, 6), (1, 1), layout, noise_seed=4)
        frames = S.decode_scene_frames(tokens, world, layout)
        assert frames.tolist() == [2, 2, 6, 6, 6]

    def test_identity_shared_across_shots(self, world):
        layout = ShotLayout((2, 2, 2), 4, 4)
        tokens = S.render_sample(world, 42, (0, 1, 2), (0, 0, 0), layout, noise_seed=1)
        ids = S.decode_identity(tokens, world, layout)
        norm = ids / np.linalg.norm(ids, axis=1, keepdims=True)
        sims = norm @ norm.T
        assert np.min(sims) >= 0.99

    def test_render_determinism(self, world):
        layout = ShotLayout((2,), 4, 4)
        a = S.render_sample(world, 0, (0,), (0,), layout, noise_seed=77)
        b = S.render_sample(world, 0, (0,), (0,), layout, noise_seed=77)
        assert np.array_equal(a, b)

    def test_bad_identity_index(self, world):
        layout = ShotLayout((2,), 4, 4)
        with pytest.raises(IndexError):
            S.render_sample(world, world.n_ids, (0,), (0,), layout, noise_seed=0)

    def test_bad_per_shot_lists(self, world):
        layout = ShotLayout((2, 2), 4, 4)
        with pytest.raises(ConfigError):
            S.render_sample(world, 0, (0,), (0, 1), layout, noise_seed=0)


class TestCaptionBundle:
    def test_accepts_any_order_covering_all_shots(self):
        bundle = S.CaptionBundle(
            [
                S.CaptionEntry(shot=1, scene_id=0, motion_id=0),
                S.CaptionEntry(shot=0, scene_id=1, motion_id=1),
            ]
        )
        assert [e.shot for e in bundle.by_shot()] == [0, 1]

    def test_rejects_gap(self):
        with pytest.raises(ConfigError):
            S.CaptionBundle(
                [
                    S.CaptionEntry(shot=0, scene_id=0, motion_id=0),
                    S.CaptionEntry(shot=2, scene_id=0, motion_id=0),
                ]
            )

    def test_rejects_duplicate(self):
        with pytest.raises(ConfigError):
            S.CaptionBundle(
                [
                    S.CaptionEntry(shot=0, scene_id=0, motion_id=0),
                    S.CaptionEntry(shot=0, scene_id=1, motion_id=0),
                ]
            )


class TestBatchSampling:
    def test_batch_determinism(self, world):
        a = S.make_batch(world, 4, seed=9)
        b = S.make_batch(world, 4, seed=9)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.tokens, s2.tokens)
            assert s1.layout.frame_counts == s2.layout.frame_counts

    def test_batch_respects_ranges(self, world):
        for sample in S.make_batch(world, 32, shot_count_range=(2, 3), shot_len_range=(4, 5), seed=1):
            assert 2 <= sample.layout.shot_count <= 3
            assert all(4 <= n <= 5 for n in sample.layout.frame_counts)

    def test_single_shot_fraction_near_one_third(self):
        rng = np.random.default_rng(0)
        counts = [S.sample_shot_count(rng, 1, 4) for _ in range(20000)]
        singles = np.mean(np.array(counts) == 1)
        assert abs(singles - 1 / 3) <= 0.02
        multi = np.array([c for c in counts if c > 1])
        for v in (2, 3, 4):
            assert abs(np.mean(multi == v) - 1 / 3) <= 0.03

    def test_empty_range_rejected(self, world):
        with pytest.raises(ConfigError):
            S.make_batch(world, 1, shot_count_range=(3, 2))

    def test_captions_match_sample_fields(self, world):
        for sample in S.make_batch(world, 8, seed=3):
            for e in sample.captions.by_shot():
                assert e.scene_id == sample.scene_ids[e.shot]
                assert e.motion_id == sample.motion_ids[e.shot]
