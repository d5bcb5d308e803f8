import csv
import dataclasses
import json
import os
import re
import shlex
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from shotrope import analysis, cli, engine, model as M, synthetic as S
from shotrope.checkpoint import load_tensors, save_tensors
from shotrope.engine import ShotPrompt
from shotrope.tensor import ConfigError, seeded_rng


SMALL_CONFIG = {
    "model": {"d_model": 24, "blocks": 1, "heads": 2, "ffn_mult": 2, "d_token": 32, "d_id": 8},
    "train": {
        "steps": 5,
        "batch_size": 1,
        "seed": 3,
        "shot_count_range": [2, 2],
        "shot_len_range": [2, 2],
    },
    "world": {
        "seed": 9,
        "d_token": 32,
        "d_id": 8,
        "v_scene": 4,
        "v_mot": 2,
        "height": 2,
        "width": 2,
    },
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


class TestShotSpecGrammar:
    def test_single_segment(self):
        spec = cli.parse_shot_spec("n=4,scene=3,motion=1")
        assert spec == [ShotPrompt(frames=4, scene=3, motion=1)]

    def test_multiple_segments_default_motion(self):
        spec = cli.parse_shot_spec("n=4,scene=3;n=6,scene=7")
        assert spec == [ShotPrompt(4, 3, 0), ShotPrompt(6, 7, 0)]

    @pytest.mark.parametrize(
        "bad",
        [
            "", "n=4", "scene=3", "n=0,scene=1", "n=two,scene=1", "n=4,scene=1,extra=2",
            "n=4,scene=1;;", "n=2,n=5,scene=1", "scene=1,scene=3", "n=2,scene=1,scene=3",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            cli.parse_shot_spec(bad)


class TestRunConfig:
    def test_loads_sections(self, config_path):
        model_cfg, train_cfg, world = cli.load_run_config(config_path)
        assert model_cfg.d_model == 24
        assert train_cfg.steps == 5
        assert world.seed == 9

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.load_run_config("/nonexistent/run.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_run_config(str(path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\x80" + json.dumps(SMALL_CONFIG).encode())
        with pytest.raises(ConfigError):
            cli.load_run_config(str(path))

    def test_unknown_section(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["extra"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            cli.load_run_config(str(path))

    def test_seed_must_be_explicit(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        del cfg["train"]["seed"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            cli.load_run_config(str(path))

    def test_unknown_world_key(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["world"]["mystery"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            cli.load_run_config(str(path))


def _with(section, key, value):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg[section][key] = value
    return cfg


class TestConfigTypes:
    """A run config value of the wrong type is a usage error, not a traceback."""

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", "heads", "4"),
            ("world", "height", "x"),
            ("train", "shot_len_range", [2, "a"]),
            ("train", "pmt2v", 1),
        ],
        ids=["model-heads-str", "world-height-str", "train-range-item-str", "train-flag-int"],
    )
    def test_train_exits_with_usage_error(self, tmp_path, section, key, value, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with(section, key, value)))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert f"{key!r}" in capsys.readouterr().err

    def test_int_loads_into_float_field_unchanged(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with("model", "j", 4)))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        sidecar = json.loads((out / "checkpoint.ecsh.json").read_text())
        assert sidecar["model"]["j"] == 4
        assert sidecar["train"]["shot_len_range"] == [2, 2]


class TestConfigRanges:
    """A run config value of the right type but out of range is a usage
    error, raised when the config is built, not a traceback."""

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", "heads", 0),
            ("model", "j", -1),
            ("model", "d_model", -8),
            ("model", "caption_dropout", 1.5),
            ("train", "shot_len_range", [0, 2]),
            ("train", "shot_len_range", [1, 2, 3]),
            ("train", "beta1", 1.0),
            ("world", "height", 0),
            ("model", "j", float("nan")),
            ("world", "sigma", float("nan")),
            ("model", "rope_base", float("inf")),
            ("train", "adam_eps", 0),
            ("train", "weight_decay", -1),
            ("train", "id_dropout", 5),
            ("world", "sigma", -1),
        ],
        ids=[
            "model-heads-0", "model-j-neg", "model-d_model-neg", "model-dropout-above-1",
            "train-range-lo-0", "train-range-3-items", "train-beta1-1", "world-height-0",
            "model-j-nan", "world-sigma-nan", "model-rope_base-inf", "train-adam_eps-0",
            "train-weight_decay-neg", "train-id_dropout-above-1", "world-sigma-neg",
        ],
    )
    def test_train_exits_with_usage_error(self, tmp_path, section, key, value, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with(section, key, value)))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value", [("d_token", 16), ("d_id", 4), ("v_scene", 2), ("v_mot", 1)]
    )
    def test_model_must_fit_the_world(self, tmp_path, key, value, capsys):
        """The model reads the world's tokens and identity vectors and embeds
        every scene and motion id the world can caption."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with("model", key, value)))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("5")
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert "mapping" in capsys.readouterr().err


# every key each section accepts, so that a mutation can reach each one
_FIELDS = [
    (section, key)
    for section, keys in (
        ("model", M.DenoiserConfig().to_dict()),
        ("train", engine.TrainConfig().to_dict()),
        ("world", [f.name for f in dataclasses.fields(S.SyntheticWorld)]),
    )
    for key in sorted(keys)
]
# out-of-range numbers, wrongly typed values and malformed ranges; none is
# large, so that a config that still trains stays tiny
_BAD_VALUES = [
    0, -1, -8, 0.0, -0.5, 1.0, 1.5, 2.5, "4", None, True, [0, 2], [1, 2, 3], [3, 1], [], {},
    float("nan"), float("inf"), float("-inf"),
]
_NON_OBJECTS = [5, "x", None, [], [{}]]
_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_FIELDS), st.sampled_from(_BAD_VALUES)),
    st.tuples(st.sampled_from(["drop", "extra"]), st.sampled_from(_FIELDS), st.none()),
    st.tuples(st.just("section"), st.sampled_from(_FIELDS), st.sampled_from(_NON_OBJECTS)),
    st.tuples(
        st.sampled_from(["drop-section", "extra-section"]), st.sampled_from(_FIELDS), st.none()
    ),
    st.tuples(st.just("top"), st.none(), st.sampled_from(_NON_OBJECTS)),
)


def _mutated(mutations):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["train"]["steps"] = 1
    for kind, field, value in mutations:
        if kind == "top":
            return value
        section, key = field
        if kind == "section":
            cfg[section] = value
        elif kind == "drop-section":
            cfg.pop(section, None)
        elif kind == "extra-section":
            cfg["extra"] = {}
        elif isinstance(cfg.get(section), dict):
            if kind == "drop":
                cfg[section].pop(key, None)
            elif kind == "extra":
                cfg[section]["mystery"] = 1
            else:
                cfg[section][key] = value
    return cfg


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
@example(mutations=[("set", ("train", "train_timesteps"), 2**63)])
@example(mutations=[("set", ("train", "batch_size"), 10**9)])
def test_mutated_run_config_trains_or_exits_2(tmp_path, mutations):
    """Whatever is wrong with a run config, `train` exits 0 or 2 and never raises."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_mutated(mutations)))
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG)


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", "/nope.json", "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bad_shot_spec_is_usage_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", config_path, "--out", str(out)])
        assert rc == cli.EXIT_OK
        rc = cli.main(
            [
                "sample",
                "--ckpt", str(out / "checkpoint.ecsh"),
                "--shots", "n=0,scene=1",
                "--out", str(tmp_path / "samples"),
            ]
        )
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("case", ["train-config", "ablate-config", "sample-ckpt",
                                      "sample-sidecar"])
    def test_a_directory_for_an_input_file_is_usage_error(self, tmp_path, refattn_ckpt, case,
                                                          capsys):
        """A directory where a config, checkpoint or sidecar file is expected
        exits 2, not with a traceback, and leaves no --out."""
        folder = tmp_path / "folder"
        folder.mkdir()
        ckpt = tmp_path / "x.ecsh"
        shutil.copy(refattn_ckpt, ckpt)
        (tmp_path / "x.ecsh.json").mkdir()
        args = {
            "train-config": ["train", "--config", str(folder)],
            "ablate-config": ["ablate", "--config", str(folder)],
            "sample-ckpt": ["sample", "--ckpt", str(folder), "--shots", "n=2,scene=0"],
            "sample-sidecar": ["sample", "--ckpt", str(ckpt), "--shots", "n=2,scene=0"],
        }[case]
        out = tmp_path / "out"
        rc = cli.main(args + ["--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "Is a directory" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, rc", [
    (["curve", "--dim", "8", "--xmax", "1"], cli.EXIT_OK),
    (["curve", "--dim", "8", "--xmax", "1", "--k", "nan"], cli.EXIT_CONFIG),
], ids=["ok", "usage-error"])
def test_a_command_runs_on_one_blas_thread(tmp_path, monkeypatch, argv, rc):
    """Inside a command BLAS runs one thread, and main gives the caller its
    own count back when it returns, whatever the exit code."""
    threads = engine.blas_threads()
    if engine.blas_threads(2) != 2:
        pytest.skip("the loaded BLAS does not say or set its thread count")
    seen, check = [], cli._require_finite
    monkeypatch.setattr(cli, "_require_finite",
                        lambda **flags: seen.append(engine.blas_threads()) or check(**flags))
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "c.csv")]) == rc
        assert seen == [1]
        assert engine.blas_threads() == 2
    finally:
        engine.blas_threads(threads)


def _check_divergence_saves_nothing(tmp_path, capsys, command, **train):
    """A run of command with lr 1e30 (or the train fields given) exits 3, and
    the output directories it made are removed again; a pre-existing --out
    is left as it was."""
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["train"].update({"lr": 1e30, **train})
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "new" / "run"
    argv = [*command, "--config", str(config), "--out", str(out)]
    with np.errstate(all="ignore"):
        rc = cli.main(argv)
    assert rc == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric error:")
    assert not (out / "checkpoint.ecsh").exists()
    assert not (out / "loss.csv").exists()
    # every directory the run made is removed again
    assert not (tmp_path / "new").exists()
    # a pre-existing --out is left as it was
    out.mkdir(parents=True)
    (out / "keep.txt").write_text("kept")
    with np.errstate(all="ignore"):
        rc = cli.main(argv)
    assert rc == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric error:")
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


class TestTrainCommand:
    def test_writes_checkpoint_and_loss_csv(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", config_path, "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "checkpoint.ecsh").exists()
        assert (out / "checkpoint.ecsh.json").exists()
        with open(out / "loss.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss", "smoothed"]
        assert len(rows) == 1 + SMALL_CONFIG["train"]["steps"]
        assert "final loss:" in capsys.readouterr().out
        # the sidecar records the run config, its variant and seed among it
        sidecar = json.loads((out / "checkpoint.ecsh.json").read_text())
        assert sorted(sidecar) == ["model", "train", "world"]  # no numerics version
        run_config = cli.run_config_dict(*cli.load_run_config(config_path))
        assert sidecar == json.loads(json.dumps(run_config))

    def test_divergence_is_numeric_error_and_saves_nothing(self, tmp_path, capsys):
        _check_divergence_saves_nothing(tmp_path, capsys, ["train"])

    def test_last_step_overflow_is_numeric_error_and_saves_nothing(self, tmp_path, capsys):
        """A 1-step run whose one update overflows float32 (lr 1e39) has a
        finite loss but non-finite weights: exit 3, no checkpoint."""
        _check_divergence_saves_nothing(tmp_path, capsys, ["train"], lr=1e39, steps=1)


class TestSampleCommand:
    @pytest.fixture()
    def ckpt(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config_path, "--out", str(out)]) == cli.EXIT_OK
        return str(out / "checkpoint.ecsh")

    def test_writes_fields_and_metrics(self, tmp_path, ckpt, capsys):
        out = tmp_path / "samples"
        rc = cli.main(
            [
                "sample", "--ckpt", ckpt,
                "--shots", "n=2,scene=0;n=2,scene=1",
                "--steps", "4", "--out", str(out),
            ]
        )
        assert rc == cli.EXIT_OK
        assert (out / "sample0000.ecsh").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_samples"] == 1
        for key in ("identity_consistency", "scene_adherence", "cut_accuracy"):
            assert key in metrics
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(printed) == {"identity_consistency", "scene_adherence", "cut_accuracy"}

    def test_sidecar_with_a_numerics_version_loads(self, tmp_path, ckpt):
        """Sidecars written while a numerics version was recorded still sample."""
        sidecar = ckpt + ".json"
        with open(sidecar) as fh:
            config = json.load(fh)
        config["numerics_version"] = 2
        with open(sidecar, "w") as fh:
            json.dump(config, fh)
        out = tmp_path / "samples"
        rc = cli.main(["sample", "--ckpt", ckpt, "--shots", "n=2,scene=1", "--steps", "1",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert (out / "sample0000.ecsh").exists()

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "samples"
        rc = cli.main(["sample", "--ckpt", str(tmp_path / "nope.ecsh"),
                       "--shots", "n=2,scene=0", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "checkpoint not found" in capsys.readouterr().err
        assert not out.exists()

    def test_guidance_beyond_float32_is_usage_error(self, tmp_path, ckpt, capsys):
        """A guidance that is finite as a float but not in float32 samples no
        inf field: exit 2, and no --out left behind."""
        out = tmp_path / "samples"
        rc = cli.main(["sample", "--ckpt", ckpt, "--shots", "n=2,scene=1;n=2,scene=2",
                       "--guidance", "1e39", "--steps", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "guidance must be finite in float32" in capsys.readouterr().err
        assert not out.exists()

    def test_identity_flag_conditions_on_that_identity(self, tmp_path, full_ckpt):
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", full_ckpt, "--shots", "n=2,scene=0;n=2,scene=1",
                       "--id", "0", "--steps", "2", "--seed", "4", "--out", str(out)])
        assert rc == cli.EXIT_OK
        params, model_cfg, world = cli._load_model(full_ckpt)
        spec = [ShotPrompt(2, 0), ShotPrompt(2, 1)]
        emb = engine.identity_embedding(params, world, 0)
        want = engine.sample(params, model_cfg, world, spec, steps=2, seed=4, id_embedding=emb)
        assert np.array_equal(load_tensors(str(out / "sample0000.ecsh"))["tokens"], want)

    def test_identity_flag_out_of_pool(self, tmp_path, ckpt):
        rc = cli.main(
            [
                "sample", "--ckpt", ckpt,
                "--shots", "n=2,scene=0", "--id", "999999",
                "--steps", "2", "--out", str(tmp_path / "s"),
            ]
        )
        assert rc == cli.EXIT_CONFIG

    def test_ref_mode_needs_shared_first_segment(self, tmp_path, refattn_ckpt):
        rc = cli.main(
            [
                "sample", "--ckpt", refattn_ckpt,
                "--shots", "n=2,scene=0;n=2,scene=1",
                "--shots", "n=3,scene=0;n=2,scene=2",
                "--steps", "2", "--out", str(tmp_path / "s"),
            ]
        )
        assert rc == cli.EXIT_CONFIG

    def test_ref_mode_later_shots_do_not_copy_reference_noise(
        self, tmp_path, refattn_ckpt, monkeypatch
    ):
        """No attempt's added shots start from the reference shot's noise."""
        starts = []
        real = engine.M.denoiser_forward

        def spy(z, tau, captions, *rest, **kwargs):
            starts.append((np.array(z, copy=True), captions))
            return real(z, tau, captions, *rest, **kwargs)

        monkeypatch.setattr(engine.M, "denoiser_forward", spy)
        rc = cli.main(
            [
                "sample", "--ckpt", refattn_ckpt,
                "--shots", "n=2,scene=0;n=2,scene=1",
                "--shots", "n=2,scene=0;n=3,scene=2",
                "--steps", "1", "--out", str(tmp_path / "s"),
            ]
        )
        assert rc == cli.EXIT_OK
        # one step, one forward a guidance branch, each from the one packed noise field
        assert len(starts) == 2
        (z, captions), (z_u, null) = starts
        assert np.array_equal(z, z_u) and null == tuple(map(engine.M.null_captions, captions))
        n0 = 2 * SMALL_CONFIG["world"]["height"] * SMALL_CONFIG["world"]["width"]
        reference = {row.tobytes() for row in z[:n0]}
        assert not any(row.tobytes() in reference for row in z[n0:])

    def test_ref_mode_generates_each_group(self, tmp_path, refattn_ckpt):
        """Two --shots groups continue the first one's reference shot: the
        fields engine.sample_infinite returns with reference noise drawn from
        the root stream of --seed."""
        sdir = tmp_path / "s"
        rc = cli.main(
            [
                "sample", "--ckpt", refattn_ckpt,
                "--shots", "n=2,scene=0;n=2,scene=1",
                "--shots", "n=2,scene=0;n=2,scene=2",
                "--steps", "2", "--seed", "4", "--out", str(sdir),
            ]
        )
        assert rc == cli.EXIT_OK
        params, model_cfg, world = cli._load_model(refattn_ckpt)
        ref = ShotPrompt(2, 0)
        n0 = engine.build_layout([ref], world).total_tokens
        ref_noise = seeded_rng(4).standard_normal((n0, world.d_token))
        want = engine.sample_infinite(params, model_cfg, world, ref, ref_noise,
                                      [[ShotPrompt(2, 1)], [ShotPrompt(2, 2)]], seed=4, steps=2)
        got = [load_tensors(str(sdir / f"sample{i:04d}.ecsh"))["tokens"] for i in range(2)]
        assert len(want) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_one_group_on_a_refattn_checkpoint_samples_one_field(self, tmp_path, refattn_ckpt):
        """One --shots group is no continuation, whatever the checkpoint's
        variant: it writes engine.sample's field."""
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0;n=2,scene=1",
                       "--steps", "2", "--seed", "4", "--out", str(out)])
        assert rc == cli.EXIT_OK
        params, model_cfg, world = cli._load_model(refattn_ckpt)
        want = engine.sample(params, model_cfg, world, [ShotPrompt(2, 0), ShotPrompt(2, 1)],
                             steps=2, seed=4)
        assert np.array_equal(load_tensors(str(out / "sample0000.ecsh"))["tokens"], want)
        assert sorted(os.listdir(out)) == ["metrics.json", "sample0000.ecsh"]


def _drop_tensor(path):
    tensors = load_tensors(path)
    del tensors["head/b"]
    save_tensors(path, tensors)


def _reshape_tensor(path):
    tensors = load_tensors(path)
    tensors["head/w"] = tensors["head/w"][:-1]
    save_tensors(path, tensors)


def _truncate_header(path):
    with open(path, "r+b") as fh:
        fh.truncate(10)


def _append_bytes(path):
    with open(path, "ab") as fh:
        fh.write(b"\0\0\0\0")


def _edit_sidecar(edit):
    def run(path):
        sidecar = path + ".json"
        with open(sidecar) as fh:
            config = json.load(fh)
        edit(config)
        with open(sidecar, "w") as fh:
            json.dump(config, fh)
    return run


def _declare_extents(dims):
    """Replace the tensor file by one whose header declares dims over 16 bytes."""
    def run(path):
        header = b"ECSH" + struct.pack("<IIH", 1, 1, 1) + b"x" + struct.pack("<B", len(dims))
        with open(path, "wb") as fh:
            fh.write(header + struct.pack(f"<{len(dims)}I", *dims) + b"\0" * 16)
    return run


def _non_finite_weight(path):
    tensors = load_tensors(path)
    tensors["block0/sa/wq"][0, 0] = np.nan
    save_tensors(path, tensors)


def _sidecar_not_utf8(path):
    with open(path + ".json", "r+b") as fh:
        fh.write(b"\x80")


def _remove_sidecar(path):
    os.remove(path + ".json")


def _garble_sidecar(path):
    with open(path + ".json", "w") as fh:
        fh.write("{not json")


class _BoundedWorld(S.SyntheticWorld):
    """A world that fails the test rather than allocate a size no sidecar of a
    loadable checkpoint can declare, so that a size checked too late cannot
    take the machine's memory."""

    def __init__(self, **cfg):
        if max(cfg.get("n_ids", 0), cfg.get("d_token", 0)) > 2**20:
            raise AssertionError(f"built a world of {cfg}")
        super().__init__(**cfg)


class TestMalformedCheckpoint:
    """Every malformed checkpoint is a usage error (exit 2), not a traceback."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ckpt")
        config = out / "run.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        return out / "checkpoint.ecsh"

    @pytest.mark.parametrize(
        "corrupt",
        [
            _drop_tensor,
            _reshape_tensor,
            _truncate_header,
            _append_bytes,
            _remove_sidecar,
            _garble_sidecar,
            _edit_sidecar(lambda c: c.pop("world")),
            _edit_sidecar(lambda c: c["world"].update(colour=1)),
            _declare_extents((100000, 100000, 100)),
            _declare_extents((2**31, 2**31, 4)),
            _edit_sidecar(lambda c: c["world"].update(d_token=16)),
            _edit_sidecar(lambda c: c["world"].update(v_scene=9)),
            _non_finite_weight,
            _sidecar_not_utf8,
            _edit_sidecar(lambda c: c["model"].update(d_model=2**30)),
            _edit_sidecar(lambda c: c["world"].update(n_ids=2**30)),
            _edit_sidecar(lambda c: c["world"].update(d_token=2**30)),
        ],
        ids=[
            "missing-tensor", "wrong-shape", "truncated-header", "trailing-bytes",
            "missing-sidecar", "malformed-sidecar", "no-world-section", "unknown-world-key",
            "huge-extents", "int64-overflowing-extents", "world-d_token", "world-v_scene",
            "non-finite-weight", "sidecar-not-utf8", "huge-d_model", "huge-n_ids",
            "huge-world-d_token",
        ],
    )
    def test_sample_exits_with_usage_error(self, tmp_path, trained, corrupt, monkeypatch, capsys):
        monkeypatch.setattr(S, "SyntheticWorld", _BoundedWorld)
        path = str(tmp_path / "checkpoint.ecsh")
        shutil.copy(trained, path)
        shutil.copy(str(trained) + ".json", path + ".json")
        assert cli.main(["sample", "--ckpt", path, "--shots", "n=2,scene=0", "--steps", "1",
                         "--out", str(tmp_path / "s")]) == cli.EXIT_OK
        corrupt(path)
        rc = cli.main(["sample", "--ckpt", path, "--shots", "n=2,scene=0", "--steps", "1",
                       "--out", str(tmp_path / "s")])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_huge_blocks_reads_the_shape_table_no_further_than_the_file(
        self, tmp_path, trained, monkeypatch, capsys
    ):
        """A sidecar that declares 2**30 blocks is refused after one more
        table entry than the file holds tensors, not after 2**30 blocks."""
        path = str(tmp_path / "checkpoint.ecsh")
        shutil.copy(trained, path)
        shutil.copy(str(trained) + ".json", path + ".json")
        _edit_sidecar(lambda c: c["model"].update(blocks=2**30))(path)
        n_tensors = len(load_tensors(path))
        shapes = M.param_shapes
        read = []

        def counted(cfg):
            for entry in shapes(cfg):
                read.append(entry)
                if len(read) > 10 * n_tensors:
                    raise AssertionError("read the shape table past the file's tensors")
                yield entry

        monkeypatch.setattr(M, "param_shapes", counted)
        rc = cli.main(["sample", "--ckpt", path, "--shots", "n=2,scene=0", "--steps", "1",
                       "--out", str(tmp_path / "s")])
        assert rc == cli.EXIT_CONFIG
        assert "do not match its model config" in capsys.readouterr().err
        assert len(read) == n_tensors + 1


class TestCurveCommand:
    def test_writes_csv_and_prints_operational_points(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = cli.main(["curve", "--dim", "4", "--xmax", "10", "--step", "0.5", "--out", str(out)])
        assert rc == cli.EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "f", "delta"]
        assert float(rows[1][1]) == 3.0  # f(0) = (d/2)(d/2+1)/2 for d=4
        assert float(rows[1][2]) == 1.0
        printed = capsys.readouterr().out
        assert "delta(k*0) = delta(0) = 1.000000" in printed

    def test_csv_columns_parse_back_to_delta_curve(self, tmp_path, capsys):
        """x and delta are written as repr of each float64: both parse back
        to the curve's arrays bit for bit."""
        out = tmp_path / "curve.csv"
        rc = cli.main(["curve", "--dim", "4", "--xmax", "10", "--step", "1", "--out", str(out)])
        assert rc == cli.EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "f", "delta"]
        xs = np.array([float(r[0]) for r in rows[1:]])
        deltas = np.array([float(r[2]) for r in rows[1:]])
        assert np.array_equal(xs, np.arange(11.0))
        assert np.array_equal(deltas, analysis.delta_curve(4, xs).delta)

    def test_k_defaults_to_the_model_rotation(self, tmp_path, capsys):
        """Without --k, delta is printed at the shot distances times
        DenoiserConfig's default k."""
        rc = cli.main(["curve", "--dim", "8", "--xmax", "1", "--out", str(tmp_path / "c.csv")])
        assert rc == cli.EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        k = M.DenoiserConfig().k
        f0 = analysis.partial_sum_magnitudes(8, 0.0)
        assert printed[:5] == [
            f"delta(k*{ds}) = delta({k * ds:g}) = "
            f"{analysis.partial_sum_magnitudes(8, k * ds) / f0:.6f}"
            for ds in range(5)
        ]

    def test_odd_dim_rejected(self, tmp_path, capsys):
        rc = cli.main(["curve", "--dim", "5", "--out", str(tmp_path / "c.csv")])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("xmax,step", [("1e7", "1e-3"), ("1e300", "1e-300")])
    def test_grid_too_large_rejected(self, tmp_path, xmax, step, capsys):
        """The grid is counted before it is built: a grid that would not
        fit in memory is a usage error, and nothing is written."""
        out = tmp_path / "c.csv"
        rc = cli.main(["curve", "--dim", "4", "--xmax", xmax, "--step", step, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert str(cli.CURVE_MAX_POINTS) in capsys.readouterr().err
        assert not out.exists()


class TestNumericFlags:
    """A numeric flag that is not finite, or a non-positive --step, is a
    usage error at command entry: nothing is written."""

    @pytest.mark.parametrize(
        "flag,value",
        [("step", "0"), ("step", "-0.5"), ("step", "nan"), ("xmax", "inf"), ("xmax", "nan"),
         ("k", "nan"), ("k", "-inf")],
    )
    def test_curve(self, tmp_path, flag, value, capsys):
        out = tmp_path / "c.csv"
        rc = cli.main(["curve", "--dim", "4", f"--{flag}={value}", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"--{flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value", [("guidance", "nan"), ("guidance", "inf"), ("shift", "nan"), ("shift", "inf")]
    )
    def test_sample(self, tmp_path, refattn_ckpt, flag, value, capsys):
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0",
                       "--steps", "1", f"--{flag}={value}", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"--{flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,message", [("seed", "-1", "seed must be >= 0"), ("shift", "0.5", "shift")]
    )
    def test_sample_checked_in_the_run(self, tmp_path, refattn_ckpt, flag, value, message,
                                       capsys):
        """--seed and --shift are checked where the run uses them, after --out
        is made: the command exits 2 and removes every directory it made."""
        out = tmp_path / "new" / "s"
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0",
                       "--steps", "1", f"--{flag}={value}", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("k", ["1e308", "-1e308", "5e307"])
    def test_curve_k_that_overflows_at_a_printed_distance(self, tmp_path, k, capsys):
        """A finite --k whose operating point k * ds overflows for a printed
        shot distance ds <= 4 is a usage error: nothing is written."""
        out = tmp_path / "new" / "c.csv"
        rc = cli.main(["curve", f"--k={k}", "--dim", "4", "--xmax", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "--k" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_curve_negative_xmax(self, tmp_path, capsys):
        """A negative --xmax leaves an empty grid, found after --out's directory
        is made: the command exits 2 and removes every directory it made."""
        out = tmp_path / "new" / "sub" / "c.csv"
        rc = cli.main(["curve", "--dim", "4", "--xmax", "-1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "empty grid" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError, RuntimeError])
    def test_any_exception_in_the_run_removes_what_it_made(self, tmp_path, error):
        """A Ctrl-C, a MemoryError or any other exception in the block leaves
        no directory _run_dir made and goes on as it was raised."""
        raised = error("in the run")
        with pytest.raises(error) as caught:
            with cli._run_dir(str(tmp_path / "new" / "run"), "x") as stage:
                with open(os.path.join(stage, "x"), "w") as fh:
                    fh.write("half")
                raise raised
        assert caught.value is raised
        assert os.listdir(tmp_path) == []


class TestEntryChecks:
    """A count flag below 1, a size above its bound, or an --out that cannot
    be made is a usage error at command entry: nothing is written or trained."""

    def test_sample_steps_below_one(self, tmp_path, refattn_ckpt, capsys):
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0",
                       "--steps", "0", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["eval-samples", "eval-steps"])
    def test_ablate_counts_below_one(self, tmp_path, config_path, flag, monkeypatch, capsys):
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        out = tmp_path / "ablate"
        rc = cli.main(["ablate", "--config", config_path, "--out", str(out), f"--{flag}", "0"])
        assert rc == cli.EXIT_CONFIG
        assert f"--{flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("steps, error", [
        (cli.SAMPLE_MAX_STEPS, "checkpoint not found"),
        (cli.SAMPLE_MAX_STEPS + 1, f"--steps must lie in [1, {cli.SAMPLE_MAX_STEPS}]"),
        (10**12, f"--steps must lie in [1, {cli.SAMPLE_MAX_STEPS}]"),
    ], ids=["at", "past", "far-past"])
    def test_sample_steps_bound(self, tmp_path, monkeypatch, capsys, steps, error):
        """A step count up to the bound passes the entry checks and reaches the
        checkpoint load, here of a missing file; one past it exits 2 first,
        and no schedule is built."""
        monkeypatch.setattr(cli.engine, "shift_timesteps", _must_not_run)
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", str(tmp_path / "missing.ecsh"), "--shots",
                       "n=2,scene=0", "--steps", str(steps), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, bound", [
        ("eval-samples", cli.EVAL_MAX_SAMPLES), ("eval-steps", cli.SAMPLE_MAX_STEPS)
    ])
    @pytest.mark.parametrize("past", [0, 1, 10**12], ids=["at", "past", "far-past"])
    def test_ablate_counts_bound(self, tmp_path, monkeypatch, capsys, flag, bound, past):
        """An evaluation count up to its bound reaches the config load, here
        of a missing file; one past it exits 2 before, with no prompt drawn."""
        monkeypatch.setattr(cli.engine, "eval_specs", _must_not_run)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        out = tmp_path / "ablate"
        rc = cli.main(["ablate", "--config", str(tmp_path / "missing.json"), "--out", str(out),
                       f"--{flag}", str(bound + past)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        want = f"--{flag} must lie in [1, {bound}]" if past else "config file not found"
        assert want in err
        assert not out.exists()

    def test_ablate_world_of_two_scenes(self, tmp_path, monkeypatch, capsys):
        """Evaluation prompts need three distinct scenes: a world of two exits 2
        before any variant trains or --out is made."""
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        cfg = _with("model", "v_scene", 2)
        cfg["world"]["v_scene"] = 2
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ablate"
        rc = cli.main(["ablate", "--config", str(path), "--out", str(out),
                       "--eval-samples", "1", "--eval-steps", "1"])
        assert rc == cli.EXIT_CONFIG
        assert "3 scenes, the world has 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "groups",
        [["n=2,scene=0", "n=2,scene=1"], ["n=2,scene=0", "n=2,scene=1;n=2,scene=0"]],
        ids=["one-shot-groups-differ", "first-segments-differ"],
    )
    def test_sample_group_misuse(self, tmp_path, refattn_ckpt, groups, capsys):
        out = tmp_path / "s"
        shots = [arg for g in groups for arg in ("--shots", g)]
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, *shots, "--steps", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "every --shots group must share the first segment" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_continuation_on_another_variant(self, tmp_path, full_ckpt, capsys):
        """Two groups continue a reference shot, which needs a full+refattn
        checkpoint: on a full one the run exits 2 and removes its --out."""
        out = tmp_path / "new" / "s"
        rc = cli.main(["sample", "--ckpt", full_ckpt, "--shots", "n=2,scene=0;n=2,scene=1",
                       "--shots", "n=2,scene=0", "--steps", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "full+refattn" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", ["--variant", "vanilla"]), ("train", ["--seed", "5"]), ("sample", ["--ref-attn"]),
    ], ids=["train-variant", "train-seed", "sample-ref-attn"])
    def test_flags_that_restate_a_run_input_are_unrecognized(
            self, tmp_path, config_path, refattn_ckpt, command, flag, monkeypatch, capsys):
        """The run config alone sets the variant and the seed a run trains
        with, and the --shots group count alone decides a continuation."""
        for work in ("train", "sample", "sample_infinite"):
            monkeypatch.setattr(cli.engine, work, _must_not_run)
        source = {"train": ["--config", config_path],
                  "sample": ["--ckpt", refattn_ckpt, "--shots", "n=2,scene=0"]}[command]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *source, *flag, "--out", str(out)])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shots",
        ["n=2,scene=8", "n=2,scene=0;n=2,scene=1,motion=-1", "n=2,scene=6;n=2,scene=1,motion=3"],
    )
    def test_sample_ids_outside_vocabulary(self, tmp_path, refattn_ckpt, shots, capsys):
        """The world's vocabulary (4 scenes, 2 motions) bounds the ids, not the
        model's (8 and 4): training never drew the model's spare rows."""
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, "--shots", shots,
                       "--steps", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "--shots ids outside the world's 4 scenes, 2 motions" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_dim_above_bound(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = cli.main(["curve", "--dim", "1000000000000", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert str(cli.CURVE_MAX_DIM) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shots", ["n=100000,scene=0", "n=2,scene=0;n=100000,scene=1"])
    def test_sample_group_tokens_above_bound(self, tmp_path, refattn_ckpt, shots, capsys):
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ckpt", refattn_ckpt, "--shots", shots,
                       "--steps", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert str(cli.LAYOUT_MAX_TOKENS) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
    def test_sample_packed_tokens_bound(self, tmp_path, refattn_ckpt, past, monkeypatch, capsys):
        """Groups that each fit LAYOUT_MAX_TOKENS pack shot 0 once and every
        group's later shots into one field: a field of PACKED_MAX_TOKENS
        passes the entry checks, one more token's worth exits 2 before --out
        is made, and nothing samples."""
        for work in ("sample", "sample_infinite"):
            monkeypatch.setattr(cli.engine, work, _must_not_run)
        # 4 tokens a frame: 8 groups add 1,023 frames each to a 1-frame shot 0
        assert cli.PACKED_MAX_TOKENS == 4 + 8 * 4 * 1023 + 4 * 7
        groups = ["n=1,scene=0;n=1023,scene=1"] * 8 + [f"n=1,scene=0;n={7 + past},scene=2"]
        argv = ["sample", "--ckpt", refattn_ckpt, *[a for g in groups for a in ("--shots", g)],
                "--steps", "1"]
        out = tmp_path / "s"
        if not past:
            with pytest.raises(AssertionError, match="ran past the command-entry checks"):
                cli.main(argv + ["--out", str(out)])
            return
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert (f"--shots groups of {cli.PACKED_MAX_TOKENS + 4} packed tokens exceed "
                f"{cli.PACKED_MAX_TOKENS}") in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _layout_config(tmp_path, shot_len_hi):
        """SMALL_CONFIG whose largest training layout is 2 shots of shot_len_hi
        frames on a 2 x 1 grid: 4 * shot_len_hi tokens."""
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["train"].update(shot_count_range=[1, 2], shot_len_range=[1, shot_len_hi])
        cfg["world"].update(height=2, width=1)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_training_layout_at_the_bound_loads(self, tmp_path):
        assert cli.LAYOUT_MAX_TOKENS == 4 * 1024
        _, train_cfg, _ = cli.load_run_config(self._layout_config(tmp_path, 1024))
        assert train_cfg.shot_len_range == (1, 1024)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_training_layout_above_bound(self, tmp_path, command, monkeypatch, capsys):
        """A config whose largest layout is just over the bound exits 2 before
        --out is made; it never trains."""
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        out = tmp_path / "run"
        rc = cli.main([command, "--config", self._layout_config(tmp_path, 1025),
                       "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "layout of up to 4100 tokens exceeds 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_training_batch_at_the_bound_loads(self, tmp_path):
        """SMALL_CONFIG's largest layout is 2 shots of 2 frames on a 2 x 2
        grid, 16 tokens: a batch of BATCH_MAX_TOKENS / 16 loads."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with("train", "batch_size", cli.BATCH_MAX_TOKENS // 16)))
        assert cli.load_run_config(str(path))[1].batch_size == 4096

    @pytest.mark.parametrize("batch_size", [4097, 10**9])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_training_batch_above_bound(self, tmp_path, command, batch_size, monkeypatch,
                                        capsys):
        """Training renders a whole batch before its first forward: a batch
        of more than BATCH_MAX_TOKENS tokens exits 2 before --out is made; it
        never trains."""
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with("train", "batch_size", batch_size)))
        out = tmp_path / "run"
        rc = cli.main([command, "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert (f"a training batch of up to {16 * batch_size} tokens exceeds "
                f"{cli.BATCH_MAX_TOKENS}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_train_timesteps_above_int64(self, tmp_path, command, monkeypatch, capsys):
        """Training draws a timestep as an int64 in [1, train_timesteps]: 2**63
        exits 2 before --out is made, naming the bound; it never trains."""
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with("train", "train_timesteps", 2**63)))
        out = tmp_path / "run"
        rc = cli.main([command, "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert str(2**63 - 1) in capsys.readouterr().err
        assert not out.exists()

    def test_train_timesteps_at_int64_max_trains(self, tmp_path):
        cfg = _with("train", "train_timesteps", 2**63 - 1)
        cfg["train"]["steps"] = 1
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_OK

    @pytest.mark.parametrize("key,value", [("d_model", 131072), ("blocks", 2**30)])
    def test_model_weights_above_bound(self, tmp_path, key, value, monkeypatch, capsys):
        """A model of too many weights exits 2 before the world or any weight is
        built; 2^30 blocks are counted at once, not block by block."""
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        monkeypatch.setattr(cli.S.SyntheticWorld, "from_config", _must_not_run)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_with("model", key, value)))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"weights exceeds {cli.MODEL_MAX_PARAMS}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_weights_at_the_bound_load(self, tmp_path, monkeypatch):
        """The count is every weight of the model's shape table: a bound of
        that many loads, one fewer exits 2."""
        cfg = _with("model", "blocks", 3)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        model_cfg = M.DenoiserConfig.from_dict(cfg["model"])
        n_params = sum(int(np.prod(shape)) for _, shape in M.param_shapes(model_cfg))
        monkeypatch.setattr(cli, "MODEL_MAX_PARAMS", n_params)
        assert cli.load_run_config(str(path))[0] == model_cfg
        monkeypatch.setattr(cli, "MODEL_MAX_PARAMS", n_params - 1)
        with pytest.raises(ConfigError, match=f"a model of {n_params} weights"):
            cli.load_run_config(str(path))

    @pytest.mark.parametrize("key,value", [("v_scene", 100000), ("d_token", 1537)])
    def test_world_size_above_bound(self, tmp_path, key, value, monkeypatch, capsys):
        """A world size above the bound, in both sections, exits 2 before the
        world is built."""
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        monkeypatch.setattr(cli.S.SyntheticWorld, "from_config", _must_not_run)
        cfg = _with("model", key, value)
        cfg["world"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"world {key} {value} exceeds {cli.WORLD_MAX_SIZE}" in capsys.readouterr().err
        assert not out.exists()

    def test_world_size_at_the_bound_loads(self, tmp_path):
        assert cli.WORLD_MAX_SIZE == 1536
        cfg = _with("model", "d_token", 1536)
        cfg["world"]["d_token"] = 1536
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert cli.load_run_config(str(path))[2].d_token == 1536

    @pytest.mark.parametrize("command", ["train", "sample", "curve", "ablate"])
    def test_out_under_a_regular_file(self, tmp_path, config_path, refattn_ckpt, command,
                                      monkeypatch, capsys):
        monkeypatch.setattr(cli.analysis, "delta_curve", _must_not_run)
        monkeypatch.setattr(cli.engine, "train", _must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        args = {
            "train": ["train", "--config", config_path],
            "sample": ["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0", "--steps", "1"],
            "curve": ["curve", "--dim", "4"],
            "ablate": ["ablate", "--config", config_path],
        }[command]
        rc = cli.main(args + ["--out", out + (".csv" if command == "curve" else "")])
        assert rc == cli.EXIT_CONFIG
        assert "cannot make output directory" in capsys.readouterr().err

    def test_curve_out_is_a_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.analysis, "delta_curve", _must_not_run)
        rc = cli.main(["curve", "--dim", "4", "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("train", "checkpoint.ecsh"),
        ("train", "checkpoint.ecsh.json"),
        ("train", "loss.csv"),
        ("sample", "sample0000.ecsh"),
        ("sample", "metrics.json"),
        ("ablate", "ablation.csv"),
    ])
    def test_output_file_name_is_a_directory(self, tmp_path, config_path, refattn_ckpt,
                                             command, name, monkeypatch, capsys):
        """An output file name that is an existing directory under --out is
        refused before the command's work, which could not then be saved."""
        for work in ("train", "sample", "sample_infinite"):
            monkeypatch.setattr(cli.engine, work, _must_not_run)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        args = {
            "train": ["train", "--config", config_path],
            "sample": ["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0", "--steps", "1"],
            "ablate": ["ablate", "--config", config_path],
        }[command]
        assert cli.main(args + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert f"{out / name} is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == [name]

    @pytest.mark.parametrize("earlier", [False, True], ids=["new-out", "earlier-out"])
    @pytest.mark.parametrize("command, writer", [("train", "write_csv"), ("sample", "write_json")])
    def test_a_write_that_fails_after_the_work_is_usage_error(
            self, tmp_path, config_path, refattn_ckpt, command, writer, earlier, monkeypatch,
            capsys):
        """A file that cannot be written once the work is done (the last one,
        train's loss.csv or sample's metrics.json, here sent under a missing
        directory) exits 2, not with a traceback, and saves nothing: the files
        written before it are dropped, an --out the command made is removed,
        and an earlier run's files are left as they were."""
        out = tmp_path / "out"
        if earlier:
            out.mkdir()
            for name in ("checkpoint.ecsh", "sample0000.ecsh"):
                (out / name).write_bytes(b"earlier")
        write = getattr(cli, writer)
        monkeypatch.setattr(cli, writer, lambda path, *a, **kw: write(
            os.path.join(path, "missing", "file"), *a, **kw))
        args = {
            "train": ["train", "--config", config_path],
            "sample": ["sample", "--ckpt", refattn_ckpt, "--shots", "n=2,scene=0", "--steps", "1"],
        }[command]
        assert cli.main(args + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert "cannot write " in capsys.readouterr().err
        if earlier:
            assert sorted(os.listdir(out)) == ["checkpoint.ecsh", "sample0000.ecsh"]
            assert all((out / name).read_bytes() == b"earlier" for name in os.listdir(out))
        else:
            assert not out.exists()

    def test_an_output_made_a_directory_during_the_work_is_usage_error(self, tmp_path,
                                                                       config_path, monkeypatch,
                                                                       capsys):
        """An output name made a directory while train runs (here loss.csv,
        the last) exits 2 and saves no file, the checkpoint included."""
        out = tmp_path / "out"
        train = cli.engine.train

        def train_then_block(*args, **kwargs):
            (out / "loss.csv").mkdir()
            return train(*args, **kwargs)

        monkeypatch.setattr(cli.engine, "train", train_then_block)
        rc = cli.main(["train", "--config", config_path, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"output {out / 'loss.csv'} is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["loss.csv"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran past the command-entry checks")


def _small_ckpt(tmp_path_factory, variant):
    out = tmp_path_factory.mktemp(variant.replace("+", "_"))
    config = out / "run.json"
    config.write_text(json.dumps(_with("model", "variant", variant)))
    args = ["train", "--config", str(config), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    return str(out / "checkpoint.ecsh")


@pytest.fixture(scope="module")
def refattn_ckpt(tmp_path_factory):
    """A small full+refattn checkpoint, for the commands that only read it."""
    return _small_ckpt(tmp_path_factory, "full+refattn")


@pytest.fixture(scope="module")
def full_ckpt(tmp_path_factory):
    """A small full checkpoint, for the commands that only read it."""
    return _small_ckpt(tmp_path_factory, "full")


# shot spec strings, well- and ill-formed: segments from the grammar with
# small values, or from its pieces; every frame count is at most 8, so that
# a spec that samples stays tiny
_SPEC_PART = st.one_of(
    st.tuples(
        st.sampled_from(["n", "scene", "motion", "", "x", " n"]),
        st.sampled_from(["=", "", "=="]),
        st.sampled_from(["-1", "0", "2", "8", "", "x", " 2", "+1", "1.5", "1e2"]),
    ).map("".join),
    st.sampled_from(["", " ", ";", "=", ","]),
)
_WELL_FORMED = st.builds(
    "n={},scene={}{}".format, st.integers(1, 3), st.integers(0, 7),
    st.sampled_from(["", ",motion=1", ",motion=3"]),
)
_SEGMENT = st.one_of(
    _WELL_FORMED, _WELL_FORMED, st.lists(_SPEC_PART, min_size=1, max_size=4).map(",".join)
)


@st.composite
def _shot_groups(draw):
    """One to three --shots strings; a later one mostly starts with the
    first one's first segment, as a continuation requires."""
    first = draw(st.lists(_SEGMENT, min_size=1, max_size=3))
    groups = [first]
    for _ in range(draw(st.integers(0, 2))):
        shared = draw(st.booleans()) or draw(st.booleans())
        head = first[:1] if shared else [draw(_SEGMENT)]
        groups.append(head + draw(st.lists(_SEGMENT, max_size=2)))
    return [";".join(g) for g in groups]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(groups=_shot_groups())
def test_shot_specs_sample_or_exit_2(refattn_ckpt, tmp_path_factory, groups):
    """Whatever the --shots strings, `sample` exits 0 or 2 and never raises."""
    argv = ["sample", "--ckpt", refattn_ckpt, "--steps", "1"]
    for spec in groups:
        argv += ["--shots", spec]
    out = tmp_path_factory.mktemp("specs")
    rc = cli.main(argv + ["--out", str(out)])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG)


# edge values of the numeric flags of `sample` and `curve`
_SAMPLE_FLAGS = {
    "seed": ["-1", "0", "3", str(2**64)],
    "steps": ["0", "1"],
    "shift": ["0.5", "1", "5", "-1", "nan", "inf"],
    "guidance": ["-1", "0", "5", "nan"],
}
_CURVE_FLAGS = {
    "xmax": ["-1", "0", "4", "nan"],
    "step": ["-0.5", "0", "0.25"],
    "k": ["-3", "6", "nan"],
    "dim": ["0", "3", "4", "5000"],
}


def _flag_values(choices):
    return st.fixed_dictionaries({flag: st.sampled_from(v) for flag, v in choices.items()}).map(
        lambda values: [f"--{flag}={value}" for flag, value in values.items()]
    )


def _exits_0_or_2_and_cleans_up(argv, new):
    """cli.main(argv) exits 0 or 2; on 2, the fresh directory new that holds
    --out is gone again."""
    rc = cli.main(argv)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if rc == cli.EXIT_CONFIG:
        assert not new.exists()


# a usage error found only once --out's directory exists: few random draws
# pair it with otherwise usable values, so each is also an explicit example
@settings(derandomize=True, max_examples=60, deadline=None)
@given(flags=_flag_values(_SAMPLE_FLAGS), groups=st.integers(1, 2))
@example(flags=["--seed=-1", "--steps=1"], groups=2)
@example(flags=["--seed=-1", "--steps=1"], groups=1)
@example(flags=["--shift=0.5", "--steps=1"], groups=1)
def test_sample_numeric_flags_sample_or_exit_2(refattn_ckpt, tmp_path_factory, flags, groups):
    """Whatever the numeric flags' values, `sample` exits 0 or 2, never raises,
    and leaves no directory it made on a usage error, for one --shots group and
    for a continuation of two."""
    new = tmp_path_factory.mktemp("sample_flags") / "new"
    argv = ["sample", "--ckpt", refattn_ckpt, *flags]
    argv += ["--shots", "n=2,scene=0;n=1,scene=1", "--shots", "n=2,scene=0"][: 2 * groups]
    _exits_0_or_2_and_cleans_up(argv + ["--out", str(new / "s")], new)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(flags=_flag_values(_CURVE_FLAGS))
@example(flags=["--xmax=-1", "--step=0.25", "--k=6", "--dim=4"])
def test_curve_numeric_flags_write_or_exit_2(tmp_path_factory, flags):
    """Whatever the numeric flags' values, `curve` exits 0 or 2, never raises,
    and leaves no directory it made on a usage error."""
    new = tmp_path_factory.mktemp("curve_flags") / "new"
    _exits_0_or_2_and_cleans_up(["curve", *flags, "--out", str(new / "sub" / "c.csv")], new)


def _data_bytes(path):
    """Offsets of the float data bytes of a well-formed tensor file."""
    raw = path.read_bytes()
    pos, data = 12, set()
    for _ in range(struct.unpack("<I", raw[8:12])[0]):
        (nlen,) = struct.unpack("<H", raw[pos : pos + 2])
        pos += 2 + nlen
        rank = raw[pos]
        dims = struct.unpack(f"<{rank}I", raw[pos + 1 : pos + 1 + 4 * rank])
        pos += 1 + 4 * rank
        size = 4 * int(np.prod(dims))
        data.update(range(pos, pos + size))
        pos += size
    return data


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_samples_or_exits_2(refattn_ckpt, tmp_path_factory, data):
    """Byte replacements in a checkpoint's tensor file or sidecar: `sample`
    exits 0 or 2 and never raises.  Exit 3, numeric divergence, is the
    contract only when float data changed: finite weights can be large
    enough to overflow the forward."""
    work = tmp_path_factory.mktemp("mutated")
    files = {"tensors": work / "checkpoint.ecsh", "sidecar": work / "checkpoint.ecsh.json"}
    shutil.copy(refattn_ckpt, files["tensors"])
    shutil.copy(refattn_ckpt + ".json", files["sidecar"])
    blobs = {name: bytearray(path.read_bytes()) for name, path in files.items()}
    in_data = _data_bytes(files["tensors"])
    touched_data = False
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        i = data.draw(st.integers(0, len(blobs[name]) - 1), label="offset")
        blobs[name][i] = data.draw(st.integers(0, 255), label="byte")
        touched_data |= name == "tensors" and i in in_data
    for name, path in files.items():
        path.write_bytes(blobs[name])
    rc = cli.main(["sample", "--ckpt", str(files["tensors"]), "--shots", "n=2,scene=0;n=1,scene=1",
                   "--steps", "1", "--out", str(work / "s")])
    allowed = (cli.EXIT_OK, cli.EXIT_CONFIG) + ((cli.EXIT_NUMERIC,) if touched_data else ())
    assert rc in allowed


class TestAblateCommand:
    def test_three_variant_table(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 1)
        out = tmp_path / "ablate"
        rc = cli.main(
            [
                "ablate", "--config", config_path, "--out", str(out),
                "--eval-samples", "2", "--eval-steps", "2",
            ]
        )
        assert rc == cli.EXIT_OK
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "variant"
        variants = [r[0] for r in rows[1:]]
        assert variants == ["vanilla", "tcrope", "full"]
        defaults = [r[3] for r in rows[1:]]
        assert defaults == ["no", "no", "yes"]

    def test_table_is_the_same_on_one_and_two_cpus(self, tmp_path, config_path, monkeypatch):
        """One CPU runs the variants in-process, two run them in a process pool."""
        tables = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli.engine, "usable_cpus", lambda: cpus)
            out = tmp_path / f"ablate{cpus}"
            rc = cli.main(
                [
                    "ablate", "--config", config_path, "--out", str(out),
                    "--eval-samples", "2", "--eval-steps", "2",
                ]
            )
            assert rc == cli.EXIT_OK
            tables.append((out / "ablation.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_pool_workers_run_on_one_blas_thread(self, tmp_path, config_path, monkeypatch):
        """ablate's forked pool workers inherit the command's one BLAS thread."""
        threads = engine.blas_threads()
        if engine.blas_threads(2) != 2:
            pytest.skip("the loaded BLAS does not say or set its thread count")
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_ablate_run", _blas_threads_as_metrics)
        out = tmp_path / "ablate"
        try:
            rc = cli.main(["ablate", "--config", config_path, "--out", str(out),
                           "--eval-samples", "1", "--eval-steps", "1"])
            assert engine.blas_threads() == 2
        finally:
            engine.blas_threads(threads)
        assert rc == cli.EXIT_OK
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 3
        for row in rows:
            pid, threads_seen, _ = map(float, row[4:])
            assert pid != os.getpid() and threads_seen == 1.0

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
    def test_divergence_is_numeric_error_and_saves_nothing(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        monkeypatch.setattr(cli.engine, "usable_cpus", lambda: cpus)
        _check_divergence_saves_nothing(
            tmp_path, capsys, ["ablate", "--eval-samples", "1", "--eval-steps", "1"]
        )



def _blas_threads_as_metrics(task):
    """An ablate run that reports, in place of its metrics, the process it ran
    in and the BLAS thread count there."""
    return dict(zip(engine.METRIC_KEYS, (float(os.getpid()), float(engine.blas_threads()), 0.0)))


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class TestReadmeAgreesWithParser:
    @staticmethod
    def _readme():
        with open(README, encoding="utf-8") as fh:
            return fh.read()

    def test_every_readme_command_parses(self):
        """Each `shotrope ...` line of README's sh blocks, with its backslash
        continuations joined, is a command line the parser accepts."""
        commands = [
            shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", self._readme(), re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("shotrope ")
        ]
        assert {argv[0] for argv in commands} == {"train", "sample", "curve", "ablate"}
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: shotrope {shlex.join(argv)}")

    def test_every_option_is_named(self):
        readme = self._readme()
        (subcommands,) = [a.choices for a in cli.build_parser()._actions if a.choices]
        unnamed = [
            f"{command} {option}"
            for command, sub in subcommands.items()
            for action in sub._actions
            for option in action.option_strings
            if option != "--help" and option.startswith("--")
            and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)
        ]
        assert unnamed == []
