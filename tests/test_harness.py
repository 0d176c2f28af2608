import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from pamdp import harness
from pamdp.checkpoint import load_checkpoint, save_checkpoint
from pamdp.harness import (
    RunConfig,
    evaluate_checkpoint,
    evaluate_run,
    expand_grid,
    format_summary,
    load_config,
    parse_config_text,
    read_csv,
    seed_stream,
    smooth,
    summarize,
    sweep,
    train,
    train_seed,
)

BANDIT_CFG = """
env = bandit
algorithm = pdqn-multipass
episodes = 6
seeds = 0,1
eval_episodes = 3
gamma = 0.9
batch_size = 4
initial_fill = 4
replay_capacity = 64
hidden = 8
lr_q = 1e-2
lr_actor = 1e-3
epsilon_horizon = 3
ou_sigma = 0.1
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bandit_cfg(tmp_path, **kwargs):
    cfg = parse_config_text(BANDIT_CFG)
    cfg.out_dir = str(tmp_path / "run")
    for key, value in kwargs.items():
        setattr(cfg, key, value)
    return cfg


class TestSmooth:
    def test_window_one_is_identity(self):
        series = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert smooth(series, 1).tolist() == series

    def test_constant_series_unchanged(self):
        assert smooth([2.5] * 10, 5).tolist() == [2.5] * 10

    def test_trailing_mean_with_warmup(self):
        got = smooth(range(1, 11), 5)
        assert got[-1] == pytest.approx(8.0)  # mean(6..10)
        assert got[0] == 1.0
        assert got[2] == pytest.approx(2.0)  # mean(1..3) over the prefix

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            smooth([], 3)


class TestSummarize:
    def test_single_run_convention(self):
        assert summarize([0.7]) == (0.7, 0.0, 0.0)

    def test_two_runs_hand_values(self):
        mean, std, stderr = summarize([0.0, 1.0])
        assert mean == 0.5
        assert std == pytest.approx(math.sqrt(0.5))
        assert stderr == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_table_style_formatting(self):
        assert format_summary(0.9871, 0.0391) == "0.987 ± 0.039"


class TestConfigParsing:
    def test_round_trip_of_known_keys(self):
        cfg = parse_config_text(BANDIT_CFG)
        assert cfg.env == "bandit"
        assert cfg.algorithm == "pdqn-multipass"
        assert cfg.seeds == (0, 1)
        assert cfg.hidden == (8,)
        assert cfg.lr_q == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("episodes = 5\nbogus_key = 1\n")
        # run fields that the sweep.* and platform.* keys set are no keys themselves
        for key in ("sweep_seeds", "env_overrides", "grid"):
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config_text(f"{key} = 2\n")

    # one non-default value per agent hyperparameter, as config-file text
    HYPERPARAMETER_TEXT = {
        "gamma": ("0.5", 0.5),
        "batch_size": ("7", 7),
        "replay_capacity": ("77", 77),
        "initial_fill": ("9", 9),
        "lr_q": ("0.02", 0.02),
        "lr_actor": ("0.003", 0.003),
        "tau_q": ("0.2", 0.2),
        "tau_actor": ("0.05", 0.05),
        "clip_grad": ("3.5", 3.5),
        "hidden": ("16,8", (16, 8)),
        "activation": ("leaky_relu", "leaky_relu"),
        "leaky_slope": ("0.2", 0.2),
        "epsilon_start": ("0.9", 0.9),
        "epsilon_end": ("0.2", 0.2),
        "epsilon_horizon": ("33", 33),
        "ou_theta": ("0.3", 0.3),
        "ou_sigma": ("0.02", 0.02),
        "ou_mu": ("0.1", 0.1),
        "ou_dt": ("0.5", 0.5),
        "mixed_targets": ("true", True),
        "beta_mix": ("0.6", 0.6),
    }

    def test_every_hyperparameter_reaches_the_agent_config(self):
        from dataclasses import fields

        from pamdp.agent import AgentConfig

        table = self.HYPERPARAMETER_TEXT
        assert sorted(table) == sorted(f.name for f in fields(AgentConfig))
        text = "".join(f"{key} = {raw}\n" for key, (raw, _) in table.items())
        agent_cfg = parse_config_text(text).agent_config()
        for key, (_, value) in table.items():
            assert getattr(agent_cfg, key) == value, key
            assert getattr(AgentConfig(), key) != value, f"{key} default is the test value"

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("episodes = many\n")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_config_text("algorithm = dqn\n")

    def test_platform_overrides(self):
        cfg = parse_config_text(
            "env = platform\nplatform.length = 50\n"
            "platform.platforms = 0:20,25:50\nplatform.run_law = 2,5\n"
        )
        assert cfg.env_overrides["length"] == 50.0
        assert cfg.env_overrides["platforms"] == ((0.0, 20.0), (25.0, 50.0))
        assert cfg.env_overrides["run_law"] == (2.0, 5.0)

    def test_every_platform_field_is_a_platform_key(self):
        from dataclasses import fields

        from pamdp.envs import PlatformConfig

        text = {
            "length": ("60", 60.0),
            "platforms": ("0:20, 25:60", ((0.0, 20.0), (25.0, 60.0))),
            "enemy_speed": ("0.5", 0.5),
            "enemy_inset": ("1", 1.0),
            "run_law": ("2,5", (2.0, 5.0)),
            "hop_law": ("4, 10", (4.0, 10.0)),
            "leap_law": ("18,12", (18.0, 12.0)),
        }
        assert sorted(text) == sorted(f.name for f in fields(PlatformConfig))
        cfg = parse_config_text("".join(f"platform.{k} = {raw}\n" for k, (raw, _) in text.items()))
        assert cfg.env_overrides == {k: value for k, (_, value) in text.items()}

    @pytest.mark.parametrize("line, message", [
        ("platform.run_law = 2,5,7", "too many values"),
        ("platform.run_law = 2", "not enough values"),
        ("platform.platforms = 0:30:40", "too many values"),
        ("platform.platforms = 0:30,38", "not enough values"),
        ("sweep.batch_size = 12.5", "invalid literal for int"),
        ("sweep.hidden = 8|1.5", "invalid literal for int"),
        ("platform.bogus = 1", "unknown platform key 'bogus'"),
        ("sweep.gamma = 0.5", "unknown sweep key 'gamma'"),
    ])
    def test_malformed_line_named(self, line, message):
        with pytest.raises(ValueError, match=f"^line 2: {message}"):
            parse_config_text(f"episodes = 5\n{line}\n")

    @pytest.mark.parametrize("text, message", [
        ("env = bandit\nplatform.length = 50\n", "bandit takes no overrides"),
        ("env = platform\nplatform.length = 50\n", "platforms must span"),
    ], ids=["bandit", "platform-ending-past-length"])
    def test_overrides_that_build_no_env_rejected_at_load(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.conf")))
    def test_every_shipped_config_loads(self, name):
        cfg = load_config(str(CONFIGS / name))
        assert cfg.out_dir == f"runs/{name.removesuffix('.conf')}"

    def test_shipped_sweep_config_expands(self):
        cfg = load_config(str(CONFIGS / "platform_sweep.conf"))
        assert cfg.grid["hidden"] == ((128,), (256, 128))
        assert cfg.grid["batch_size"] == (128,)
        valid, rejected = expand_grid(cfg)
        assert len(valid) == 16
        assert rejected == []

    def test_sweep_grid_keys(self):
        cfg = parse_config_text(
            "sweep.lr_q = 1e-2,1e-3\nsweep.hidden = 8|16,8\nsweep.seeds = 2\n"
        )
        assert cfg.grid["lr_q"] == (0.01, 0.001)
        assert cfg.grid["hidden"] == ((8,), (16, 8))
        assert cfg.sweep_seeds == 2

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\nepisodes = 7  # trailing\n")
        assert cfg.episodes == 7


class TestTrain:
    def test_zero_budget_writes_header_and_checkpoint(self, tmp_path):
        cfg = bandit_cfg(tmp_path, episodes=0, seeds=(0,))
        (result,) = train(cfg)
        with open(result["csv"]) as fh:
            lines = fh.read().splitlines()
        assert lines == ["seed,episode,return,steps,epsilon,q_loss,actor_loss"]
        assert os.path.exists(result["checkpoint"])
        meta = json.load(open(result["meta"]))
        assert meta["status"] == "complete"

    def test_same_seed_bit_identical_csv(self, tmp_path):
        cfg = bandit_cfg(tmp_path)
        a = train_seed(cfg, 0, str(tmp_path / "a"))
        b = train_seed(cfg, 0, str(tmp_path / "b"))
        assert open(a["csv"], "rb").read() == open(b["csv"], "rb").read()

    def test_csv_schema_and_length(self, tmp_path):
        cfg = bandit_cfg(tmp_path, seeds=(1,))
        (result,) = train(cfg)
        rows = read_csv(result["csv"])
        assert len(rows) == cfg.episodes
        assert list(rows[0].keys()) == harness.TRAIN_HEADER
        assert int(rows[0]["seed"]) == 1
        assert int(rows[-1]["episode"]) == cfg.episodes - 1

    def test_crash_marks_meta_failed(self, tmp_path, monkeypatch):
        from pamdp.agent import PDQNAgent

        def raise_fpe(self, rng):
            raise FloatingPointError("injected")

        monkeypatch.setattr(PDQNAgent, "update_from_replay", raise_fpe)
        cfg = bandit_cfg(tmp_path)
        with pytest.raises(FloatingPointError, match="injected"):
            train_seed(cfg, 0, cfg.out_dir)
        meta = json.load(open(os.path.join(cfg.out_dir, "meta_seed0.json")))
        assert meta["status"] == "failed"
        assert meta["error"] == "FloatingPointError: injected"
        assert meta["failed_episode"] == 0
        assert not os.path.exists(os.path.join(cfg.out_dir, "checkpoint_seed0.ckpt"))

    def test_crash_names_episode_network_and_rows(self, tmp_path, monkeypatch):
        from pamdp.agent import PDQNAgent

        begin = PDQNAgent.begin_episode

        def poison_actor_at_episode_3(self, episode):
            if episode == 3:
                self.actor.net.layers[-1].biases[0] = np.inf
            return begin(self, episode)

        monkeypatch.setattr(PDQNAgent, "begin_episode", poison_actor_at_episode_3)
        cfg = bandit_cfg(tmp_path)
        # the bandit actor maps 1 state to 2 parameters through 8 hidden units
        message = "non-finite values in the output of a 1->8->2 network on 1 rows"
        with pytest.raises(FloatingPointError, match=message):
            train_seed(cfg, 0, cfg.out_dir)
        meta = json.load(open(os.path.join(cfg.out_dir, "meta_seed0.json")))
        assert (meta["status"], meta["failed_episode"]) == ("failed", 3)
        assert meta["error"] == f"FloatingPointError: {message}"
        rows = read_csv(os.path.join(cfg.out_dir, "train_seed0.csv"))
        assert [int(r["episode"]) for r in rows] == [0, 1, 2]

    def test_crash_after_the_episodes_names_no_episode(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "save_checkpoint", refuse)
        cfg = bandit_cfg(tmp_path)
        with pytest.raises(OSError, match="disk full"):
            train_seed(cfg, 0, cfg.out_dir)
        meta = json.load(open(os.path.join(cfg.out_dir, "meta_seed0.json")))
        assert (meta["status"], meta["failed_episode"]) == ("failed", None)
        assert len(read_csv(os.path.join(cfg.out_dir, "train_seed0.csv"))) == cfg.episodes

    def test_seed_stream_is_per_seed_independent(self):
        a = seed_stream(0).standard_normal(4)
        b = seed_stream(0).standard_normal(4)
        c = seed_stream(1).standard_normal(4)
        assert (a == b).all()
        assert (a != c).any()


class TestReportedDefaults:
    def test_run_config_defaults(self):
        cfg = RunConfig()
        assert cfg.batch_size == 128
        assert cfg.replay_capacity == 10000
        assert cfg.gamma == 0.9
        assert (cfg.tau_q, cfg.tau_actor) == (0.1, 0.001)
        assert (cfg.lr_q, cfg.lr_actor) == (1e-3, 1e-4)
        assert cfg.clip_grad == 10.0
        assert cfg.hidden == (128,)
        assert cfg.eval_episodes == 1000
        assert (cfg.epsilon_start, cfg.epsilon_end) == (1.0, 0.01)
        assert (cfg.ou_theta, cfg.ou_sigma, cfg.ou_mu) == (0.15, 0.0001, 0.0)

    def test_epsilon_horizon_defaults_to_first_tenth(self):
        cfg = RunConfig(episodes=5000)
        assert cfg.agent_config().epsilon_horizon == 500

    def test_shipped_platform_config(self):
        conf = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "platform_mpdqn.conf")
        cfg = load_config(conf)
        assert cfg.env == "platform"
        assert cfg.episodes == 80000
        assert cfg.eval_episodes == 1000
        assert cfg.hidden == (128,)


class TestEvaluate:
    def test_deterministic_env_zero_within_seed_variance(self, tmp_path):
        cfg = bandit_cfg(tmp_path, seeds=(0,))
        (result,) = train(cfg)
        returns, steps, header = evaluate_checkpoint(result["checkpoint"], 5)
        assert len(set(returns)) == 1  # greedy policy, deterministic env
        assert header["algorithm"] == "pdqn-multipass"

    def test_summary_matches_recomputation_from_raw_csv(self, tmp_path):
        cfg = bandit_cfg(tmp_path)
        train(cfg)
        summary = evaluate_run(cfg, episodes=3)
        means = []
        for seed in cfg.seeds:
            rows = read_csv(os.path.join(cfg.out_dir, f"eval_seed{seed}.csv"))
            assert list(rows[0].keys()) == harness.EVAL_HEADER
            means.append(np.mean([float(r["return"]) for r in rows]))
        mean, std, stderr = summarize(means)
        assert abs(summary.mean - mean) <= 1e-12
        assert abs(summary.std - std) <= 1e-12
        assert abs(summary.stderr - stderr) <= 1e-12
        srow = read_csv(os.path.join(cfg.out_dir, "summary.csv"))[0]
        assert list(srow.keys()) == harness.SUMMARY_HEADER
        assert float(srow["mean"]) == summary.mean

    def test_evaluation_is_repeatable(self, tmp_path):
        cfg = bandit_cfg(tmp_path, seeds=(0,))
        (result,) = train(cfg)
        r1, _, _ = evaluate_checkpoint(result["checkpoint"], 4)
        r2, _, _ = evaluate_checkpoint(result["checkpoint"], 4)
        assert r1 == r2


class TestCheckpointRoundTrip:
    def test_parameters_survive_round_trip(self, tmp_path):
        from pamdp.agent import AgentConfig, PDQNAgent
        from pamdp.qfunction import ActionSpaceSpec
        from pamdp.replay import Transition

        space = ActionSpaceSpec(state_dim=2, param_dims=(1, 1))
        cfg = AgentConfig(batch_size=4, initial_fill=4, replay_capacity=32,
                          hidden=(8,), epsilon_horizon=5)
        agent = PDQNAgent(space, "multipass", cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for _ in range(8):
            agent.replay.push(Transition(rng.standard_normal(2), 0,
                                         rng.uniform(-1, 1, 2), 0.5,
                                         rng.standard_normal(2), True))
        for _ in range(5):
            agent.update_from_replay(rng)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, agent, "pdqn-multipass", "bandit", {},
                        meta={"seed": 7}, rng_state=rng.bit_generator.state)
        loaded, header = load_checkpoint(path)
        for p, q in zip(agent.qf.parameters(), loaded.qf.parameters()):
            assert (p == q).all()
        for p, q in zip(agent.actor.net.parameters(), loaded.actor.net.parameters()):
            assert (p == q).all()
        assert loaded.q_opt.t == agent.q_opt.t
        s = rng.standard_normal(2)
        x = rng.uniform(-1, 1, 2)
        assert (agent.q_values(s, x) == loaded.q_values(s, x)).all()
        assert header["meta"]["seed"] == 7
        assert header["rng_state"] is not None

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_nonzero_passthrough_survives_round_trip(self, tmp_path, algorithm):
        """The loader builds a zero passthrough and fills it in place; the
        loaded actor must then apply it, as the saved one does."""
        from pamdp.agent import AgentConfig, make_agent
        from pamdp.policy import Passthrough
        from pamdp.qfunction import ActionSpaceSpec

        space = ActionSpaceSpec(state_dim=9, param_dims=(1, 1, 1))
        rng = np.random.default_rng(8)
        passthrough = Passthrough(0.1 * rng.standard_normal((9, 3)), 0.1 * rng.standard_normal(3))
        agent = make_agent(algorithm, space, AgentConfig(hidden=(8,)),
                           np.random.default_rng(9), passthrough)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, agent, algorithm, "platform", {})
        loaded, _ = load_checkpoint(path)
        assert not loaded.actor.passthrough.is_zero()
        assert (loaded.actor.passthrough.affine == agent.actor.passthrough.affine).all()
        states = rng.standard_normal((5, 9))
        assert np.array_equal(loaded.actor.forward(states), agent.actor.forward(states))
        for s in states:
            a, b = agent.select_action(s, False, rng), loaded.select_action(s, False, rng)
            assert a.k == b.k and np.array_equal(a.emitted, b.emitted)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def saved_checkpoint(path) -> bytes:
        from pamdp.agent import AgentConfig, PDQNAgent
        from pamdp.qfunction import ActionSpaceSpec

        space = ActionSpaceSpec(state_dim=2, param_dims=(1, 1))
        cfg = AgentConfig(hidden=(8,))
        agent = PDQNAgent(space, "multipass", cfg, np.random.default_rng(3))
        save_checkpoint(path, agent, "pdqn-multipass", "bandit", {})
        return path.read_bytes()

    def test_header_config_keeps_the_agent_config_fields(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        data = self.saved_checkpoint(path)
        hlen = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + hlen])
        assert sorted(header["config"]) == sorted([
            "gamma", "batch_size", "replay_capacity", "initial_fill", "lr_q", "lr_actor",
            "tau_q", "tau_actor", "clip_grad", "hidden", "activation", "leaky_slope",
            "epsilon_start", "epsilon_end", "epsilon_horizon", "ou_theta", "ou_sigma",
            "ou_mu", "ou_dt", "mixed_targets", "beta_mix",
        ])

    @pytest.mark.parametrize("token, field", [
        (b'"space"', "space"),
        (b'"hidden"', "config"),
        (b'"state_dim"', "space"),
        (b"multipass", "algorithm"),
    ], ids=["space", "hidden", "state_dim", "variant"])
    def test_valid_json_header_flip_names_path_and_field(self, tmp_path, token, field):
        path = tmp_path / "agent.ckpt"
        data = bytearray(self.saved_checkpoint(path))
        hlen = int.from_bytes(data[8:16], "little")
        flipped = data.index(token, 16, 16 + hlen) + len(token) // 2
        data[flipped] ^= 0x01  # another ASCII letter: the header stays valid JSON
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"header field {field!r}" in message

    @pytest.mark.parametrize("field", ["version", "header length", "header", "payload"])
    def test_truncated_file_names_path_and_offset(self, tmp_path, field):
        path = tmp_path / "agent.ckpt"
        data = self.saved_checkpoint(path)
        hlen = int.from_bytes(data[8:16], "little")
        last = json.loads(data[16 : 16 + hlen])["arrays"][-1]
        last_offset = len(data) - 8 * math.prod(last["shape"])
        cut, offset = {
            "version": (6, 4),
            "header length": (12, 8),
            "header": (16 + hlen // 2, 16),
            "payload": (len(data) - 4, last_offset),
        }[field]
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"byte offset {offset} " in message
        assert f"file ends at byte {cut}" in message

    def test_flipped_header_byte_names_path_and_offset(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        data = bytearray(self.saved_checkpoint(path))
        hlen = int.from_bytes(data[8:16], "little")
        flipped = 16 + hlen // 3
        data[flipped] ^= 0x80  # the header is ASCII JSON, so this is invalid UTF-8
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
        assert str(excinfo.value).endswith(f"byte offset {flipped}")


class TestSweep:
    def test_constraint_violating_cells_rejected_with_reason(self, tmp_path):
        cfg = bandit_cfg(tmp_path)
        cfg.grid = {"lr_q": (1e-3,), "lr_actor": (1e-2, 1e-4)}
        valid, rejected = expand_grid(cfg)
        assert len(valid) == 1
        assert valid[0]["lr_actor"] == 1e-4
        (cell, reason) = rejected[0]
        assert cell["lr_actor"] == 1e-2
        assert "lr_actor" in reason

    def test_tau_constraint(self, tmp_path):
        cfg = bandit_cfg(tmp_path)
        cfg.grid = {"tau_q": (0.01,), "tau_actor": (0.1,)}
        with pytest.raises(ValueError, match="every grid cell"):
            expand_grid(cfg)

    def test_single_cell_sweep_equals_direct_run(self, tmp_path):
        cfg = bandit_cfg(tmp_path, seeds=(0, 1), sweep_seeds=2)
        cfg.grid = {"lr_q": (0.01,)}
        results = sweep(cfg)
        assert len(results) == 1
        direct = bandit_cfg(tmp_path, seeds=(0, 1))
        direct.out_dir = str(tmp_path / "direct")
        train(direct)
        summary = evaluate_run(direct, episodes=direct.eval_episodes)
        assert results[0]["mean"] == pytest.approx(summary.mean, abs=1e-15)
        report = harness.sweep_report(cfg.out_dir)
        assert report[0]["cell"] == results[0]["cell"]

    def test_default_seeds_per_cell_is_five(self):
        assert RunConfig().sweep_seeds == 5
        assert len(RunConfig().seeds) == 5


class TestLoadConfigFile:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(BANDIT_CFG)
        cfg = load_config(str(path))
        assert cfg.env == "bandit"
