import io
import json
import math
import os
import runpy
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp import harness
from pamdp.agent import AgentConfig, PDQNAgent, make_agent
from pamdp.checkpoint import _agent_arrays, load_checkpoint, save_checkpoint
from pamdp.envs import PlatformConfig, make_env
from pamdp.harness import (
    RunConfig,
    evaluate_checkpoint,
    evaluate_run,
    format_summary,
    load_config,
    parse_config_text,
    read_csv,
    seed_stream,
    smooth,
    summarize,
    sweep,
    sweep_runs,
    train,
    train_seed,
)
from pamdp.qfunction import ActionSpaceSpec
from pamdp.replay import Transition
from conftest import BANDIT_CFG, CONFIGS, checkpoint_arrays


def bandit_cfg(tmp_path, **kwargs):
    return replace(parse_config_text(BANDIT_CFG), out_dir=str(tmp_path / "run"), **kwargs)


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


# each parses as a float; only the config's finiteness check keeps it from training
NON_FINITE = [("lr_q", "nan"), ("lr_actor", "inf"), ("clip_grad", "inf"), ("ou_sigma", "nan"),
              ("ou_dt", "nan")]


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
        for key in ("env_overrides", "grid"):
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
        "epsilon_start": ("0.9", 0.9),
        "epsilon_end": ("0.2", 0.2),
        "epsilon_horizon": ("33", 33),
        "ou_theta": ("0.3", 0.3),
        "ou_sigma": ("0.02", 0.02),
        "ou_dt": ("0.5", 0.5),
        "mixed_targets": ("true", True),
        "beta_mix": ("0.6", 0.6),
    }

    def test_every_hyperparameter_reaches_the_agent_config(self):
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
        ("episodes = 6", "episodes is set again; line 1 set it"),
        ("sweep.hidden = 8|0", r"sweep cell hidden=0: hidden layer widths must be >= 1"),
        # keys of earlier versions whose one value in use is now a constant
        ("activation = relu", "unknown config key 'activation'"),
        ("leaky_slope = 0.01", "unknown config key 'leaky_slope'"),
        ("ou_mu = 0", "unknown config key 'ou_mu'"),
        ("sweep.seeds = 5", "unknown sweep key 'seeds'"),
    ])
    def test_malformed_line_named(self, line, message):
        with pytest.raises(ValueError, match=f"^line 2: {message}"):
            parse_config_text(f"episodes = 5\n{line}\n")

    @pytest.mark.parametrize("text, message", [
        ("env = bandit\nplatform.length = 50\n", "bandit takes no overrides"),
        ("env = platform\nplatform.length = 50\n", "platforms must span"),
        ("platform.run_law = 3,nan\n", r"run_law must be finite, got \(3.0, nan\)"),
        ("platform.enemy_speed = nan\n", "enemy_speed must be finite"),
    ], ids=["bandit", "platform-ending-past-length", "nan-law", "nan-enemy-speed"])
    def test_overrides_that_build_no_env_rejected_at_load(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("text, message", [
        ("gamma = 2\n", "line 1: gamma must lie in"),
        ("episodes = 5\nbatch_size = 64\nreplay_capacity = 32\n",
         "line 3: replay capacity must cover the batch size"),
        ("replay_capacity = 64\nbatch_size = 32\ntau_q = 5\n", "line 3: tau values must lie"),
        ("tau_q = 5\nepisodes = 5\ngamma = 2\n", "line 1: tau values must lie"),
        ("env = bandit\nplatform.length = 50\n", "line 2: bandit takes no overrides"),
        ("platform.enemy_speed = 0.5\n# the env\nenv = bandit\n", "line 3: bandit takes no overrides"),
        ("env = platform\nplatform.length = 50\n", "line 2: platforms must span"),
        ("episodes = 5\nhidden = 0\n", r"line 2: hidden layer widths must be >= 1, got \(0,\)"),
        ("episodes = 5\nou_sigma = -1\n", "line 2: invalid OU parameters"),
        ("episodes = 5\nou_theta = -1\n", "line 2: invalid OU parameters"),
        ("episodes = 5\nou_dt = 0\n", "line 2: invalid OU parameters"),
        ("gamma = 0.5\nepisodes = 5\ngamma = 0.7\n", "line 3: gamma is set again; line 1 set it"),
        ("seeds = -1\nepisodes = 5\n",
         r"line 1: seeds must be non-negative and distinct, got \(-1,\)"),
        ("episodes = 5\nseeds = 0,1,0\n",
         r"line 2: seeds must be non-negative and distinct, got \(0, 1, 0\)"),
        ("sweep.hidden = 8|0\nepisodes = 5\n", r"line 1: sweep cell hidden=0: hidden layer widths"),
        ("episodes = 5\nsweep.lr_actor = 1e-2\n",
         r"line 2: every sweep cell is rejected \(lr_actor=0.01: lr_actor 0.01 > lr_q 0.001\)"),
        ("episodes = 5\nenv = cartpole\n",
         r"line 2: unknown environment 'cartpole'; expected one of \('platform', 'bandit', 'chain'\)"),
        *((f"episodes = 5\n{key} = {value}\n", f"line 2: {key} must be finite, got {value}")
          for key, value in NON_FINITE),
    ], ids=["range", "cross-key", "cross-key-mended", "first-of-two", "bandit",
            "bandit-after-override", "platform-ending-past-length", "hidden-width-0",
            "ou_sigma-negative", "ou_theta-negative", "ou_dt-0",
            "key-set-twice", "seed-negative", "seed-repeated", "sweep-cell-hidden-0",
            "sweep-every-cell-rejected", "unknown-env",
            *(f"{key}-{value}" for key, value in NON_FINITE)])
    def test_config_that_builds_nothing_names_its_line(self, text, message):
        """The blamed line is the first after which the lines read so far
        build no config, and the message is the error they give."""
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_config_text(text)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.conf")))
    def test_every_shipped_config_loads(self, name):
        cfg = load_config(str(CONFIGS / name))
        assert cfg.out_dir == f"runs/{name.removesuffix('.conf')}"

    def test_shipped_sweep_config_expands(self):
        cfg = load_config(str(CONFIGS / "platform_sweep.conf"))
        assert cfg.grid["hidden"] == ((128,), (256, 128))
        assert cfg.grid["batch_size"] == (128,)
        assert len(cfg.runs) == 16
        assert cfg.rejected == []

    def test_sweep_grid_keys(self):
        cfg = parse_config_text(
            "sweep.lr_q = 1e-2,1e-3\nsweep.hidden = 8|16,8\n"
            "sweep.algorithm = pdqn-joint, paddpg\n"
        )
        assert cfg.grid["lr_q"] == (0.01, 0.001)
        assert cfg.grid["hidden"] == ((8,), (16, 8))
        # a string cell is stripped, in its value and in its cell's name
        assert cfg.grid["algorithm"] == ("pdqn-joint", "paddpg")
        assert cfg.runs[-1][0] == "algorithm=paddpg_hidden=16x8_lr_q=0.001"

    def test_comparison_config_is_the_desk_config_over_every_algorithm(self):
        comparison = load_config(str(CONFIGS / "platform_comparison.conf"))
        desk = load_config(str(CONFIGS / "platform_desk.conf"))
        assert comparison.grid == {"algorithm": harness.ALGORITHMS}
        assert replace(comparison, grid={}, out_dir=desk.out_dir) == desk
        assert [run.seeds for _, run in comparison.runs] == [desk.seeds] * 4

    @pytest.mark.parametrize("config, name", [
        (RunConfig(), "out_dir"), (AgentConfig(), "lr_q"), (PlatformConfig(), "length"),
    ], ids=["run", "agent", "platform"])
    def test_assigning_a_field_raises(self, config, name):
        # a changed config is a new one, built and checked by replace
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\nepisodes = 7  # trailing\n")
        assert cfg.episodes == 7


class TestCsvBytes:
    """Every CSV line goes through ``harness.csv_line``; these are the bytes
    the writers gave before they shared it."""

    def test_sensitivity_csv_bytes(self):
        grid = np.linspace(-1.0, 1.0, 5)
        table = np.array([[0.1, 1 / 3, -0.0], [1e-300, 2.5e16, -7.0], [np.nan, np.inf, 0.2 + 0.1],
                          [123456.789, -1e-5, 2.0], [5e-324, 1.7976931348623157e308, -0.5]])
        fh = io.StringIO()
        harness.write_sensitivity_csv(fh, grid, table)
        assert fh.getvalue() == (
            "sweep_value,q_1,q_2,q_3\n-1.0,0.1,0.3333333333333333,-0.0\n"
            "-0.5,1e-300,2.5e+16,-7.0\n0.0,nan,inf,0.30000000000000004\n"
            "0.5,123456.789,-1e-05,2.0\n1.0,5e-324,1.7976931348623157e+308,-0.5\n"
        )

    def test_learning_curves_bytes(self, tmp_path, monkeypatch, capsys):
        header = ",".join(harness.TRAIN_HEADER) + "\n"
        for seed, returns in ((0, [1.0, 0.5, 0.25, 2.0]), (3, [0.1, 0.2, 0.3, 0.4, 9.0])):
            (tmp_path / f"train_seed{seed}.csv").write_text(header + "".join(
                f"{seed},{i},{r},1,0.5,nan,nan\n" for i, r in enumerate(returns)))
        script = Path(__file__).resolve().parents[1] / "scripts" / "learning_curves.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--dir", str(tmp_path), "--window", "2"])
        runpy.run_path(str(script), run_name="__main__")
        assert (tmp_path / "curves.csv").read_bytes() == (
            b"episode,seed_0,seed_3,mean,stderr\n0,1.0,0.1,0.55,0.44999999999999996\n"
            b"1,0.75,0.15000000000000002,0.45,0.3\n"
            b"2,0.375,0.25000000000000006,0.3125,0.06249999999999997\n"
            b"3,1.125,0.35,0.7375,0.3875\n"
        )
        assert "4 episodes x 2 seeds" in capsys.readouterr().out


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

    def test_csv_schema_and_length(self, tmp_path):
        cfg = bandit_cfg(tmp_path, seeds=(1,))
        (result,) = train(cfg)
        rows = read_csv(result["csv"])
        assert len(rows) == cfg.episodes
        assert list(rows[0].keys()) == harness.TRAIN_HEADER
        assert int(rows[0]["seed"]) == 1
        assert int(rows[-1]["episode"]) == cfg.episodes - 1

    def test_crash_marks_meta_failed(self, tmp_path, monkeypatch):
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
        assert (cfg.ou_theta, cfg.ou_sigma) == (0.15, 0.0001)

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
        """The eval and summary CSVs carry their headers and summary.csv the
        returned mean; criterion 8 recomputes the summary from the CSVs."""
        cfg = bandit_cfg(tmp_path)
        train(cfg)
        summary = evaluate_run(cfg, episodes=3)
        for seed in cfg.seeds:
            rows = read_csv(os.path.join(cfg.out_dir, f"eval_seed{seed}.csv"))
            assert list(rows[0].keys()) == harness.EVAL_HEADER
        srow = read_csv(os.path.join(cfg.out_dir, "summary.csv"))[0]
        assert list(srow.keys()) == harness.SUMMARY_HEADER
        assert float(srow["mean"]) == summary.mean

    def test_episode_count_below_one_rejected(self, tmp_path):
        """0 episodes is a count, not "use the config's": it raises, as does
        -1; None evaluates ``cfg.eval_episodes``."""
        cfg = bandit_cfg(tmp_path, seeds=(0,), eval_episodes=2)
        train(cfg)
        for episodes in (0, -1):
            with pytest.raises(ValueError, match=f"episodes must be >= 1, got {episodes}"):
                evaluate_run(cfg, episodes=episodes)
        evaluate_run(cfg)
        assert len(read_csv(os.path.join(cfg.out_dir, "eval_seed0.csv"))) == 2

    def test_evaluation_is_repeatable(self, tmp_path):
        cfg = bandit_cfg(tmp_path, seeds=(0,))
        (result,) = train(cfg)
        r1, _, _ = evaluate_checkpoint(result["checkpoint"], 4)
        r2, _, _ = evaluate_checkpoint(result["checkpoint"], 4)
        assert r1 == r2


class TestCheckpointRoundTrip:
    def test_parameters_survive_round_trip(self, tmp_path):
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
        save_checkpoint(path, agent, "bandit", {},
                        meta={"seed": 7}, rng_state=rng.bit_generator.state)
        loaded, header = load_checkpoint(path)
        for net, twin in zip([*agent.qf.nets, agent.actor.net],
                             [*loaded.qf.nets, loaded.actor.net]):
            assert (net.flat == twin.flat).all()
        assert loaded.q_opt.t == agent.q_opt.t
        s = rng.standard_normal(2)
        x = rng.uniform(-1, 1, 2)
        assert (agent.q_values(s, x) == loaded.q_values(s, x)).all()
        assert header["meta"]["seed"] == 7
        assert header["rng_state"] is not None

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_header_names_the_saved_agent(self, tmp_path, algorithm):
        agent = make_agent(algorithm, ActionSpaceSpec(2, (1, 1)), AgentConfig(hidden=(4,)),
                           np.random.default_rng(3))
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, agent, "bandit", {})
        loaded, header = load_checkpoint(path)
        assert header["algorithm"] == agent.algorithm == algorithm
        assert type(loaded) is type(agent) and loaded.variant == agent.variant

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def load_error(path, data=None) -> str:
        """The message of the ValueError that loading ``path``, after writing
        ``data`` there if given, raises; it names the file."""
        if data is not None:
            path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
        return str(excinfo.value)

    @staticmethod
    def saved_checkpoint(path) -> bytes:
        space = ActionSpaceSpec(state_dim=2, param_dims=(1, 1))
        cfg = AgentConfig(hidden=(8,))
        agent = PDQNAgent(space, "multipass", cfg, np.random.default_rng(3))
        save_checkpoint(path, agent, "bandit", {})
        return path.read_bytes()

    def test_header_config_keeps_the_agent_config_fields(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        data = self.saved_checkpoint(path)
        hlen = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + hlen])
        assert sorted(header["config"]) == sorted([
            "gamma", "batch_size", "replay_capacity", "initial_fill", "lr_q", "lr_actor",
            "tau_q", "tau_actor", "clip_grad", "hidden", "epsilon_start", "epsilon_end",
            "epsilon_horizon", "ou_theta", "ou_sigma", "ou_dt", "mixed_targets", "beta_mix",
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
        assert f"header field {field!r}" in self.load_error(path, data)

    @pytest.mark.parametrize("field", ["version", "header length", "header", "payload"])
    def test_truncated_file_names_path_and_offset(self, tmp_path, field):
        path = tmp_path / "agent.ckpt"
        data = self.saved_checkpoint(path)
        hlen = int.from_bytes(data[8:16], "little")
        last_offset = [*checkpoint_arrays(data).values()][-1][0]
        cut, offset = {
            "version": (6, 4),
            "header length": (12, 8),
            "header": (16 + hlen // 2, 16),
            "payload": (len(data) - 4, last_offset),
        }[field]
        message = self.load_error(path, data[:cut])
        assert f"byte offset {offset} " in message
        assert f"file ends at byte {cut}" in message

    @pytest.mark.parametrize("array, value, what", [
        ("q/net0/layer0/weights", np.nan, "nan"),
        ("q_opt/v0", -1.0, "-1.0"),
        ("actor_opt/v1", np.inf, "inf"),
    ])
    def test_corrupt_payload_value_names_path_array_and_offset(self, tmp_path, array, value,
                                                               what):
        """A NaN or infinity anywhere, or a negative Adam second moment, is
        rejected at load, where it is written."""
        path = tmp_path / "agent.ckpt"
        data = bytearray(self.saved_checkpoint(path))
        offset = checkpoint_arrays(data)[array][0]
        data[offset : offset + 8] = np.float64(value).tobytes()
        message = self.load_error(path, data)
        assert f"array {array} " in message and f"holds {what} at byte offset {offset};" in message

    def test_negative_zero_second_moment_loads(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        data = bytearray(self.saved_checkpoint(path))
        offset = checkpoint_arrays(data)["q_opt/v0"][0]
        data[offset : offset + 8] = np.float64(-0.0).tobytes()
        path.write_bytes(bytes(data))
        loaded, _ = load_checkpoint(path)
        assert np.signbit(loaded.q_opt.v[0][0]) and loaded.q_opt.v[0][0] == 0.0

    @staticmethod
    def rewrite_header(path, edit, payload: bytes = b""):
        """Rewrite a saved checkpoint with ``edit`` applied to its header
        dict and ``payload`` appended to its payload."""
        data = path.read_bytes()
        hlen = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + hlen])
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[16 + hlen :]
                         + payload)

    @classmethod
    def with_passthrough_pair(cls, path, weights: np.ndarray, bias: np.ndarray):
        """Rewrite a saved checkpoint as earlier writers of format v1 saved
        an actor with a fixed passthrough map: the pair last in the manifest
        and in the payload. With an all-zero pair this gives the bytes those
        writers saved for a Platform agent of the same weights."""
        pair = [{"name": "passthrough/weights", "shape": list(weights.shape)},
                {"name": "passthrough/bias", "shape": list(bias.shape)}]
        cls.rewrite_header(path, lambda header: header["arrays"].extend(pair),
                           weights.astype("<f8").tobytes() + bias.astype("<f8").tobytes())

    # the config keys that earlier writers saved and this version fixes, at
    # the values every earlier run used
    RETIRED_KEYS = {"activation": "relu", "leaky_slope": 0.01, "ou_mu": 0.0}

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_retired_config_keys_of_an_earlier_writer_load(self, tmp_path, algorithm):
        """An earlier writer's header, with the retired keys at the values
        every run used, loads to the saved config and arrays."""
        agent = make_agent(algorithm, ActionSpaceSpec(2, (1, 1)), AgentConfig(hidden=(4,)),
                           np.random.default_rng(3))
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, agent, "bandit", {})
        self.rewrite_header(path, lambda header: header["config"].update(self.RETIRED_KEYS))
        loaded, _ = load_checkpoint(path)
        assert loaded.config == agent.config
        for (name, a), (_, b) in zip(_agent_arrays(agent), _agent_arrays(loaded), strict=True):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("key, value", [("activation", "leaky_relu"), ("ou_mu", 0.1)])
    def test_retired_config_key_off_its_constant_names_path_and_key(self, tmp_path, key, value):
        """This version has no leaky ReLU and explores with mean-zero OU
        noise, so a header asking for either cannot load."""
        path = tmp_path / "agent.ckpt"
        self.saved_checkpoint(path)
        self.rewrite_header(
            path, lambda header: header["config"].update(self.RETIRED_KEYS, **{key: value}))
        message = self.load_error(path)
        assert "header field 'config'" in message and f"key {key!r} holds {value!r}" in message

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_zero_passthrough_pair_of_an_earlier_writer_loads(self, tmp_path, algorithm):
        """Earlier versions saved every Platform agent with an all-zero pair;
        such a file loads to the saved arrays and acts as the saved agent."""
        cfg = parse_config_text(f"env = platform\nalgorithm = {algorithm}\nhidden = 8\n")
        agent = harness.build_agent(cfg, make_env("platform", {}).spec, seed_stream(0))
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, agent, "platform", {})
        dim = agent.actor.net.output_dim
        self.with_passthrough_pair(path, np.zeros((9, dim)), np.zeros(dim))
        loaded, header = load_checkpoint(path)
        assert header["arrays"][-1]["name"] == "passthrough/bias"
        saved = _agent_arrays(agent)
        assert [n for n, _ in _agent_arrays(loaded)] == [n for n, _ in saved]
        for (name, a), (_, b) in zip(saved, _agent_arrays(loaded)):
            assert np.array_equal(a, b), name
        rng = np.random.default_rng(5)
        for s in rng.uniform(-1.0, 1.0, (16, 9)):
            a, b = agent.select_action(s, False, rng), loaded.select_action(s, False, rng)
            assert a.k == b.k and np.array_equal(a.emitted, b.emitted)

    @pytest.mark.parametrize("array, index", [("passthrough/weights", 2),
                                              ("passthrough/bias", 1)])
    def test_nonzero_passthrough_pair_names_path_array_and_offset(self, tmp_path, array, index):
        """No agent applies a passthrough now, so a nonzero one cannot load."""
        path = tmp_path / "agent.ckpt"
        self.saved_checkpoint(path)
        pair = {"passthrough/weights": np.zeros((2, 2)), "passthrough/bias": np.zeros(2)}
        pair[array].flat[index] = 0.5
        self.with_passthrough_pair(path, *pair.values())
        offset = checkpoint_arrays(path.read_bytes())[array][0] + 8 * index
        message = self.load_error(path)
        assert f"array {array} " in message and f"holds 0.5 at byte offset {offset};" in message

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_file_raises_value_error_or_loads(self, tmp_path_factory,
                                                                   algorithm, data):
        """A checkpoint cut short, or with one byte changed, raises a
        ValueError naming the file or loads: the format has no checksum, so
        a changed payload value, or a header change that still rebuilds an
        agent, loads. No other exception escapes."""
        path = tmp_path_factory.mktemp("fuzz") / "agent.ckpt"
        agent = make_agent(algorithm, ActionSpaceSpec(2, (1, 1)), AgentConfig(hidden=(4,)),
                           np.random.default_rng(3))
        save_checkpoint(path, agent, "bandit", {})
        saved = path.read_bytes()
        damaged = bytearray(saved)
        if data.draw(st.booleans(), "truncated"):
            del damaged[data.draw(st.integers(0, len(saved) - 1), "length"):]
        else:
            damaged[data.draw(st.integers(0, len(saved) - 1), "byte")] ^= data.draw(
                st.integers(1, 255), "xor")
        path.write_bytes(bytes(damaged))
        try:
            load_checkpoint(path)
        except ValueError as exc:
            assert str(path) in str(exc)

    def test_flipped_header_byte_names_path_and_offset(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        data = bytearray(self.saved_checkpoint(path))
        hlen = int.from_bytes(data[8:16], "little")
        flipped = 16 + hlen // 3
        data[flipped] ^= 0x80  # the header is ASCII JSON, so this is invalid UTF-8
        assert self.load_error(path, data).endswith(f"byte offset {flipped}")


class TestSweep:
    def test_constraint_violating_cells_rejected_with_reason(self, tmp_path):
        cfg = bandit_cfg(tmp_path, grid={"lr_q": (1e-3,), "lr_actor": (1e-2, 1e-4)})
        runs, rejected = sweep_runs(cfg)
        assert (runs, rejected) == (cfg.runs, cfg.rejected)
        ((name, run),) = runs
        assert name == "lr_actor=0.0001_lr_q=0.001"
        # a cell trains every configured seed
        assert run == replace(cfg, lr_q=1e-3, lr_actor=1e-4, grid={},
                              out_dir=os.path.join(cfg.out_dir, name))
        assert rejected == [("lr_actor=0.01_lr_q=0.001", "lr_actor 0.01 > lr_q 0.001")]

    def test_tau_constraint(self, tmp_path):
        with pytest.raises(ValueError, match=r"every sweep cell is rejected "
                           r"\(tau_actor=0.1_tau_q=0.01: tau_actor 0.1 > tau_q 0.01\)"):
            bandit_cfg(tmp_path, grid={"tau_q": (0.01,), "tau_actor": (0.1,)})

    @pytest.mark.parametrize("grid", [{"lr_q": (0.01,)},
                                      {"algorithm": ("pdqn-joint", "paddpg")}],
                             ids=["lr_q", "algorithm"])
    def test_sweep_cells_equal_direct_runs(self, tmp_path, grid):
        cfg = bandit_cfg(tmp_path, seeds=(0, 1), grid=grid)
        results = sweep(cfg)
        assert len(results) == len(cfg.runs)
        for row in results:
            run = dict(cfg.runs)[row["cell"]]
            values = {key: getattr(run, key) for key in grid}
            direct = replace(cfg, grid={}, out_dir=str(tmp_path / "direct" / row["cell"]),
                             **values)
            train(direct)
            summary = evaluate_run(direct)
            assert row["mean"] == pytest.approx(summary.mean, abs=1e-15)
            for seed in direct.seeds:
                name = f"train_seed{seed}.csv"
                assert (Path(run.out_dir) / name).read_bytes() == \
                    (Path(direct.out_dir) / name).read_bytes()
        report = harness.sweep_report(cfg.out_dir)
        assert [r["cell"] for r in report] == [r["cell"] for r in results]


class TestLoadConfigFile:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(BANDIT_CFG)
        cfg = load_config(str(path))
        assert cfg.env == "bandit"
