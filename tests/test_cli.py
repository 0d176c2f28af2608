import os

import numpy as np
import pytest

from pamdp.checkpoint import load_checkpoint, save_checkpoint
from pamdp.cli import main
from pamdp.envs import make_env
from pamdp.harness import build_agent, parse_config_text, read_csv, seed_stream
from pamdp.qfunction import q_sensitivity_sweep

MINI_CONF = """
env = bandit
algorithm = pdqn-multipass
episodes = 5
seeds = 0
eval_episodes = 2
batch_size = 4
initial_fill = 4
replay_capacity = 32
hidden = 8
epsilon_horizon = 2
ou_sigma = 0.1
"""


@pytest.fixture
def trained(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(MINI_CONF + f"out_dir = {tmp_path / 'run'}\n")
    main(["train", "--config", str(conf)])
    return tmp_path


@pytest.fixture
def untrained_platform(tmp_path):
    """Checkpoint of an untrained joint agent whose greedy Platform episode
    lasts four steps."""
    cfg = parse_config_text("env = platform\nalgorithm = pdqn-joint\nhidden = 8\n")
    ckpt = tmp_path / "platform.ckpt"
    agent = build_agent(cfg, make_env("platform", {}).spec, seed_stream(0))
    save_checkpoint(ckpt, agent, "pdqn-joint", "platform", {})
    return ckpt


class TestTrainCommand:
    def test_writes_csv_and_checkpoint(self, trained):
        run = trained / "run"
        assert (run / "train_seed0.csv").exists()
        assert (run / "checkpoint_seed0.ckpt").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(MINI_CONF + f"out_dir = {tmp_path / 'ignored'}\n")
        main(["train", "--config", str(conf), "--seeds", "7", "--out",
              str(tmp_path / "override")])
        assert (tmp_path / "override" / "train_seed7.csv").exists()


class TestEvalCommand:
    def test_eval_writes_csv(self, trained, capsys):
        ckpt = trained / "run" / "checkpoint_seed0.ckpt"
        out = trained / "eval.csv"
        main(["eval", "--checkpoint", str(ckpt), "--episodes", "3", "--out", str(out)])
        rows = read_csv(str(out))
        assert len(rows) == 3
        assert list(rows[0].keys()) == ["seed", "episode", "return", "steps"]
        assert "return" in capsys.readouterr().out


class TestDiagnoseCommand:
    def test_sensitivity_csv_schema(self, trained):
        ckpt = trained / "run" / "checkpoint_seed0.ckpt"
        out = trained / "sweep.csv"
        main(["diagnose-sensitivity", "--checkpoint", str(ckpt), "--action", "1",
              "--points", "11", "--out", str(out)])
        rows = read_csv(str(out))
        assert len(rows) == 11
        assert list(rows[0].keys()) == ["sweep_value", "q_1", "q_2"]
        values = [float(r["sweep_value"]) for r in rows]
        assert values[0] == -1.0 and values[-1] == 1.0
        # multipass: only the swept action's column varies
        q1 = {r["q_1"] for r in rows}
        q2 = {r["q_2"] for r in rows}
        assert len(q1) == 1 and len(q2) > 1

    def test_target_network_flag(self, trained, capsys):
        ckpt = trained / "run" / "checkpoint_seed0.ckpt"
        main(["diagnose-sensitivity", "--checkpoint", str(ckpt), "--action", "0",
              "--points", "3", "--use-target"])
        out = capsys.readouterr().out
        assert out.startswith("sweep_value,q_1,q_2")


    def test_state_index_past_the_greedy_episode_rejected(self, trained):
        # a bandit episode is one step: only state index 0 exists
        ckpt = trained / "run" / "checkpoint_seed0.ckpt"
        with pytest.raises(SystemExit, match="greedy episode ended before reaching state index 1"):
            main(["diagnose-sensitivity", "--checkpoint", str(ckpt), "--action", "0",
                  "--state-index", "1", "--points", "3"])

    def test_state_index_of_the_terminal_step_rejected(self, untrained_platform):
        # the greedy episode ends on its fourth step, so there is no state 4
        with pytest.raises(SystemExit, match="before reaching state index 4"):
            main(["diagnose-sensitivity", "--checkpoint", str(untrained_platform),
                  "--action", "0", "--state-index", "4", "--points", "3"])

    def test_paddpg_checkpoint_rejected(self, tmp_path):
        # the relaxed critic scores one action, not K: no per-action table
        cfg = parse_config_text("env = bandit\nalgorithm = paddpg\nhidden = 8\n")
        ckpt = tmp_path / "paddpg.ckpt"
        agent = build_agent(cfg, make_env("bandit", {}).spec, seed_stream(0))
        save_checkpoint(ckpt, agent, "paddpg", "bandit", {})
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit, match="needs a P-DQN checkpoint; .* holds a paddpg agent"):
            main(["diagnose-sensitivity", "--checkpoint", str(ckpt), "--action", "0",
                  "--points", "3", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("state_index", [0, 3])
    def test_probes_the_state_a_greedy_rollout_reaches(self, untrained_platform, tmp_path,
                                                       state_index):
        out = tmp_path / "sweep.csv"
        main(["diagnose-sensitivity", "--checkpoint", str(untrained_platform), "--action", "2",
              "--state-index", str(state_index), "--points", "5", "--out", str(out)])
        # reference: step the greedy policy by hand from a fresh reset
        agent, _ = load_checkpoint(untrained_platform)
        env = make_env("platform", {})
        s = env.reset()
        for _ in range(state_index):
            action = agent.select_action(s, False, seed_stream(0))
            s, _, terminal = env.step(action.k, action.x_k)
            assert not terminal
        x = agent.actor.forward(s[None, :])[0]
        grid = np.linspace(*agent.space.bounds[agent.space.block(2).start], 5)
        table = q_sensitivity_sweep(agent.qf, s, x, 2, grid, 0)
        rows = read_csv(str(out))
        assert [float(r["sweep_value"]) for r in rows] == grid.tolist()
        assert [[float(r[f"q_{i}"]) for i in (1, 2, 3)] for r in rows] == table.tolist()


class TestSweepCommands:
    def test_sweep_and_report(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text(
            MINI_CONF
            + f"out_dir = {tmp_path / 'sweep'}\n"
            + "sweep.lr_q = 1e-2,1e-3\nsweep.seeds = 1\n"
        )
        main(["sweep", "--config", str(conf)])
        assert (tmp_path / "sweep" / "sweep_results.csv").exists()
        main(["sweep-report", "--dir", str(tmp_path / "sweep")])
        out = capsys.readouterr().out
        assert "#1" in out and "#2" in out
