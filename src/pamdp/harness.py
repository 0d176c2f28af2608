"""Experiment driver: seeded training, exploration-free evaluation, grid
sweeps, CSV logging and summary statistics.

Determinism contract: one run = one (config, seed) pair, driven by a single
RNG stream keyed by the seed alone (PCG64 over SeedSequence(seed)), so the
same pair always yields byte-identical CSV logs and adding more seeds to a
config never perturbs existing runs. Logs are appended line by line and
flushed, so a crashed run leaves a valid CSV plus a meta file that records
how far it was supposed to go.

Config files are flat ``key = value`` text; unknown keys are errors. All
numbers written to CSVs use shortest round-trip float formatting so every
summary is recomputable from the raw logs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .agent import AgentConfig, make_agent
from .checkpoint import load_checkpoint, save_checkpoint
from .envs import PlatformConfig, make_env, platform_default_passthrough
from .replay import Transition, finalize_episode

ALGORITHMS = ("pdqn-joint", "pdqn-separate", "pdqn-multipass", "paddpg")
ENV_IDS = ("platform", "bandit", "chain")

TRAIN_HEADER = ["seed", "episode", "return", "steps", "epsilon", "q_loss", "actor_loss"]
EVAL_HEADER = ["seed", "episode", "return", "steps"]
SUMMARY_HEADER = ["algorithm", "env", "n_seeds", "mean", "std", "stderr"]


@dataclass
class RunConfig(AgentConfig):
    """One experiment: the agent's hyperparameters, inherited from
    ``AgentConfig``, plus the run's own settings."""

    env: str = "platform"
    algorithm: str = "pdqn-multipass"
    episodes: int = 1000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "runs/out"
    eval_episodes: int = 1000
    max_episode_steps: int = 500

    sweep_seeds: int = 5
    env_overrides: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.env not in ENV_IDS:
            raise ValueError(f"unknown env {self.env!r}; expected one of {ENV_IDS}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.episodes < 0 or self.eval_episodes < 1 or self.max_episode_steps < 1:
            raise ValueError("episode counts out of range")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.sweep_seeds < 1:
            raise ValueError("sweep_seeds must be positive")
        self.seeds = tuple(int(s) for s in self.seeds)
        super().__post_init__()
        make_env(self.env, self.env_overrides)  # bad overrides fail here, not mid-sweep

    def agent_config(self) -> AgentConfig:
        """The agent's share; a zero epsilon horizon becomes the first 10%
        of the episode budget."""
        values = {f.name: getattr(self, f.name) for f in fields(AgentConfig)}
        values["epsilon_horizon"] = self.epsilon_horizon or max(1, self.episodes // 10)
        return AgentConfig(**values)


_SWEEPABLE = ("lr_q", "lr_actor", "tau_q", "tau_actor", "batch_size", "hidden")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",") if v.strip())


def _parse_pair(raw: str, sep: str = ",") -> tuple[float, float]:
    a, b = (float(v) for v in raw.split(sep))  # exactly two numbers, or ValueError
    return (a, b)


def _parse_spans(raw: str) -> tuple[tuple[float, float], ...]:
    return tuple(_parse_pair(span, ":") for span in raw.split(","))


# one parser per annotated field type, so each key is parsed by the type of
# the dataclass field it sets
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[int, ...]": _parse_int_tuple,
            "tuple[float, float]": _parse_pair,
            "tuple[tuple[float, float], ...]": _parse_spans}
# every accepted top-level config key and how its value is parsed; the
# sweep.* and platform.* keys set the remaining fields
CONFIG_KEYS = {
    f.name: _PARSERS[f.type]
    for f in fields(RunConfig)
    if f.name not in ("sweep_seeds", "env_overrides", "grid")
}
PLATFORM_KEYS = {f.name: _PARSERS[f.type] for f in fields(PlatformConfig)}


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat ``key = value`` format; unknown keys raise."""
    kwargs: dict = {}
    overrides: dict = {}
    grid: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            if key.startswith("platform."):
                sub = key.removeprefix("platform.")
                if sub not in PLATFORM_KEYS:
                    raise ValueError(f"unknown platform key {sub!r}")
                overrides[sub] = PLATFORM_KEYS[sub](raw)
            elif key.startswith("sweep."):
                sub = key.removeprefix("sweep.")
                if sub == "seeds":
                    kwargs["sweep_seeds"] = int(raw)
                elif sub in _SWEEPABLE:
                    # a tuple-valued field's cells hold commas themselves
                    field_type = RunConfig.__dataclass_fields__[sub].type
                    cells = raw.split("|" if field_type.startswith("tuple") else ",")
                    grid[sub] = tuple(CONFIG_KEYS[sub](cell) for cell in cells)
                else:
                    raise ValueError(f"unknown sweep key {sub!r}")
            elif key in CONFIG_KEYS:
                kwargs[key] = CONFIG_KEYS[key](raw)
            else:
                raise ValueError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return RunConfig(**kwargs, env_overrides=overrides, grid=grid)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def seed_stream(seed: int) -> np.random.Generator:
    """The documented per-seed stream: PCG64 keyed by SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def build_agent(cfg: RunConfig, space, rng: np.random.Generator):
    passthrough = platform_default_passthrough(space) if cfg.env == "platform" else None
    return make_agent(cfg.algorithm, space, cfg.agent_config(), rng, passthrough)


def _fmt(value) -> str:
    # shortest round-trip formatting; plain float first so numpy scalars
    # cannot leak their repr into the CSVs
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def run_episode(env, agent, rng, train: bool, max_steps: int):
    """One rollout, greedy or, when ``train``, exploring with one update step
    from replay after each env step.

    Returns (undiscounted return, transitions, the (q_loss, actor_loss)
    pairs of the updates that ran).
    """
    s = env.reset()
    transitions, losses = [], []
    total = 0.0
    for _ in range(max_steps):
        action = agent.select_action(s, train, rng)
        s_next, r, terminal = env.step(action.k, action.x_k)
        transitions.append(Transition(s, action.k, action.emitted, r, s_next, terminal))
        total += r
        if train:
            step_losses = agent.update_from_replay(rng)
            if step_losses is not None:
                losses.append(step_losses)
        s = s_next
        if terminal:
            break
    return total, transitions, losses


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_meta(path: str, meta: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)


def train_seed(cfg: RunConfig, seed: int, out_dir: str) -> dict:
    """Train one seed; writes train_seed<seed>.csv and checkpoint, returns paths.

    meta_seed<seed>.json says "running" during training, then "complete", or
    "failed" with the error text and ``failed_episode``, the episode that
    raised (null when it was not an episode).
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"train_seed{seed}.csv")
    ckpt_path = os.path.join(out_dir, f"checkpoint_seed{seed}.ckpt")
    meta_path = os.path.join(out_dir, f"meta_seed{seed}.json")

    rng = seed_stream(seed)
    env = make_env(cfg.env, cfg.env_overrides)
    agent = build_agent(cfg, env.spec, rng)

    meta = {
        "seed": seed,
        "episodes_planned": cfg.episodes,
        "algorithm": cfg.algorithm,
        "env": cfg.env,
        "status": "running",
    }
    _write_meta(meta_path, meta)
    episode = None  # the episode in progress, None outside the loop
    try:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(TRAIN_HEADER) + "\n")
            fh.flush()
            for episode in range(cfg.episodes):
                eps = agent.begin_episode(episode)
                total, transitions, losses = run_episode(
                    env, agent, rng, True, cfg.max_episode_steps
                )
                finalize_episode(agent.replay, transitions, agent, cfg.beta_mix)
                # losses are nan for episodes with no updates
                if losses:
                    q_loss, actor_loss = (float(np.mean(col)) for col in zip(*losses))
                else:
                    q_loss = actor_loss = float("nan")
                row = [seed, episode, total, len(transitions), eps, q_loss, actor_loss]
                fh.write(",".join(_fmt(v) for v in row) + "\n")
                fh.flush()
        episode = None

        save_checkpoint(
            ckpt_path,
            agent,
            cfg.algorithm,
            cfg.env,
            cfg.env_overrides,
            meta={"seed": seed, "episodes_trained": cfg.episodes},
            rng_state=rng.bit_generator.state,
        )
    except BaseException as exc:
        # interrupts too: a dead run must not be left marked as running
        meta["status"] = "failed"
        meta["error"] = f"{type(exc).__name__}: {exc}"
        meta["failed_episode"] = episode
        _write_meta(meta_path, meta)
        raise
    meta["status"] = "complete"
    _write_meta(meta_path, meta)
    return {"csv": csv_path, "checkpoint": ckpt_path, "meta": meta_path}


def train(cfg: RunConfig) -> list[dict]:
    """Train every configured seed; returns the per-seed artifact paths."""
    return [train_seed(cfg, seed, cfg.out_dir) for seed in cfg.seeds]


@dataclass
class EvalSummary:
    algorithm: str
    env: str
    per_seed_means: tuple[float, ...]
    mean: float
    std: float
    stderr: float

    @property
    def n_seeds(self) -> int:
        return len(self.per_seed_means)


def summarize(values) -> tuple[float, float, float]:
    """Sample mean, sample std (n-1 denominator, 0 for n=1), stderr."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("nothing to summarize")
    mean = float(values.mean())
    std = 0.0 if values.size == 1 else float(values.std(ddof=1))
    return mean, std, std / math.sqrt(values.size)


def format_summary(mean: float, std: float) -> str:
    return f"{mean:.3f} ± {std:.3f}"


def smooth(series, window: int):
    """Trailing moving average; the first points average their prefix."""
    series = np.asarray(list(series), dtype=np.float64)
    if series.size == 0:
        raise ValueError("cannot smooth an empty series")
    if window < 1:
        raise ValueError("window must be >= 1")
    csum = np.concatenate([[0.0], np.cumsum(series)])
    out = np.empty_like(series)
    for i in range(series.size):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def evaluate_checkpoint(ckpt_path: str, episodes: int, out_csv: str | None = None,
                        eval_seed: int = 0):
    """Greedy rollouts (epsilon 0, no noise) from a checkpointed agent.

    Returns (per-episode returns, steps, header). The stream seeding only
    matters for stochastic environments; greedy action selection draws no
    random numbers.
    """
    agent, header = load_checkpoint(ckpt_path)
    env = make_env(header["env_id"], header["env_overrides"])
    rng = seed_stream(eval_seed)
    seed = header["meta"].get("seed", 0)
    returns, steps = [], []
    rows = []
    for episode in range(episodes):
        total, transitions, _ = run_episode(env, agent, rng, False, 10**6)
        returns.append(total)
        steps.append(len(transitions))
        rows.append([seed, episode, total, len(transitions)])
    if out_csv is not None:
        _write_csv(out_csv, EVAL_HEADER, rows)
    return returns, steps, header


def evaluate_run(cfg: RunConfig, episodes: int | None = None,
                 out_dir: str | None = None) -> EvalSummary:
    """Evaluate every seed checkpoint of a finished run and aggregate."""
    episodes = episodes or cfg.eval_episodes
    out_dir = out_dir or cfg.out_dir
    means = []
    for seed in cfg.seeds:
        ckpt = os.path.join(out_dir, f"checkpoint_seed{seed}.ckpt")
        out_csv = os.path.join(out_dir, f"eval_seed{seed}.csv")
        returns, _, _ = evaluate_checkpoint(ckpt, episodes, out_csv)
        means.append(float(np.mean(returns)))
    mean, std, stderr = summarize(means)
    summary = EvalSummary(cfg.algorithm, cfg.env, tuple(means), mean, std, stderr)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [summary])
    return summary


def write_summary_csv(path: str, summaries: list[EvalSummary]):
    _write_csv(path, SUMMARY_HEADER,
               [[s.algorithm, s.env, s.n_seeds, s.mean, s.std, s.stderr] for s in summaries])


def write_sensitivity_csv(fh, grid, table):
    """A ``q_sensitivity_sweep`` table as CSV text: ``sweep_value,q_1..q_K``,
    one row per grid value."""
    fh.write("sweep_value," + ",".join(f"q_{i + 1}" for i in range(table.shape[1])) + "\n")
    for value, row in zip(grid, table):
        fh.write(",".join(repr(float(c)) for c in (value, *row)) + "\n")


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- hyperparameter sweeps ----------------------------------------------


def expand_grid(cfg: RunConfig) -> tuple[list[dict], list[tuple[dict, str]]]:
    """Cells of the config's grid, split into (valid, rejected-with-reason).

    The learning-rate and Polyak constraints mirror the search space the
    defaults came from: lr_actor <= lr_q and tau_actor <= tau_q.
    """
    if not cfg.grid:
        raise ValueError("config defines no sweep.* grid values")
    keys = sorted(cfg.grid)
    valid, rejected = [], []
    for combo in itertools.product(*(cfg.grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        lr_q = cell.get("lr_q", cfg.lr_q)
        lr_actor = cell.get("lr_actor", cfg.lr_actor)
        tau_q = cell.get("tau_q", cfg.tau_q)
        tau_actor = cell.get("tau_actor", cfg.tau_actor)
        if lr_actor > lr_q:
            rejected.append((cell, f"lr_actor {lr_actor} > lr_q {lr_q}"))
        elif tau_actor > tau_q:
            rejected.append((cell, f"tau_actor {tau_actor} > tau_q {tau_q}"))
        else:
            valid.append(cell)
    if not valid:
        raise ValueError("every grid cell violates the sweep constraints")
    return valid, rejected


def _cell_name(cell: dict) -> str:
    parts = []
    for key in sorted(cell):
        value = cell[key]
        if isinstance(value, tuple):
            value = "x".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return "_".join(parts) or "base"


def sweep(cfg: RunConfig) -> list[dict]:
    """Train and evaluate each valid grid cell; rank by mean eval return."""
    valid, rejected = expand_grid(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if rejected:
        _write_csv(os.path.join(cfg.out_dir, "rejected_cells.csv"), ["cell", "reason"],
                   [[_cell_name(cell), reason] for cell, reason in rejected])
    results = []
    for cell in valid:
        name = _cell_name(cell)
        cell_dir = os.path.join(cfg.out_dir, name)
        cell_cfg = replace(
            cfg,
            out_dir=cell_dir,
            seeds=cfg.seeds[: cfg.sweep_seeds],
            grid={},
            **cell,
        )
        train(cell_cfg)
        summary = evaluate_run(cell_cfg)
        results.append(
            {"cell": name, "mean": summary.mean, "std": summary.std,
             "stderr": summary.stderr, "n_seeds": summary.n_seeds, **{
                 k: (v if not isinstance(v, tuple) else "x".join(map(str, v)))
                 for k, v in cell.items()}}
        )
    results.sort(key=lambda r: r["mean"], reverse=True)
    for rank, row in enumerate(results, start=1):
        row["rank"] = rank
    header = ["rank", "cell", "n_seeds", "mean", "std", "stderr"]
    cols = header + sorted({k for r in results for k in r} - set(header))
    _write_csv(os.path.join(cfg.out_dir, "sweep_results.csv"), cols,
               [[row.get(c, "") for c in cols] for row in results])
    return results


def sweep_report(out_dir: str) -> list[dict]:
    """Read back a sweep directory and return the ranked rows."""
    rows = read_csv(os.path.join(out_dir, "sweep_results.csv"))
    rows.sort(key=lambda r: int(r["rank"]))
    return rows
