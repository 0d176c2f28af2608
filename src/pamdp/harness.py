"""Experiment driver: seeded training, exploration-free evaluation, grid
sweeps, CSV logging and summary statistics.

Determinism contract: one run = one (config, seed) pair, driven by a single
RNG stream keyed by the seed alone (PCG64 over SeedSequence(seed)), so the
same pair always yields byte-identical CSV logs and adding more seeds to a
config never perturbs existing runs. Logs are appended line by line and
flushed, so a crashed run leaves a valid CSV plus a meta file that records
how far it was supposed to go.

Config files are flat ``key = value`` text; unknown keys are errors, and a
``sweep.*`` grid becomes its runs as it loads, so a bad cell fails before
any training. Every CSV line is built by ``csv_line``, with shortest
round-trip float formatting, so every summary is recomputable from the raw
logs.
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
from .envs import PlatformConfig, make_env
from .replay import Transition, finalize_episode

ALGORITHMS = ("pdqn-joint", "pdqn-separate", "pdqn-multipass", "paddpg")

TRAIN_HEADER = ["seed", "episode", "return", "steps", "epsilon", "q_loss", "actor_loss"]
EVAL_HEADER = ["seed", "episode", "return", "steps"]
SUMMARY_HEADER = ["algorithm", "env", "n_seeds", "mean", "std", "stderr"]


@dataclass(frozen=True)
class RunConfig(AgentConfig):
    """One experiment: the agent's hyperparameters, inherited from
    ``AgentConfig``, plus the run's own settings.

    ``runs`` and ``rejected`` are ``sweep_runs``'s lists, built when the
    config is made; the config is frozen, and ``dataclasses.replace``
    builds them again."""

    env: str = "platform"
    algorithm: str = "pdqn-multipass"
    episodes: int = 1000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "runs/out"
    eval_episodes: int = 1000
    max_episode_steps: int = 500

    env_overrides: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.episodes < 0 or self.eval_episodes < 1 or self.max_episode_steps < 1:
            raise ValueError("episode counts out of range")
        object.__setattr__(self, "seeds", checked_seeds(self.seeds))
        super().__post_init__()
        make_env(self.env, self.env_overrides)  # a bad env id or override fails here
        # and so does a sweep cell that builds no run, not mid-sweep
        runs, rejected = sweep_runs(self) if self.grid else ([], [])
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "rejected", rejected)

    def agent_config(self) -> AgentConfig:
        """The agent's share; a zero epsilon horizon becomes the first 10%
        of the episode budget."""
        values = {f.name: getattr(self, f.name) for f in fields(AgentConfig)}
        values["epsilon_horizon"] = self.epsilon_horizon or max(1, self.episodes // 10)
        return AgentConfig(**values)


_SWEEPABLE = ("algorithm", "lr_q", "lr_actor", "tau_q", "tau_actor", "batch_size", "hidden")


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
    if f.name not in ("env_overrides", "grid")
}
PLATFORM_KEYS = {f.name: _PARSERS[f.type] for f in fields(PlatformConfig)}


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat ``key = value`` format; unknown keys, and keys set
    twice, raise.

    Every error names a line. A config that does not build names the first
    line after which the lines read so far build none.
    """
    kwargs: dict = {}
    overrides: dict = {}
    grid: dict = {}
    set_on: dict = {}  # the line that set each key
    last = 0  # the last line that sets a key
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ValueError(f"line {lineno}: {key} is set again; line {set_on[key]} set it")
        set_on[key] = last = lineno
        try:
            if key.startswith("platform."):
                sub = key.removeprefix("platform.")
                if sub not in PLATFORM_KEYS:
                    raise ValueError(f"unknown platform key {sub!r}")
                overrides[sub] = PLATFORM_KEYS[sub](raw)
            elif key.startswith("sweep."):
                sub = key.removeprefix("sweep.")
                if sub in _SWEEPABLE:
                    # a tuple-valued field's cells hold commas themselves
                    field_type = RunConfig.__dataclass_fields__[sub].type
                    cells = raw.split("|" if field_type.startswith("tuple") else ",")
                    grid[sub] = tuple(CONFIG_KEYS[sub](cell.strip()) for cell in cells)
                else:
                    raise ValueError(f"unknown sweep key {sub!r}")
            elif key in CONFIG_KEYS:
                kwargs[key] = CONFIG_KEYS[key](raw)
            else:
                raise ValueError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    try:
        return RunConfig(**kwargs, env_overrides=overrides, grid=grid)
    except ValueError as exc:
        error = exc
    # the last key line is at fault, unless the lines before it build no
    # config either: then their error, which names its line, is raised
    parse_config_text("\n".join(text.splitlines()[: last - 1]))
    raise ValueError(f"line {last}: {error}") from None


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def seed_stream(seed: int) -> np.random.Generator:
    """The documented per-seed stream: PCG64 keyed by SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def checked_seeds(seeds) -> tuple[int, ...]:
    """The seeds as ints; each names a run's stream and files, so none may
    be negative (``SeedSequence`` rejects it) or repeated."""
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("expected at least one seed")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be non-negative and distinct, got {seeds}")
    return seeds


def build_agent(cfg: RunConfig, space, rng: np.random.Generator):
    return make_agent(cfg.algorithm, space, cfg.agent_config(), rng)


def csv_line(values) -> str:
    """One CSV line, newline included: floats in shortest round-trip form,
    as a plain float first so that numpy scalars cannot leak their repr,
    anything else as ``str``. Every CSV line the package writes is built
    here."""
    return ",".join(
        repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values
    ) + "\n"


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
        fh.write(csv_line(header))
        for row in rows:
            fh.write(csv_line(row))


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
            fh.write(csv_line(TRAIN_HEADER))
            fh.flush()
            for episode in range(cfg.episodes):
                eps = agent.begin_episode(episode)
                total, transitions, losses = run_episode(
                    env, agent, rng, True, cfg.max_episode_steps
                )
                finalize_episode(agent.replay, transitions, agent, cfg.beta_mix)
                # losses are nan for episodes with no updates
                if losses:
                    # np.mean's sum and division per column, a contiguous row each
                    columns = np.add.reduce(np.array(losses).T.copy(), axis=1)
                    q_loss, actor_loss = (columns / len(losses)).tolist()
                else:
                    q_loss = actor_loss = float("nan")
                fh.write(csv_line([seed, episode, total, len(transitions), eps, q_loss,
                                   actor_loss]))
                fh.flush()
        episode = None

        save_checkpoint(
            ckpt_path,
            agent,
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
    end = np.arange(1, series.size + 1)
    start = np.maximum(end - min(window, series.size), 0)  # no int64 overflow
    return (csum[end] - csum[start]) / (end - start)


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
    for _ in range(episodes):
        total, transitions, _ = run_episode(env, agent, rng, False, 10**6)
        returns.append(total)
        steps.append(len(transitions))
    if out_csv is not None:
        _write_csv(out_csv, EVAL_HEADER, [[seed, episode, total, n] for episode, (total, n)
                                          in enumerate(zip(returns, steps))])
    return returns, steps, header


def evaluate_run(cfg: RunConfig, episodes: int | None = None) -> EvalSummary:
    """Evaluate every seed checkpoint of a finished run and aggregate, over
    ``episodes`` episodes each, or ``cfg.eval_episodes`` if None."""
    if episodes is None:
        episodes = cfg.eval_episodes
    elif episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    means = []
    for seed in cfg.seeds:
        ckpt = os.path.join(cfg.out_dir, f"checkpoint_seed{seed}.ckpt")
        out_csv = os.path.join(cfg.out_dir, f"eval_seed{seed}.csv")
        returns, _, _ = evaluate_checkpoint(ckpt, episodes, out_csv)
        means.append(float(np.mean(returns)))
    mean, std, stderr = summarize(means)
    _write_csv(os.path.join(cfg.out_dir, "summary.csv"), SUMMARY_HEADER,
               [[cfg.algorithm, cfg.env, len(means), mean, std, stderr]])
    return EvalSummary(cfg.algorithm, cfg.env, tuple(means), mean, std, stderr)


def write_sensitivity_csv(fh, grid, table):
    """A ``q_sensitivity_sweep`` table as CSV text: ``sweep_value,q_1..q_K``,
    one row per grid value."""
    fh.write(csv_line(["sweep_value", *(f"q_{i + 1}" for i in range(table.shape[1]))]))
    for value, row in zip(grid, table):
        fh.write(csv_line([value, *row]))


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- grid sweeps ------------------------------------------------------------


def sweep_runs(cfg: RunConfig) -> tuple[list[tuple[str, RunConfig]], list[tuple[str, str]]]:
    """The config's grid, one cell per key combination in sorted key order,
    as (cell name, run) pairs and rejected (cell name, reason) pairs.

    A cell's run trains every configured seed into a directory named after
    the cell. Cells that break lr_actor <= lr_q or tau_actor <= tau_q, the
    search space the defaults came from, are rejected. A cell that builds
    no run raises, and so does a grid with no valid run.
    """
    keys = sorted(cfg.grid)
    runs, rejected = [], []
    for combo in itertools.product(*(cfg.grid[k] for k in keys)):
        name = "_".join(f"{k}={_cell_value(v)}" for k, v in zip(keys, combo))
        try:
            run = replace(cfg, grid={}, out_dir=os.path.join(cfg.out_dir, name),
                          **dict(zip(keys, combo)))
        except ValueError as exc:
            raise ValueError(f"sweep cell {name}: {exc}") from None
        if run.lr_actor > run.lr_q:
            rejected.append((name, f"lr_actor {run.lr_actor} > lr_q {run.lr_q}"))
        elif run.tau_actor > run.tau_q:
            rejected.append((name, f"tau_actor {run.tau_actor} > tau_q {run.tau_q}"))
        else:
            runs.append((name, run))
    if not runs:
        raise ValueError("every sweep cell is rejected ({}: {})".format(*rejected[0]))
    return runs, rejected


def _cell_value(value):
    """A grid value as cell names and the results table write it: a tuple's
    entries joined by ``x``, as in ``8x8``."""
    return "x".join(map(str, value)) if isinstance(value, tuple) else value


def sweep(cfg: RunConfig) -> list[dict]:
    """Train and evaluate the runs the config built at load, none without a
    grid; rank them by mean eval return."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.rejected:
        _write_csv(os.path.join(cfg.out_dir, "rejected_cells.csv"), ["cell", "reason"],
                   cfg.rejected)
    results = []
    for name, run in cfg.runs:
        train(run)
        summary = evaluate_run(run)
        results.append(
            {"cell": name, "mean": summary.mean, "std": summary.std,
             "stderr": summary.stderr, "n_seeds": summary.n_seeds,
             **{k: _cell_value(getattr(run, k)) for k in cfg.grid}}
        )
    results.sort(key=lambda r: r["mean"], reverse=True)
    for rank, row in enumerate(results, start=1):
        row["rank"] = rank
    cols = ["rank", "cell", "n_seeds", "mean", "std", "stderr", *sorted(cfg.grid)]
    _write_csv(os.path.join(cfg.out_dir, "sweep_results.csv"), cols,
               [[row[c] for c in cols] for row in results])
    return results


def sweep_report(out_dir: str) -> list[dict]:
    """The ranked rows of a sweep directory, as ``sweep`` wrote them."""
    return read_csv(os.path.join(out_dir, "sweep_results.csv"))
