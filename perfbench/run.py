"""pamdp benchmark: ms per env step for training and greedy acting.

Usage, from the repository root:

    python3 perfbench/run.py --workload platform-train --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: one client, and the next env
step starts only after the previous step and its update finish. The
benchmark drives the package only through ``harness.train_seed``,
``harness.evaluate_checkpoint``, ``harness.load_config``, ``envs.make_env``
and ``harness.build_agent``, and imports it from ``src/`` next to this
directory; without that tree it exits with code 2 and prints no result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Details (environment, counts, CSV fingerprints) go to the lines
before it and to ``.perfbench/results/`` in the repository root.
"""

from __future__ import annotations

import os

# one BLAS thread (at most nproc): fixed before numpy is first imported
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from metrics import ALGORITHMS, END_TO_END, layer_metrics, per_layer_names
from tracing import END, START, TOP_LEVEL, Tracer, children_of, self_time, traced, unrestored

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PLATFORM = "configs/platform_desk.conf"
BANDIT = "configs/bandit_oracle.conf"


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    config: str
    episodes: int  # training episodes per train_seed call (and per fixture)
    train_seeds: int  # distinct training seeds per run, cycled round by round
    eval_episodes: int = 0  # episodes per evaluate_checkpoint call


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "platform-train": Workload("train", PLATFORM, 100, 3),
    "platform-eval": Workload("eval", PLATFORM, 100, 3, eval_episodes=500),
    "bandit-train": Workload("train", BANDIT, 1000, 2),
}
SETUP_PROBES = 7
# a Platform return sums per-step progress fractions; their exact sum is at
# most 1, the floating-point sum can exceed it by a few ulps
RETURN_SLACK = 1e-9


def training_seeds(seed: int, count: int) -> list[int]:
    """The run's training seeds, derived from the workload seed alone."""
    return [1000 * seed + i for i in range(count)]


class Checks:
    """Correctness checks; each failure counts as one failed operation."""

    def __init__(self):
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)


@dataclass
class Unit:
    """One timed call: a train_seed or an evaluate_checkpoint."""

    algorithm: str
    seed: int  # training seed of the trained or evaluated agent
    wall: float
    episodes: int
    steps: int
    # env steps that did the workload's work: those with an update when
    # training, all of them when acting
    work_steps: int
    mean_return: float = 0.0
    digest: str = ""
    returns: tuple = ()
    span_range: tuple = (0, 0)

    @property
    def ms_per_step(self) -> float:
        return 1e3 * self.wall / self.steps


def fail_layout(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "pamdp" / "__init__.py").is_file():
        fail_layout(f"no package source at {SRC / 'pamdp'}; run from a full checkout")
    for config in (PLATFORM, BANDIT):
        if not (ROOT / config).is_file():
            fail_layout(f"missing {config}")
    sys.path.insert(0, str(SRC))
    import pamdp

    if Path(pamdp.__file__).resolve().parent != (SRC / "pamdp").resolve():
        fail_layout(f"imported pamdp from {pamdp.__file__}, not from {SRC}")
    from pamdp import harness

    return harness


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pamdp").rglob("*.py")) + [ROOT / PLATFORM, ROOT / BANDIT]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_train_csv(checks: Checks, path, cfg, seed: int, tag: str):
    """Row count, loss finiteness once updates start, Platform return range.

    Returns (env steps, updates, mean return). The replay buffer grows only
    at episode end, so an episode updates on every step or on none.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    checks.expect(len(rows) == cfg.episodes, f"{tag}: {len(rows)} rows for {cfg.episodes} episodes")
    checks.expect([int(r["episode"]) for r in rows] == list(range(len(rows))),
                  f"{tag}: episode column is not 0..n-1")
    steps = updates = 0
    total = 0.0
    started = False
    for r in rows:
        n, ret = int(r["steps"]), float(r["return"])
        q_loss, actor_loss = float(r["q_loss"]), float(r["actor_loss"])
        started = started or not math.isnan(q_loss)
        if started:
            checks.expect(math.isfinite(q_loss) and math.isfinite(actor_loss),
                          f"{tag}: non-finite loss in episode {r['episode']}")
            updates += n
        if cfg.env == "platform":
            checks.expect(0.0 <= ret <= 1.0 + RETURN_SLACK, f"{tag}: return {ret} outside [0, 1]")
        checks.expect(int(r["seed"]) == seed and n >= 1, f"{tag}: bad row {r}")
        steps += n
        total += ret
    return steps, updates, total / max(len(rows), 1)


class Fingerprints:
    """Training-CSV SHA-256 per (config, algorithm, episodes, seed, source).

    Kept in the checkout so every repeat of a workload and seed is compared,
    also across runs. Keyed by a digest of the package source and configs,
    so a change to the code starts a new set instead of failing.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, checks: Checks, key: str, digest: str):
        key = f"{key}|{self.source[:16]}"
        seen = self.known.setdefault(key, digest)
        checks.expect(seen == digest, f"CSV hash of {key} is {digest[:12]}, was {seen[:12]}")

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Bench:
    def __init__(self, harness, workload: Workload, seed: int, work: Path, fingerprints):
        self.harness = harness
        self.workload = workload
        self.seeds = training_seeds(seed, workload.train_seeds)
        self.work = work
        self.checks = Checks()
        self.fingerprints = fingerprints
        base = harness.load_config(str(ROOT / workload.config))
        self.configs = {a: replace(base, algorithm=a, episodes=workload.episodes)
                        for a in ALGORITHMS}
        self.checkpoints: dict[tuple[str, int], str] = {}

    def train(self, algorithm: str, seed: int, tag: str) -> Unit:
        cfg = replace(self.configs[algorithm], seeds=(seed,))
        out = self.work / f"{algorithm}-{seed}"
        start = time.perf_counter()
        paths = self.harness.train_seed(cfg, seed, str(out))
        wall = time.perf_counter() - start
        steps, updates, mean_return = check_train_csv(
            self.checks, paths["csv"], cfg, seed, f"{tag} {algorithm} seed {seed}")
        digest = sha256_file(paths["csv"])
        self.fingerprints.check(
            self.checks, f"{self.workload.config}|{algorithm}|{cfg.episodes}|{seed}", digest)
        self.checkpoints[algorithm, seed] = paths["checkpoint"]
        return Unit(algorithm, seed, wall, cfg.episodes, steps, updates, mean_return, digest)

    def evaluate(self, algorithm: str, seed: int, tag: str) -> Unit:
        n = self.workload.eval_episodes
        start = time.perf_counter()
        returns, steps, _ = self.harness.evaluate_checkpoint(
            self.checkpoints[algorithm, seed], n, None, seed)
        wall = time.perf_counter() - start
        checks = self.checks
        checks.expect(len(returns) == n and len(steps) == n, f"{tag} {algorithm}: episode count")
        for ret, k in zip(returns, steps):
            checks.expect(0.0 <= ret <= 1.0 + RETURN_SLACK and k >= 1,
                          f"{tag} {algorithm} seed {seed}: eval return {ret} in {k} steps")
        return Unit(algorithm, seed, wall, n, sum(steps), sum(steps), sum(returns) / n,
                    returns=tuple(returns))

    def unit(self, algorithm: str, seed: int, tag: str) -> Unit:
        if self.workload.kind == "train":
            return self.train(algorithm, seed, tag)
        return self.evaluate(algorithm, seed, tag)

    def setup_times(self) -> list[float]:
        eval_kind = self.workload.kind == "eval"
        spec = {"src": str(SRC), "seed": self.seeds[0],
                "config": str(ROOT / self.workload.config), "algorithms": list(ALGORITHMS),
                "checkpoints": [self.checkpoints[a, self.seeds[0]] for a in ALGORITHMS]
                if eval_kind else []}
        times = []
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=120, check=True)
            times.append(float(done.stdout.strip().splitlines()[-1]))
        return times


def measure(bench: Bench, seconds: float, tracer: Tracer | None):
    """Round-robin over the algorithms until ``seconds`` have elapsed.

    Round r runs one unit per algorithm on training seed r mod n (with
    ``tracer``: one untraced and one traced unit each, alternating which goes
    first), and the algorithm order rotates every round. The first n rounds,
    one cycle over the training seeds, always run; after them, no round
    starts that the previous round's length says would end past the
    deadline.
    """
    plain: list[Unit] = []
    traced_units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    rnd = 0
    while rnd < len(bench.seeds) or time.perf_counter() + last_round <= deadline:
        began = time.perf_counter()
        seed = bench.seeds[rnd % len(bench.seeds)]
        order = ALGORITHMS[rnd % 4:] + ALGORITHMS[:rnd % 4]
        for algorithm in order:
            modes = (False, True) if tracer is not None else (False,)
            for with_trace in modes if rnd % 2 == 0 else modes[::-1]:
                if not with_trace:
                    plain.append(bench.unit(algorithm, seed, f"round {rnd}"))
                    continue
                lo = len(tracer.spans)
                with traced(tracer) as patched:
                    unit = bench.unit(algorithm, seed, f"traced round {rnd}")
                left = unrestored(patched)
                bench.checks.expect(not left, f"wrappers left installed: {left}")
                unit.span_range = (lo, len(tracer.spans))
                traced_units.append(unit)
        last_round = time.perf_counter() - began
        rnd += 1
    return plain, traced_units


def compare_repeats(checks: Checks, units: list[Unit]):
    """Units of one algorithm and seed must give the same CSV bytes (training)
    or the same returns (evaluation), traced or not."""
    first: dict[tuple[str, int], Unit] = {}
    for u in units:
        ref = first.setdefault((u.algorithm, u.seed), u)
        checks.expect((u.digest, u.returns) == (ref.digest, ref.returns),
                      f"{u.algorithm} seed {u.seed}: output differs between repeats")


def ms_per_work_step(units: list[Unit], algorithm: str) -> float:
    """Wall time of one cycle over the training seeds per work step of it.

    Each training seed counts once: its units' mean wall time over their
    work steps (equal across repeats, as the CSV checks hold). So every run
    weighs the seeds alike, however many rounds the run's speed fitted in;
    extra rounds only average the machine's speed states over more time.
    """
    walls: dict[int, list[float]] = {}
    work: dict[int, int] = {}
    for u in units:
        if u.algorithm == algorithm:
            walls.setdefault(u.seed, []).append(u.wall)
            work[u.seed] = u.work_steps
    if sum(work.values()) == 0:
        raise RuntimeError(f"{algorithm}: no unit did any work; lengthen the workload")
    return 1e3 * sum(statistics.fmean(w) for w in walls.values()) / sum(work.values())


def unaccounted_share(tracer: Tracer, units: list[Unit]) -> float:
    """Share of traced unit wall time that the top-level spans' children
    plus the harness self time do not cover.

    When the spans nest soundly this is only the gap between the
    benchmark's clock reads around a unit and the top-level wrapper's own;
    overlapping or escaping child spans would show as a negative share. The
    wrappers' cost inside the unit is not in it: ``trace.overhead_ratio``
    shows that.
    """
    spans = tracer.spans
    kids = children_of(spans)
    accounted = 0.0
    for u in units:
        for i in range(*u.span_range):
            if spans[i][0] in TOP_LEVEL:
                children = sum(spans[c][END] - spans[c][START] for c in kids.get(i, ()))
                accounted += children + self_time(spans, i, kids)
    wall = sum(u.wall for u in units)
    return (wall - accounted) / wall


def environment(seed: int, source: str) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source,
        "seed": seed,
    }


def summarize(units: list[Unit]) -> dict:
    """Per algorithm and training seed: counts, mean return, fingerprint."""
    out: dict = {}
    for u in units:
        entry = out.setdefault(u.algorithm, {}).setdefault(str(u.seed), {
            "episodes": u.episodes, "env_steps": u.steps, "work_steps": u.work_steps,
            "mean_return": u.mean_return, "csv_sha256": u.digest or None, "ms_per_step": []})
        entry["ms_per_step"].append(u.ms_per_step)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    harness = import_package()
    workload = WORKLOADS[workload_name]
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    source = source_digest()
    fingerprints = Fingerprints(state / "fingerprints.json", source)
    work = state / f"work-{os.getpid()}"
    try:
        bench = Bench(harness, workload, seed, work, fingerprints)
        details: dict = {"workload": workload_name, "seed": seed, "training_seeds": bench.seeds,
                         "seconds": seconds, "trace": int(trace),
                         "environment": environment(seed, source)}
        if workload.kind == "eval":
            # untimed fixture: checkpoints from platform-train's config and seeds
            fixture = [bench.train(a, s, "fixture") for s in bench.seeds for a in ALGORITHMS]
            details["fixture"] = summarize(fixture)
        setup = [] if trace else bench.setup_times()
        tracer = Tracer() if trace else None
        plain, traced_units = measure(bench, seconds, tracer)
        units = plain + traced_units
        compare_repeats(bench.checks, units)
        details["units"] = summarize(plain)
        if trace:
            overhead = sum(u.wall for u in traced_units) / sum(u.wall for u in plain)
            metrics = layer_metrics(
                tracer.spans,
                [(u.algorithm, *u.span_range, u.work_steps) for u in traced_units],
                overhead)
            details["spans"] = {"count": len(tracer.spans),
                                "unaccounted_share": unaccounted_share(tracer, traced_units)}
            units_of = {n: unit for n, unit, _ in per_layer_names()}
        else:
            metrics = {f"ms_per_step.{a}": ms_per_work_step(plain, a) for a in ALGORITHMS}
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            details["setup_s_samples"] = setup
            units_of = {n: unit for n, unit, _, _ in END_TO_END}
        checks = bench.checks
        details["checks"] = {"failed": checks.failed, "failures": checks.failures}
        result = {
            "correct": checks.failed == 0,
            "attempted": sum(u.episodes for u in units),
            "failed": checks.failed,
            "metrics": {n: {"value": v, "unit": units_of[n]} for n, v in metrics.items()},
        }
        fingerprints.save()
        return result, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps({"result": result, "details": details}, indent=1))
    print(json.dumps(details))
    for metric, entry in result["metrics"].items():
        print(f"{metric:<48} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
