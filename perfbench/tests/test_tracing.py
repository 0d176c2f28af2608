"""Tests of the benchmark's span recording and per-layer arithmetic.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import hashlib
import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import metrics
import run
import tracing
from tracing import END, NAME, START, Tracer, children_of, covered, outermost, row_bucket, self_time

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_is_duration_minus_child_cover():
    spans = [
        span("top", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: the union counts once
        span("c", 9.0, 12.0, 0),  # runs past the parent's end: clipped
        span("grandchild", 1.5, 2.5, 1),  # inside a, not a direct child
    ]
    kids = children_of(spans)
    assert self_time(spans, 0, kids) == pytest.approx(10.0 - (4.0 + 1.0))
    assert self_time(spans, 1, kids) == pytest.approx(2.0 - 1.0)
    assert self_time(spans, 2, kids) == pytest.approx(3.0)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 0.5), (0.8, 4.0)], 0.0, 1.0) == pytest.approx(0.7)


@pytest.mark.parametrize("rows, bucket", [
    (1, "rows_1"), (2, "rows_2to8"), (3, "rows_2to8"), (8, "rows_2to8"),
    (9, "rows_9to200"), (128, "rows_9to200"), (200, "rows_9to200"),
    (201, "rows_over200"), (384, "rows_over200"),
])
def test_row_bucket(rows, bucket):
    assert row_bucket(rows) == bucket


def test_row_bucket_rejects_empty_call():
    with pytest.raises(ValueError):
        row_bucket(0)


def test_outermost_skips_nested_calls_of_the_same_name():
    spans = [span("f", 0, 4), span("g", 1, 3, 0), span("f", 1.5, 2, 1), span("f", 5, 6)]
    assert outermost(spans) == [0, 1, 3]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    tracer.wrap("ok", lambda: 1)()
    assert [s[NAME] for s in tracer.spans] == ["boom", "ok"]
    assert tracer.spans[1][tracing.PARENT] == -1
    assert tracer.spans[0][END] >= tracer.spans[0][START]


def _bandit_cfg(harness, algorithm, episodes=80):
    cfg = harness.load_config(str(ROOT / "configs" / "bandit_oracle.conf"))
    return replace(cfg, algorithm=algorithm, episodes=episodes, seeds=(3,))


def _train(harness, cfg, out):
    start = time.perf_counter()
    paths = harness.train_seed(cfg, 3, str(out))
    wall = time.perf_counter() - start
    return hashlib.sha256(Path(paths["csv"]).read_bytes()).hexdigest(), wall


def _lookup_sites(original):
    import sys

    return [(m, k) for n, m in list(sys.modules.items())
            if m is not None and n.startswith("pamdp")
            for k, v in list(vars(m).items()) if v is original]


def test_wrappers_cover_every_lookup_site_and_are_restored(tmp_path):
    from pamdp import agent, harness, nncore, qfunction, replay

    forward = nncore.forward
    sites = _lookup_sites(forward)
    # agent, qfunction and policy bind forward by name
    assert {m.__name__ for m, _ in sites} >= {"pamdp.nncore", "pamdp.agent",
                                              "pamdp.qfunction", "pamdp.policy"}
    methods = {"select_action": agent.PDQNAgent.__dict__["select_action"],
               "evaluate": qfunction.QFunction.__dict__["evaluate"]}
    finalize = replay.finalize_episode

    tracer = Tracer()
    with tracing.traced(tracer) as patched:
        assert all(getattr(m, k) is not forward for m, k in sites)
        assert harness.finalize_episode is not finalize
        assert agent.PDQNAgent.__dict__["select_action"] is not methods["select_action"]
        digest_traced, _ = _train(harness, _bandit_cfg(harness, "pdqn-multipass"), tmp_path / "t")
    assert tracing.unrestored(patched) == []
    assert all(getattr(m, k) is forward for m, k in sites)
    assert harness.finalize_episode is finalize
    assert agent.PDQNAgent.__dict__["select_action"] is methods["select_action"]
    assert qfunction.QFunction.__dict__["evaluate"] is methods["evaluate"]

    names = {s[NAME] for s in tracer.spans}
    assert {"nncore.forward", "nncore.backward", "agent.stack_batch",
            "agent.bootstrap_targets", "replay.finalize_episode", "envs.step"} <= names

    # tracing draws no random numbers and changes no byte
    digest_plain, _ = _train(harness, _bandit_cfg(harness, "pdqn-multipass"), tmp_path / "p")
    assert digest_traced == digest_plain
    assert len(tracer.spans) > 0 and not _lookup_sites_wrapped()


def _lookup_sites_wrapped():
    import sys

    return [k for n, m in list(sys.modules.items()) if m is not None and n.startswith("pamdp")
            for k, v in list(vars(m).items())
            if getattr(v, "__qualname__", "").endswith("traced_call")]


# with soundly nested spans, the only time outside the children and the
# harness self time is the gap between this test's clock reads around
# train_seed and the wrapper's: well under 1% of a run. The wrappers' cost
# inside train_seed is not in it; trace.overhead_ratio reports that.
UNACCOUNTED_TOLERANCE = 0.01


@pytest.mark.parametrize("algorithm", ["pdqn-separate", "paddpg"])
def test_top_level_spans_and_harness_self_time_add_up_to_wall(tmp_path, algorithm):
    from pamdp import harness

    tracer = Tracer()
    with tracing.traced(tracer):
        _, wall = _train(harness, _bandit_cfg(harness, algorithm), tmp_path)
    spans = tracer.spans
    kids = children_of(spans)
    (top,) = [i for i, s in enumerate(spans) if s[NAME] == "harness.train_seed"]
    children = sum(spans[c][END] - spans[c][START] for c in kids[top])
    accounted = children + self_time(spans, top, kids)
    assert abs(wall - accounted) / wall < UNACCOUNTED_TOLERANCE
    assert {spans[c][NAME] for c in kids[top]} >= {
        "agent.select_action", "envs.step", "agent.update_from_replay",
        "replay.finalize_episode", "checkpoint.save"}


def test_layer_metrics_report_every_name(tmp_path):
    from pamdp import harness

    tracer = Tracer()
    units = []
    for algorithm in metrics.ALGORITHMS:
        lo = len(tracer.spans)
        with tracing.traced(tracer):
            paths = harness.train_seed(_bandit_cfg(harness, algorithm), 3, str(tmp_path / algorithm))
        units.append((algorithm, lo, len(tracer.spans), 80))
        assert Path(paths["csv"]).is_file()
    out = metrics.layer_metrics(tracer.spans, units, 1.1)
    assert list(out) == [n for n, _, _ in metrics.per_layer_names()]
    assert len(out) == 123
    assert all(math.isfinite(v) and v >= 0 for v in out.values())
    assert out["agent.update_from_replay.update_ratio.pdqn-multipass"] == pytest.approx(16 / 80)
    assert out["nncore.forward.rows_per_step.pdqn-multipass"] > 0
    assert out["nncore.backward.p50_us.rows_over200"] == 0.0  # bandit batches stay small
    assert out["checkpoint.bytes.paddpg"] > 0




class _FakeBench:
    """Stands in for run.Bench: units of fixed cost, no package calls."""

    seeds = [7000, 7001, 7002]

    def unit(self, algorithm, seed, tag):
        time.sleep(0.002)
        return run.Unit(algorithm, seed, 0.002, 1, 1, 1)


@pytest.mark.parametrize("seconds", [0.001, 0.1])
def test_measure_runs_at_least_one_cycle_over_the_seeds(seconds):
    bench = _FakeBench()
    plain, traced_units = run.measure(bench, seconds, None)
    assert traced_units == []
    for seed in bench.seeds:
        counts = Counter(u.algorithm for u in plain if u.seed == seed)
        assert set(counts) == set(metrics.ALGORITHMS)


def test_ms_per_work_step_weighs_each_seed_once():
    def unit(seed, wall, work):
        return run.Unit("paddpg", seed, wall, 10, work, work)

    # seed 1 ran twice, seed 2 once: one cycle costs 1.0 + 2.0 s for 400 steps
    units = [unit(1, 0.9, 100), unit(1, 1.1, 100), unit(2, 2.0, 300)]
    assert run.ms_per_work_step(units, "paddpg") == pytest.approx(1e3 * 3.0 / 400)
    with pytest.raises(RuntimeError):
        run.ms_per_work_step([unit(1, 1.0, 0)], "paddpg")
