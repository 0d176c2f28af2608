"""Metric names, units and the per-layer numbers computed from spans.

Every workload prints every metric named here: the end-to-end list with
``--trace 0`` and the per-layer list with ``--trace 1``. A per-layer metric
of a layer the workload never calls (backward passes while acting greedily,
checkpoint saves during evaluation) reads 0.
"""

from __future__ import annotations

import numpy as np

from tracing import END, INFO, NAME, ROW_BUCKETS, START, TOP_LEVEL, children_of, outermost, row_bucket, self_time

ALGORITHMS = ("pdqn-multipass", "pdqn-joint", "pdqn-separate", "paddpg")
PDQN = ALGORITHMS[:3]

END_TO_END = (
    *((f"ms_per_step.{a}", "ms", "lower", 0.25) for a in ALGORITHMS),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# (metric suffix, span name, kind, unit, better); kinds:
#   ms     inclusive ms per env step     rows    forward rows per env step
#   gflops flops / inclusive time        p50_us  median call in microseconds
#   ratio  share of calls whose info is true
_PER_ALG = (
    ("nncore.forward.ms_per_step", "nncore.forward", "ms", "ms", "lower"),
    ("nncore.forward.rows_per_step", "nncore.forward", "rows", "rows", "lower"),
    ("nncore.forward.gflops", "nncore.forward", "gflops", "GFLOP/s", "higher"),
    ("nncore.backward.ms_per_step", "nncore.backward", "ms", "ms", "lower"),
    ("nncore.backward.gflops", "nncore.backward", "gflops", "GFLOP/s", "higher"),
    ("nncore.adam_step.ms_per_step", "nncore.adam_step", "ms", "ms", "lower"),
    ("nncore.clip_grad_norm.ms_per_step", "nncore.clip_grad_norm", "ms", "ms", "lower"),
    ("nncore.clip_grad_norm.clipped_ratio", "nncore.clip_grad_norm", "ratio", "ratio", "lower"),
    ("nncore.polyak_update.ms_per_step", "nncore.polyak_update", "ms", "ms", "lower"),
    ("agent.update_from_replay.p50_ms", "agent.update_from_replay", "p50_ms", "ms", "lower"),
    ("agent.update_from_replay.p99_ms", "agent.update_from_replay", "p99_ms", "ms", "lower"),
    ("agent.update_from_replay.update_ratio", "agent.update_from_replay", "ratio", "ratio", "higher"),
    ("agent.stack_batch.ms_per_step", "agent.stack_batch", "ms", "ms", "lower"),
    ("agent.bootstrap_targets.ms_per_step", "agent.bootstrap_targets", "ms", "ms", "lower"),
    ("agent.select_action.p50_us", "agent.select_action", "p50_us", "us", "lower"),
    ("replay.sample.ms_per_step", "replay.sample", "ms", "ms", "lower"),
    ("replay.push.p50_us", "replay.push", "p50_us", "us", "lower"),
    ("replay.finalize_episode.ms_per_step", "replay.finalize_episode", "ms", "ms", "lower"),
    ("policy.invert_gradients.ms_per_step", "policy.invert_gradients", "ms", "ms", "lower"),
    ("envs.step.p50_us", "envs.step", "p50_us", "us", "lower"),
    ("checkpoint.save_ms", "checkpoint.save", "p50_ms", "ms", "lower"),
    ("checkpoint.load_ms", "checkpoint.load", "p50_ms", "ms", "lower"),
    ("checkpoint.bytes", None, "bytes", "bytes", "lower"),
    ("harness.self_ms_per_step", None, "self_ms", "ms", "lower"),
)
_PER_PDQN = (
    ("qfunction.evaluate.ms_per_step", "qfunction.evaluate", "ms", "ms", "lower"),
    ("qfunction.sum_q_gradient.ms_per_step", "qfunction.sum_q_gradient", "ms", "ms", "lower"),
    ("agent.q_update.ms_per_step", "agent.q_update", "ms", "ms", "lower"),
    ("agent.actor_update.ms_per_step", "agent.actor_update", "ms", "ms", "lower"),
)
_SINGLE = (
    ("qfunction.multipass_rows.ms_per_step", "qfunction.multipass_rows", "ms", "ms", "lower",
     "pdqn-multipass"),
    ("agent.update.ms_per_step", "agent.update", "ms", "ms", "lower", "paddpg"),
)
_BUCKETED = (("nncore.forward", ROW_BUCKETS), ("nncore.backward", ROW_BUCKETS[2:]))


def _per_alg_specs():
    for suffix, span, kind, unit, better in _PER_ALG:
        for alg in ALGORITHMS:
            yield f"{suffix}.{alg}", span, kind, unit, better, alg
    for suffix, span, kind, unit, better in _PER_PDQN:
        for alg in PDQN:
            yield f"{suffix}.{alg}", span, kind, unit, better, alg
    for suffix, span, kind, unit, better, alg in _SINGLE:
        yield f"{suffix}.{alg}", span, kind, unit, better, alg


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    names = [(n, unit, better) for n, _, _, unit, better, _ in _per_alg_specs()]
    for span, buckets in _BUCKETED:
        for bucket in buckets:
            names.append((f"{span}.p50_us.{bucket}", "us", "lower"))
            names.append((f"{span}.p99_us.{bucket}", "us", "lower"))
    names.append(("trace.overhead_ratio", "ratio", "lower"))
    return names


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class _AlgSpans:
    """Outermost spans of one algorithm's traced units, grouped by name."""

    def __init__(self, spans, kids, ranges):
        self.by_name: dict[str, list[list]] = {}
        self.self_ms = 0.0
        for lo, hi in ranges:
            for i in outermost(spans, lo, hi):
                span = spans[i]
                self.by_name.setdefault(span[NAME], []).append(span)
                if span[NAME] in TOP_LEVEL:
                    self.self_ms += 1e3 * self_time(spans, i, kids)

    def get(self, name):
        return self.by_name.get(name, [])


def _value(kind: str, span_name, group: _AlgSpans, steps: int) -> float:
    if kind == "self_ms":
        return group.self_ms / steps
    if kind == "bytes":
        sizes = [s[INFO] for n in ("checkpoint.save", "checkpoint.load") for s in group.get(n)]
        return float(max(sizes)) if sizes else 0.0
    calls = group.get(span_name)
    if span_name == "agent.update_from_replay" and kind != "ratio":
        # update latency describes calls that performed an update; the
        # skipped calls before the initial fill are counted by update_ratio
        calls = [s for s in calls if s[INFO]]
    durations = [s[END] - s[START] for s in calls]
    if kind == "ms":
        return 1e3 * sum(durations) / steps
    if kind == "rows":
        return sum(s[INFO][0] for s in calls) / steps
    if kind == "gflops":
        seconds = sum(durations)
        return sum(s[INFO][1] for s in calls) / seconds / 1e9 if seconds > 0 else 0.0
    if kind == "ratio":
        return sum(bool(s[INFO]) for s in calls) / len(calls) if calls else 0.0
    if kind == "p50_us":
        return 1e6 * _pct(durations, 50)
    if kind == "p50_ms":
        return 1e3 * _pct(durations, 50)
    if kind == "p99_ms":
        return 1e3 * _pct(durations, 99)
    raise ValueError(f"unknown metric kind {kind!r}")


def layer_metrics(spans: list[list], units: list[tuple[str, int, int, int]],
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from traced units ``(algorithm, lo, hi, steps)``,
    where [lo, hi) is the unit's slice of ``spans``."""
    groups, steps, kids = {}, {}, children_of(spans)
    for alg in ALGORITHMS:
        mine = [u for u in units if u[0] == alg]
        groups[alg] = _AlgSpans(spans, kids, [(lo, hi) for _, lo, hi, _ in mine])
        steps[alg] = sum(u[3] for u in mine)
    out = {}
    for name, span, kind, _, _, alg in _per_alg_specs():
        if steps[alg] == 0:
            out[name] = 0.0
            continue
        out[name] = _value(kind, span, groups[alg], steps[alg])
    for span, buckets in _BUCKETED:
        per_bucket: dict[str, list[float]] = {b: [] for b in buckets}
        for group in groups.values():
            for s in group.get(span):
                bucket = row_bucket(s[INFO][0])
                if bucket in per_bucket:
                    per_bucket[bucket].append(s[END] - s[START])
        for bucket in buckets:
            out[f"{span}.p50_us.{bucket}"] = 1e6 * _pct(per_bucket[bucket], 50)
            out[f"{span}.p99_us.{bucket}"] = 1e6 * _pct(per_bucket[bucket], 99)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
