"""Spans around calls into pamdp, recorded from outside the package.

``install`` replaces each traced callable with a wrapper that appends one
span ``[name, start, end, parent, info]`` to an in-memory list. A module
function is replaced in every loaded ``pamdp`` module that bound it by name
(``from .nncore import forward`` makes ``pamdp.agent.forward`` a second
lookup site), a method on the class that defines it. ``restore`` puts every
original back, so untraced runs execute the package exactly as shipped.

Wrappers only read shapes, identities and file sizes: they draw no random
numbers and touch no array, so a traced run writes the same bytes as an
untraced one.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, INFO = range(5)

ROW_BUCKETS = ("rows_1", "rows_2to8", "rows_9to200", "rows_over200")


def row_bucket(rows: int) -> str:
    """Bucket of a forward/backward call by its batch rows."""
    if rows < 1:
        raise ValueError(f"a call has at least one row, got {rows}")
    if rows == 1:
        return "rows_1"
    if rows <= 8:
        return "rows_2to8"
    if rows <= 200:
        return "rows_9to200"
    return "rows_over200"


def _macs(net, rows: int) -> int:
    return rows * sum(l.weights.shape[0] * l.weights.shape[1] for l in net.layers)


def _forward_info(args, kwargs, result):
    # forward(net, batch) -> (out, cache); 2 flops per multiply-add
    rows = result[1].inputs[0].shape[0]
    return rows, 2 * _macs(args[0], rows)


def _backward_info(args, kwargs, result):
    # backward(net, cache, upstream): one GEMM for parameter gradients and
    # one for input gradients per layer
    rows = args[1].inputs[0].shape[0]
    return rows, 4 * _macs(args[0], rows)


def _clip_info(args, kwargs, result):
    # clip_grad_norm returns the input arrays themselves when it does not clip
    return any(out is not g for out, g in zip(result, args[0]))


def _update_info(args, kwargs, result):
    return result is not None


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (span name, module, class or None, attribute, info callback)
TARGETS = (
    ("harness.train_seed", "pamdp.harness", None, "train_seed", None),
    ("harness.evaluate_checkpoint", "pamdp.harness", None, "evaluate_checkpoint", None),
    ("nncore.forward", "pamdp.nncore", None, "forward", _forward_info),
    ("nncore.backward", "pamdp.nncore", None, "backward", _backward_info),
    ("nncore.adam_step", "pamdp.nncore", None, "adam_step", None),
    ("nncore.clip_grad_norm", "pamdp.nncore", None, "clip_grad_norm", _clip_info),
    ("nncore.polyak_update", "pamdp.nncore", None, "polyak_update", None),
    ("qfunction.evaluate", "pamdp.qfunction", "QFunction", "evaluate", None),
    ("qfunction.sum_q_gradient", "pamdp.qfunction", None, "sum_q_gradient", None),
    ("qfunction.multipass_rows", "pamdp.qfunction", None, "multipass_rows", None),
    ("agent.select_action", "pamdp.agent", "PDQNAgent", "select_action", None),
    ("agent.select_action", "pamdp.agent", "PADDPGAgent", "select_action", None),
    ("agent.update_from_replay", "pamdp.agent", "PDQNAgent", "update_from_replay", _update_info),
    ("agent.update_from_replay", "pamdp.agent", "PADDPGAgent", "update_from_replay", _update_info),
    ("agent.q_update", "pamdp.agent", "PDQNAgent", "q_update", None),
    ("agent.actor_update", "pamdp.agent", "PDQNAgent", "actor_update", None),
    ("agent.update", "pamdp.agent", "PADDPGAgent", "update", None),
    ("agent.stack_batch", "pamdp.agent", None, "_stack_batch", None),
    ("agent.bootstrap_targets", "pamdp.agent", "PDQNAgent", "_bootstrap_targets", None),
    ("agent.bootstrap_targets", "pamdp.agent", "PADDPGAgent", "_bootstrap_targets", None),
    ("replay.sample", "pamdp.replay", "ReplayBuffer", "sample", None),
    ("replay.push", "pamdp.replay", "ReplayBuffer", "push", None),
    ("replay.finalize_episode", "pamdp.replay", None, "finalize_episode", None),
    ("policy.invert_gradients", "pamdp.policy", None, "invert_gradients", None),
    ("envs.step", "pamdp.envs", "Env", "step", None),
    ("checkpoint.save", "pamdp.checkpoint", None, "save_checkpoint", _file_bytes),
    ("checkpoint.load", "pamdp.checkpoint", None, "load_checkpoint", _file_bytes),
)

# spans the benchmark itself calls; everything else nests below them
TOP_LEVEL = ("harness.train_seed", "harness.evaluate_checkpoint")


class Tracer:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced_call


def _pamdp_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "pamdp" or n.startswith("pamdp."))]


def install(tracer: Tracer) -> list[tuple]:
    """Install wrappers at every lookup site; returns what ``restore`` undoes."""
    patched: list[tuple] = []
    try:
        for name, modname, clsname, attr, info in TARGETS:
            module = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(module, clsname)
                original = owner.__dict__[attr]
                sites = [(owner, attr)]
            else:
                original = getattr(module, attr)
                sites = [(mod, key) for mod in _pamdp_modules()
                         for key, value in list(vars(mod).items()) if value is original]
            wrapper = tracer.wrap(name, original, info)
            for owner, key in sites:
                patched.append((owner, key, original))
                setattr(owner, key, wrapper)
    except BaseException:
        restore(patched)
        raise
    return patched


def restore(patched: list[tuple]):
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)


def unrestored(patched: list[tuple]) -> list[str]:
    """Lookup sites that do not hold their original object."""
    return [f"{getattr(o, '__name__', o)}.{k}" for o, k, orig in patched
            if (o.__dict__[k] if isinstance(o, type) else getattr(o, k)) is not orig]


@contextmanager
def traced(tracer: Tracer):
    patched = install(tracer)
    try:
        yield patched
    finally:
        restore(patched)


# -- analysis -----------------------------------------------------------


def children_of(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[PARENT], []).append(i)
    return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(spans: list[list], i: int, kids: dict[int, list[int]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    span = spans[i]
    child = [(spans[c][START], spans[c][END]) for c in kids.get(i, ())]
    return span[END] - span[START] - covered(child, span[START], span[END])


def outermost(spans: list[list], lo: int = 0, hi: int | None = None) -> list[int]:
    """Indices in [lo, hi) with no ancestor of the same name, so a recursive
    call is not counted twice in inclusive time."""
    out = []
    for i in range(lo, len(spans) if hi is None else hi):
        name, p = spans[i][NAME], spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out
