"""Shared oracles and helpers.

The finite-difference routines here are the independent reference for every
analytic gradient in the package: they only ever call the forward pass.
"""

import ctypes
import glob
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pamdp import harness
from pamdp.nncore import AdamState, DenseNet, adam_step, forward

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the same draws on every run (``--hypothesis-profile=ci``), so that a CI
# failure replays locally as it ran there
settings.register_profile("ci", derandomize=True, deadline=None)


# a one-step bandit run that makes updates in a few episodes
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


def openblas_core() -> str | None:
    """The kernel core that numpy's bundled OpenBLAS chose for this CPU, or
    None where numpy bundles no OpenBLAS that can say."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def blas_kernel() -> str:
    """numpy's BLAS build and the OpenBLAS core in use: the bits that
    TestBatchInvariance pins belong to this kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 only prints its config
        build = "unknown"
    return f"numpy {np.__version__}, BLAS {build}, OpenBLAS core {openblas_core() or 'unknown'}"


def pytest_report_header(config):
    return blas_kernel()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so a quiet log names the kernel at its end
    if config.option.verbose < 0:
        terminalreporter.write_line(blas_kernel())


def fd_input_grads(net, batch, upstream, h=1e-5):
    """Central finite differences of sum(upstream * net(batch)) w.r.t. batch."""
    batch = np.array(batch, dtype=np.float64)
    grad = np.zeros_like(batch)
    for idx in np.ndindex(batch.shape):
        saved = batch[idx]
        batch[idx] = saved + h
        hi = float(np.sum(upstream * forward(net, batch)[0]))
        batch[idx] = saved - h
        lo = float(np.sum(upstream * forward(net, batch)[0]))
        batch[idx] = saved
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def fd_param_grads(net, batch, upstream, h=1e-5):
    """Central finite differences w.r.t. every weight and bias."""
    grads = []
    for p in net.parts(net.flat):
        g = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            saved = p[idx]
            p[idx] = saved + h
            hi = float(np.sum(upstream * forward(net, batch)[0]))
            p[idx] = saved - h
            lo = float(np.sum(upstream * forward(net, batch)[0]))
            p[idx] = saved
            g[idx] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def fd_scalar_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a vector."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        saved = x[idx]
        x[idx] = saved + h
        hi = fn(x)
        x[idx] = saved - h
        lo = fn(x)
        x[idx] = saved
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def relative_error(a, b):
    """Scale-normalized gradient-check error: |a - b| / (|a| + |b|)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def kink_safe(net, batch, margin=1e-3):
    """True when no pre-activation sits near a relu kink, so central
    differences with h=1e-5 stay on one side of every corner."""
    _, cache = forward(net, batch)
    for layer, z in zip(net.layers, cache.preacts):
        if layer.activation != "linear" and np.abs(z).min() < margin:
            return False
    return True


def make_safe_net(input_dim, hidden, output_dim, seed, batch=None):
    """Deterministically find a (net, batch) pair away from activation kinks."""
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        net = DenseNet.create(input_dim, hidden, output_dim, rng)
        b = rng.standard_normal((3, input_dim)) if batch is None else batch
        if kink_safe(net, b):
            return net, b
    raise AssertionError("could not find a kink-safe configuration")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def adam_step_net(net: DenseNet, grads: list[np.ndarray], state: AdamState):
    """Adam on a network's buffer from per-parameter gradients, as
    ``backward`` returns them, with ``state`` made for ``[net.flat]``; marks
    the network updated."""
    if [g.shape for g in grads] != list(net.layout):
        raise ValueError("gradients do not match the network's parameters")
    adam_step([net.flat], [np.concatenate([g.ravel() for g in grads])], state)
    net.mark_updated()


def address(a):
    return a.__array_interface__["data"][0]


def assert_back_to_back(arrays, buffer=None):
    """The arrays are C-contiguous and follow each other in memory; with a
    `buffer`, they are views filling it in order."""
    at = address(arrays[0] if buffer is None else buffer)
    for a in arrays:
        assert a.flags.c_contiguous and address(a) == at
        assert buffer is None or np.shares_memory(a, buffer)
        at += a.nbytes
    assert buffer is None or at == address(buffer) + buffer.nbytes


def zero_nets(*nets):
    """Zero every weight and bias of the networks."""
    for net in nets:
        net.flat.fill(0.0)
        net.mark_updated()


def checkpoint_arrays(data: bytes) -> dict:
    """Per payload array of checkpoint file bytes, by name in the header's
    manifest order, its byte offset and shape."""
    size = int.from_bytes(data[8:16], "little")
    offset, arrays = 16 + size, {}
    for entry in json.loads(data[16 : 16 + size])["arrays"]:
        arrays[entry["name"]] = offset, tuple(entry["shape"])
        offset += 8 * math.prod(entry["shape"])
    return arrays


def patch_everywhere(monkeypatch, module, name, replacement):
    """Set ``name`` to ``replacement`` in ``module`` and in every loaded
    ``pamdp`` module that bound the same object by name: ``from .nncore
    import forward`` makes ``pamdp.agent.forward`` a lookup site of its own."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("pamdp") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, replacement)


def assert_training_bytes_unchanged(tmp_path_factory, config, patch, kinds=("csv",),
                                    **overrides):
    """Train seed 0 of ``configs/<config>.conf`` with ``overrides``, call
    ``patch()``, and train it again: the first run must have made updates,
    and the second must write the same bytes for each artifact in
    ``kinds``. The first, unpatched run is trained once per session, in a
    directory named by a digest of its whole ``RunConfig``; later calls with
    the same config read it there."""
    cfg = replace(harness.load_config(str(CONFIGS / f"{config}.conf")), seeds=(0,), **overrides)
    key = hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]
    done = tmp_path_factory.getbasetemp() / "unpatched" / key / "paths.json"
    if not done.exists():
        done.write_text(json.dumps(harness.train_seed(cfg, 0, str(done.parent))))
    first = json.loads(done.read_text())
    assert any(r["q_loss"] != "nan" for r in harness.read_csv(first["csv"])), "no update ran"
    patch()
    second = harness.train_seed(cfg, 0, str(tmp_path_factory.mktemp("patched")))
    for kind in kinds:
        assert Path(second[kind]).read_bytes() == Path(first[kind]).read_bytes(), kind
