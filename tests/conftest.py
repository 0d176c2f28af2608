"""Shared oracles and helpers.

The finite-difference routines here are the independent reference for every
analytic gradient in the package: they only ever call the forward pass.
"""

import ctypes
import glob
import os

import numpy as np
import pytest

from pamdp.nncore import AdamState, DenseNet, adam_step, forward


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
    for p in net.parameters():
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
    """True when no pre-activation sits near a relu/leaky kink, so central
    differences with h=1e-5 stay on one side of every corner."""
    _, cache = forward(net, batch)
    for layer, z in zip(net.layers, cache.preacts):
        if layer.activation != "linear" and np.abs(z).min() < margin:
            return False
    return True


def make_safe_net(input_dim, hidden, output_dim, seed, activation="relu", batch=None):
    """Deterministically find a (net, batch) pair away from activation kinks."""
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1000 * attempt)
        net = DenseNet.create(input_dim, hidden, output_dim, rng, activation)
        b = rng.standard_normal((3, input_dim)) if batch is None else batch
        if kink_safe(net, b):
            return net, b
    raise AssertionError("could not find a kink-safe configuration")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def adam_step_net(net: DenseNet, grads: list[np.ndarray], state: AdamState):
    """Adam on a network's buffer from per-parameter gradients, as
    ``backward`` returns them, with ``state`` made for ``[net.flat]``; bumps
    the version counter."""
    if [g.shape for g in grads] != list(net.flat.shapes):
        raise ValueError("gradients do not match the network's parameters")
    adam_step([net.flat], [np.concatenate([g.ravel() for g in grads])], state)
    net.mark_updated()
