"""Single-file agent checkpoints.

Layout (see docs/checkpoint_format.md for the byte-level description):

    bytes 0..3    magic b"PAQC"
    bytes 4..7    format version, uint32 little-endian
    bytes 8..15   header length H, uint64 little-endian
    bytes 16..    header JSON, UTF-8, H bytes
    afterwards    payload: the arrays named in the header manifest, stored
                  back to back as row-major little-endian float64

The header carries the algorithm id, environment id and overrides, the full
agent hyperparameter set, the action-space spec, optimizer scalars, the
run's RNG state and the array manifest (name + shape, in payload order).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .agent import AgentConfig, PADDPGAgent, PDQNAgent, make_agent
from .qfunction import ActionSpaceSpec

MAGIC = b"PAQC"
FORMAT_VERSION = 1
HEADER_START = 16  # magic, version and header length come first
# earlier writers of format v1 appended the actor's fixed passthrough map as
# this pair; no agent applies one now, so the loader reads it only as zeros
PASSTHROUGH = ("passthrough/weights", "passthrough/bias")
# config keys of earlier writers that are constants now, with the one value
# this version loads; their leaky_slope acted only with activation leaky_relu
RETIRED_CONFIG = {"activation": "relu", "ou_mu": 0.0}


def _net_arrays(prefix: str, net) -> list[tuple[str, np.ndarray]]:
    out = []
    for j, layer in enumerate(net.layers):
        out.append((f"{prefix}/layer{j}/weights", layer.weights))
        out.append((f"{prefix}/layer{j}/biases", layer.biases))
    return out


def _opt_arrays(prefix: str, opt, owner) -> list[tuple[str, np.ndarray]]:
    # one moment buffer per optimizer, laid out as its network's or
    # Q-function's parameters, named per parameter array it holds
    ms, vs = owner.parts(opt.m[0]), owner.parts(opt.v[0])
    out = []
    for i, (m, v) in enumerate(zip(ms, vs)):
        out.append((f"{prefix}/m{i}", m))
        out.append((f"{prefix}/v{i}", v))
    return out


def _agent_arrays(agent) -> list[tuple[str, np.ndarray]]:
    arrays = []
    if isinstance(agent, PADDPGAgent):  # a PDQNAgent too; keeps its format-v1 names
        arrays += _net_arrays("critic", agent.qf.nets[0])
        arrays += _net_arrays("critic_target", agent.qf_target.nets[0])
    elif isinstance(agent, PDQNAgent):
        for i, net in enumerate(agent.qf.nets):
            arrays += _net_arrays(f"q/net{i}", net)
        for i, net in enumerate(agent.qf_target.nets):
            arrays += _net_arrays(f"q_target/net{i}", net)
    else:
        raise TypeError(f"cannot checkpoint {type(agent).__name__}")
    arrays += _net_arrays("actor", agent.actor.net)
    arrays += _net_arrays("actor_target", agent.actor_target.net)
    arrays += _opt_arrays("q_opt", agent.q_opt, agent.qf)
    arrays += _opt_arrays("actor_opt", agent.actor_opt, agent.actor.net)
    return arrays


def save_checkpoint(path, agent, env_id: str, env_overrides: dict,
                    meta: dict | None = None, rng_state: dict | None = None):
    arrays = _agent_arrays(agent)
    header = {
        "format": "pamdp-checkpoint",
        "version": FORMAT_VERSION,
        "algorithm": agent.algorithm,
        "env_id": env_id,
        "env_overrides": env_overrides,
        "config": asdict(agent.config),
        "space": {
            "state_dim": agent.space.state_dim,
            "param_dims": list(agent.space.param_dims),
            "bounds": agent.space.bounds.tolist(),
        },
        "optimizers": {
            name: {"t": opt.t, "alpha": opt.alpha, "beta1": opt.beta1,
                   "beta2": opt.beta2, "eps": opt.eps}
            for name, opt in (("q", agent.q_opt), ("actor", agent.actor_opt))
        },
        "epsilon_current": agent.epsilon.current,
        "rng_state": rng_state,
        "meta": meta or {},
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _field(data: memoryview, path, offset: int, size: int, what: str) -> memoryview:
    """``data[offset:offset + size]``; a short file raises a ValueError naming where."""
    if offset + size > len(data):
        raise ValueError(
            f"truncated checkpoint {path}: the {what} at byte offset {offset} needs "
            f"{size} bytes, but the file ends at byte {len(data)}"
        )
    return data[offset : offset + size]


def _parse_header(blob: memoryview, path) -> dict:
    try:
        return json.loads(str(blob, "utf-8"))
    except UnicodeDecodeError as exc:
        where, reason = exc.start, "invalid UTF-8"
    except json.JSONDecodeError as exc:
        # a character index; save_checkpoint writes ASCII-only JSON
        where, reason = exc.pos, exc.msg
    raise ValueError(
        f"corrupt checkpoint header in {path}: {reason} at byte offset {HEADER_START + where}"
    )


def load_checkpoint(path):
    """Rebuild the agent. Returns (agent, header dict).

    A file that is not a readable checkpoint, or whose payload holds a
    non-finite value, a negative Adam second moment or a nonzero value in
    an earlier writer's passthrough pair, raises ValueError naming the path
    and the byte offset where reading failed; a readable header that does
    not rebuild an agent raises ValueError naming the path and the header
    field.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:4] != MAGIC:
        raise ValueError(f"not a pamdp checkpoint (bad magic at byte offset 0): {path}")
    version = int.from_bytes(_field(data, path, 4, 4, "format version"), "little")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} in {path}")
    hlen = int.from_bytes(_field(data, path, 8, 8, "header length"), "little")
    header = _parse_header(_field(data, path, HEADER_START, hlen, "header"), path)
    agent, arrays = _rebuild(header, path)

    offset = HEADER_START + hlen
    for name, dst in arrays:
        count = dst.size * 8
        src = np.frombuffer(_field(data, path, offset, count, f"array {name}"), dtype="<f8")
        fault = _payload_fault(name, src)
        if fault is not None:
            raise ValueError(f"corrupt checkpoint {path}: array {name} holds "
                             f"{float(src[fault])} at byte offset {offset + 8 * fault}; "
                             f"values must be finite, Adam second moments >= 0")
        if name in PASSTHROUGH and np.logical_or.reduce(src):
            at = int(np.flatnonzero(src)[0])
            raise ValueError(f"checkpoint {path}: array {name} holds {float(src[at])} at byte "
                             f"offset {offset + 8 * at}; this version applies no actor "
                             f"passthrough, so the pair must be all zero")
        offset += count
        dst[...] = src.reshape(dst.shape)
    if offset != len(data):
        raise ValueError(
            f"checkpoint {path} has trailing bytes after the payload, from byte offset {offset}"
        )
    return agent, header


def _payload_fault(name: str, values: np.ndarray) -> int | None:
    """The index of a payload array's first non-finite value or negative Adam
    second moment (``*_opt/v<i>``), or None; the sum of finite values is
    finite unless it overflows, so the elementwise test runs only then."""
    second = name.partition("_opt/")[2].startswith("v")
    if math.isfinite(np.add.reduce(values)) and not (second and np.minimum.reduce(values) < 0):
        return None
    bad = ~np.isfinite(values) | (second & (values < 0.0))
    return int(np.argmax(bad)) if bad.any() else None


def _rebuild(header: dict, path):
    """The agent the header describes, with its arrays still to be filled.
    A retired config key of an earlier writer loads only at its constant."""
    field = "space"
    try:
        space = ActionSpaceSpec(
            state_dim=header["space"]["state_dim"],
            param_dims=tuple(header["space"]["param_dims"]),
            bounds=np.array(header["space"]["bounds"]),
        )
        field = "config"
        config = dict(header["config"])
        config.pop("leaky_slope", None)
        for key, value in RETIRED_CONFIG.items():
            if config.pop(key, value) != value:
                raise ValueError(f"key {key!r} holds {header['config'][key]!r}; "
                                 f"this version loads only {value!r}")
        config = AgentConfig(**config)
        field = "algorithm"
        # placeholder weights and draws: the payload overwrites every array
        agent = make_agent(header["algorithm"], space, config, np.random.default_rng(0))
        field = "arrays"
        arrays = _agent_arrays(agent)
        if any(e["name"] in PASSTHROUGH for e in header["arrays"]):
            net = agent.actor.net
            arrays += [(PASSTHROUGH[0], np.zeros((net.input_dim, net.output_dim))),
                       (PASSTHROUGH[1], np.zeros(net.output_dim))]
        if [(n, list(a.shape)) for n, a in arrays] != [
            (e["name"], list(e["shape"])) for e in header["arrays"]
        ]:
            raise ValueError("the array manifest does not match the rebuilt agent")
        field = "optimizers"
        agent.q_opt.t = int(header["optimizers"]["q"]["t"])
        agent.actor_opt.t = int(header["optimizers"]["actor"]["t"])
        field = "epsilon_current"
        agent.epsilon.current = float(header["epsilon_current"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(
            f"checkpoint {path}: header field {field!r} does not rebuild an agent "
            f"({type(exc).__name__}: {exc})"
        ) from None
    return agent, arrays
