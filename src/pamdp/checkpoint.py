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
from dataclasses import asdict

import numpy as np

from .agent import AgentConfig, PADDPGAgent, PDQNAgent
from .policy import Passthrough
from .qfunction import ActionSpaceSpec

MAGIC = b"PAQC"
FORMAT_VERSION = 1
HEADER_START = 16  # magic, version and header length come first


def _net_arrays(prefix: str, net) -> list[tuple[str, np.ndarray]]:
    out = []
    for j, layer in enumerate(net.layers):
        out.append((f"{prefix}/layer{j}/weights", layer.weights))
        out.append((f"{prefix}/layer{j}/biases", layer.biases))
    return out


def _opt_arrays(prefix: str, opt) -> list[tuple[str, np.ndarray]]:
    out = []
    for i, (m, v) in enumerate(zip(opt.m, opt.v)):
        out.append((f"{prefix}/m{i}", m))
        out.append((f"{prefix}/v{i}", v))
    return out


def _agent_arrays(agent) -> list[tuple[str, np.ndarray]]:
    arrays = []
    if isinstance(agent, PDQNAgent):
        for i, net in enumerate(agent.qf.nets):
            arrays += _net_arrays(f"q/net{i}", net)
        for i, net in enumerate(agent.qf_target.nets):
            arrays += _net_arrays(f"q_target/net{i}", net)
        arrays += _net_arrays("actor", agent.actor.net)
        arrays += _net_arrays("actor_target", agent.actor_target.net)
        arrays += _opt_arrays("q_opt", agent.q_opt)
        arrays += _opt_arrays("actor_opt", agent.actor_opt)
    elif isinstance(agent, PADDPGAgent):
        arrays += _net_arrays("critic", agent.critic)
        arrays += _net_arrays("critic_target", agent.critic_target)
        arrays += _net_arrays("actor", agent.actor.net)
        arrays += _net_arrays("actor_target", agent.actor_target.net)
        arrays += _opt_arrays("q_opt", agent.critic_opt)
        arrays += _opt_arrays("actor_opt", agent.actor_opt)
    else:
        raise TypeError(f"cannot checkpoint {type(agent).__name__}")
    if agent.actor.passthrough is not None:
        arrays.append(("passthrough/weights", agent.actor.passthrough.weights))
        arrays.append(("passthrough/bias", agent.actor.passthrough.bias))
    return arrays


def save_checkpoint(path, agent, algorithm: str, env_id: str, env_overrides: dict,
                    meta: dict | None = None, rng_state: dict | None = None):
    arrays = _agent_arrays(agent)
    if isinstance(agent, PDQNAgent):
        q_opt, actor_opt = agent.q_opt, agent.actor_opt
    else:
        q_opt, actor_opt = agent.critic_opt, agent.actor_opt
    header = {
        "format": "pamdp-checkpoint",
        "version": FORMAT_VERSION,
        "algorithm": algorithm,
        "env_id": env_id,
        "env_overrides": env_overrides,
        "config": asdict(agent.config),
        "space": {
            "state_dim": agent.space.state_dim,
            "param_dims": list(agent.space.param_dims),
            "bounds": agent.space.bounds.tolist(),
        },
        "optimizers": {
            "q": {"t": q_opt.t, "alpha": q_opt.alpha, "beta1": q_opt.beta1,
                  "beta2": q_opt.beta2, "eps": q_opt.eps},
            "actor": {"t": actor_opt.t, "alpha": actor_opt.alpha,
                      "beta1": actor_opt.beta1, "beta2": actor_opt.beta2,
                      "eps": actor_opt.eps},
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

    A file that is not a readable checkpoint raises ValueError naming the
    path and the byte offset where reading failed.
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

    space = ActionSpaceSpec(
        state_dim=header["space"]["state_dim"],
        param_dims=tuple(header["space"]["param_dims"]),
        bounds=np.array(header["space"]["bounds"]),
    )
    cfg_fields = dict(header["config"])
    cfg_fields["hidden"] = tuple(cfg_fields["hidden"])
    config = AgentConfig(**cfg_fields)

    manifest = header["arrays"]
    passthrough = None
    if any(e["name"].startswith("passthrough/") for e in manifest):
        shapes = {e["name"]: tuple(e["shape"]) for e in manifest}
        passthrough = Passthrough(
            np.zeros(shapes["passthrough/weights"]), np.zeros(shapes["passthrough/bias"])
        )

    rng = np.random.default_rng(0)  # placeholder init, overwritten below
    algorithm = header["algorithm"]
    if algorithm == "paddpg":
        agent = PADDPGAgent(space, config, rng, passthrough)
    elif algorithm.startswith("pdqn-"):
        agent = PDQNAgent(space, algorithm.removeprefix("pdqn-"), config, rng, passthrough)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r} in checkpoint")

    arrays = _agent_arrays(agent)
    if [n for n, _ in arrays] != [e["name"] for e in manifest]:
        raise ValueError("checkpoint manifest does not match the rebuilt agent")
    offset = HEADER_START + hlen
    for (name, dst), entry in zip(arrays, manifest):
        shape = tuple(entry["shape"])
        if dst.shape != shape:
            raise ValueError(f"shape mismatch for {name}")
        count = int(np.prod(shape)) if shape else 1
        src = np.frombuffer(_field(data, path, offset, count * 8, f"array {name}"), dtype="<f8")
        offset += count * 8
        dst[...] = src.reshape(shape)
    if offset != len(data):
        raise ValueError(
            f"checkpoint {path} has trailing bytes after the payload, from byte offset {offset}"
        )

    if isinstance(agent, PDQNAgent):
        agent.q_opt.t = header["optimizers"]["q"]["t"]
    else:
        agent.critic_opt.t = header["optimizers"]["q"]["t"]
    agent.actor_opt.t = header["optimizers"]["actor"]["t"]
    agent.epsilon.current = header["epsilon_current"]
    return agent, header
