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

from .agent import AgentConfig, PADDPGAgent, PDQNAgent, make_agent
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
    # one moment buffer per network, named per parameter array it holds
    ms = [a for m in opt.m for a in m.parts()]
    vs = [a for v in opt.v for a in v.parts()]
    out = []
    for i, (m, v) in enumerate(zip(ms, vs)):
        out.append((f"{prefix}/m{i}", m))
        out.append((f"{prefix}/v{i}", v))
    return out


def _agent_arrays(agent) -> list[tuple[str, np.ndarray]]:
    arrays = []
    if isinstance(agent, PADDPGAgent):  # a PDQNAgent too; keeps its format-v1 names
        arrays += _net_arrays("critic", agent.qf.net)
        arrays += _net_arrays("critic_target", agent.qf_target.net)
    elif isinstance(agent, PDQNAgent):
        for i, net in enumerate(agent.qf.nets):
            arrays += _net_arrays(f"q/net{i}", net)
        for i, net in enumerate(agent.qf_target.nets):
            arrays += _net_arrays(f"q_target/net{i}", net)
    else:
        raise TypeError(f"cannot checkpoint {type(agent).__name__}")
    arrays += _net_arrays("actor", agent.actor.net)
    arrays += _net_arrays("actor_target", agent.actor_target.net)
    arrays += _opt_arrays("q_opt", agent.q_opt)
    arrays += _opt_arrays("actor_opt", agent.actor_opt)
    if agent.actor.passthrough is not None:
        arrays.append(("passthrough/weights", agent.actor.passthrough.weights))
        arrays.append(("passthrough/bias", agent.actor.passthrough.bias))
    return arrays


def save_checkpoint(path, agent, algorithm: str, env_id: str, env_overrides: dict,
                    meta: dict | None = None, rng_state: dict | None = None):
    arrays = _agent_arrays(agent)
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

    A file that is not a readable checkpoint raises ValueError naming the
    path and the byte offset where reading failed; a readable header that
    does not rebuild an agent raises ValueError naming the path and the
    header field.
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
        offset += count
        dst[...] = src.reshape(dst.shape)
    if offset != len(data):
        raise ValueError(
            f"checkpoint {path} has trailing bytes after the payload, from byte offset {offset}"
        )
    return agent, header


def _rebuild(header: dict, path):
    """The agent the header describes, with its arrays still to be filled."""
    field = "space"
    try:
        space = ActionSpaceSpec(
            state_dim=header["space"]["state_dim"],
            param_dims=tuple(header["space"]["param_dims"]),
            bounds=np.array(header["space"]["bounds"]),
        )
        field = "config"
        config = AgentConfig(**header["config"])
        field = "arrays"
        shapes = {e["name"]: tuple(e["shape"]) for e in header["arrays"]}
        passthrough = None
        if "passthrough/weights" in shapes:
            passthrough = Passthrough(
                np.zeros(shapes["passthrough/weights"]), np.zeros(shapes["passthrough/bias"])
            )
        field = "algorithm"
        # placeholder weights and draws: the payload overwrites every array
        agent = make_agent(header["algorithm"], space, config, np.random.default_rng(0),
                           passthrough)
        field = "arrays"
        arrays = _agent_arrays(agent)
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
