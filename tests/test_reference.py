"""One update of each algorithm against the plain reference in ``reference.py``.

From the same parameters, Adam moments and step counts, and minibatch, an
agent's ``update`` and the reference's must give both losses, and every array
a checkpoint holds, within ``TOLERANCE``: the largest difference over the
largest magnitude of the reference's array, or over the larger of 1 and
the reference's value for a loss. The two sum in different orders, so they
differ in the last digits (about 5e-13 at worst); the tolerance leaves room
for the Adam steps, which divide by small second moments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pamdp import harness
from pamdp.agent import AgentConfig, make_agent
from pamdp.checkpoint import _agent_arrays
from pamdp.qfunction import ActionSpaceSpec

TOLERANCE = 1e-9


def relative_difference(got, want) -> float:
    """max |got - want| over max(max |want|, tiny); 0 where both are zero."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def random_agent(rng, algorithm, param_dims, state_dim, **config):
    """An agent of ``AgentConfig(**config)`` with every array of its
    checkpoint drawn at random, bounds of random widths, and random Adam
    step counts."""
    lows = rng.uniform(-2.0, 1.0, sum(param_dims))
    bounds = np.column_stack([lows, lows + rng.uniform(0.5, 2.0, len(lows))])
    config = AgentConfig(tau_q=0.3, tau_actor=0.2, lr_q=0.01, lr_actor=0.01, **config)
    agent = make_agent(algorithm, ActionSpaceSpec(state_dim, param_dims, bounds), config, rng)
    for name, a in _agent_arrays(agent):
        if "_opt/v" in name:
            a[...] = rng.uniform(0.0, 1e-3, a.shape)
        elif "_opt/m" in name:
            a[...] = rng.normal(0.0, 1e-2, a.shape)
        else:
            a += rng.normal(0.0, 0.2, a.shape)
    agent.q_opt.t, agent.actor_opt.t = rng.integers(0, 50, 2)
    for net in (*agent.qf.nets, *agent.qf_target.nets, agent.actor.net, agent.actor_target.net):
        net.mark_updated()
    return agent


def random_batch(rng, agent, rows, executed, terminal_share):
    """A stacked minibatch; only actions below ``executed`` were taken."""
    lo, hi = agent.bounds[:, 0], agent.bounds[:, 1]
    sd = agent.space.state_dim
    return (rng.normal(size=(rows, sd)), rng.integers(0, executed, rows),
            rng.uniform(lo, hi, (rows, len(lo))), rng.normal(size=rows),
            rng.normal(size=(rows, sd)), rng.random(rows) < terminal_share,
            rng.normal(size=rows))


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    param_dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    state_dim=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 9), max_size=2).map(tuple),
    rows=st.integers(1, 130),
    data=st.data(),
)
def test_update_matches_reference(algorithm, seed, param_dims, state_dim, hidden, rows, data):
    rng = np.random.default_rng(seed)
    config = dict(
        hidden=hidden,
        mixed_targets=data.draw(st.booleans(), "mixed targets"),
        clip_grad=data.draw(st.sampled_from([0.05, 1.0, 100.0]), "clip norm"),
        gamma=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), "gamma"),
        beta_mix=data.draw(st.sampled_from([0.0, 0.25, 1.0]), "beta_mix"),
    )
    executed = data.draw(st.integers(1, len(param_dims)), "actions executed")
    terminal_share = data.draw(st.sampled_from([0.0, 0.5, 1.0]), "terminal share")
    agent = random_agent(rng, algorithm, tuple(param_dims), state_dim, **config)
    batch = random_batch(rng, agent, rows, executed, terminal_share)
    slow = reference.Agent(agent, algorithm)

    losses, want = agent.update(batch), slow.update(batch)
    for name, got, ref in zip(("q_loss", "actor_loss"), losses, want):
        assert abs(got - ref) <= TOLERANCE * max(abs(ref), 1.0), name
    assert (agent.q_opt.t, agent.actor_opt.t) == (slow.q_opt.t, slow.actor_opt.t)
    for (name, got), ref in zip(_agent_arrays(agent), slow.arrays(), strict=True):
        assert relative_difference(got, ref) <= TOLERANCE, name
