"""Deep RL over parameterised action spaces.

Discrete actions carry continuous parameter vectors; this package provides
the three Q-architectures over that action structure (joint-input,
multi-pass basis-masked, and per-action separate networks), a DDPG-style
relaxed-continuous baseline, oracle environments with closed-form optimal
values, and a seeded experiment harness.
"""

from .agent import AgentConfig, PADDPGAgent, ParameterisedAction, PDQNAgent
from .envs import ChainPAMDP, ParamBandit, Platform, PlatformConfig, make_env, oracle_q
from .harness import RunConfig, load_config, smooth, summarize, sweep, train
from .nncore import AdamState, DenseNet, Layer, adam_step, backward, clip_grad_norm, forward, he_init, input_gradient, polyak_update
from .policy import Actor, EpsilonSchedule, OUNoise, invert_gradients
from .qfunction import (
    ActionSpaceSpec,
    QFunction,
    cross_gradient_matrix,
    q_joint,
    q_multipass,
    q_sensitivity_sweep,
    q_separate,
)
from .replay import ReplayBuffer, Transition, finalize_episode

__version__ = "0.1.0"
