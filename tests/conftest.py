import configparser
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contactctl.dynamics import ArmDynamicsModel, inverse_dynamics_terms, step
from contactctl.geometry import Pose, decode_rot6d_rows
from contactctl.kinematics import ChainModel, chain_frames
from contactctl.scenarios import load_scenario_config


REPO_CONFIGS = "configs"


def make_planar2(l1: float = 0.5, l2: float = 0.5) -> ChainModel:
    """Two z-axis revolute joints in the xy-plane; FK(0,0) = (l1+l2, 0, 0)."""
    limits = [[-2.0 * np.pi, 2.0 * np.pi]] * 2
    return ChainModel([[0.0, 0.0, 1.0]] * 2, [np.eye(3)] * 2,
                      [[0.0, 0.0, 0.0], [l1, 0.0, 0.0]], limits,
                      Pose(np.eye(3), [l2, 0.0, 0.0]), "planar2")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return decode_rot6d_rows(rng.normal(size=3), rng.normal(size=3))


def random_chain(rng: np.random.Generator, dof: int) -> ChainModel:
    axes, rotations, translations = [], [], []
    for _ in range(dof):
        axis = rng.normal(size=3)
        axes.append(axis / np.linalg.norm(axis))
        rotations.append(random_rotation(rng))
        translations.append(rng.uniform(-0.3, 0.3, 3))
    tool = Pose(random_rotation(rng), rng.uniform(-0.2, 0.2, 3))
    return ChainModel(axes, rotations, translations,
                      [[-2.0 * np.pi, 2.0 * np.pi]] * dof, tool)


def random_model(rng, dof):
    chain = random_chain(rng, dof)
    masses = rng.uniform(0.5, 2.5, dof)
    coms = rng.uniform(-0.1, 0.1, (dof, 3))
    inertias = np.array([np.diag(rng.uniform(0.01, 0.05, 3)) for _ in range(dof)])
    return ArmDynamicsModel(chain, masses, coms, inertias)


def bias_split(model, q, qdot):
    """(C(q, qdot) qdot, g(q)): the bias of inverse_dynamics_terms with the
    joint velocity, and then gravity, switched off."""
    frames = chain_frames(model.chain, q)
    g_vec = inverse_dynamics_terms(model, q, np.zeros(np.shape(q)), frames)[1]
    c_qdot = inverse_dynamics_terms(replace(model, gravity=np.zeros(3)), q, qdot,
                                    frames)[1]
    return c_qdot, g_vec


def dynamics_terms(model, q, qdot):
    """inverse_dynamics_terms on the forward pass of q."""
    return inverse_dynamics_terms(model, q, qdot, chain_frames(model.chain, q))


def plant_step(model, state, tau, plane, dt):
    """One plant step on the forward pass and dynamics terms of `state`, which
    the closed-loop tick would share with its controller."""
    frames = chain_frames(model.chain, state.q)
    return step(state, tau, plane, dt,
                inverse_dynamics_terms(model, state.q, state.qdot, frames), frames)


def load_edited(path, tmp_path, edits: dict, **overrides):
    """Load a copy of config `path`, written to tmp_path with `edits`, a dict
    of (section, key) -> INI text, applied. A loaded config is never edited:
    each config a runner sees has passed the load checks. A relative
    [plant] chain is made absolute, so the copy reads the same chain file."""
    path = Path(path)
    cfg = configparser.ConfigParser()
    cfg.read(path)
    if cfg.has_option("plant", "chain"):
        cfg["plant"]["chain"] = str((path.parent / cfg["plant"]["chain"]).resolve())
    for (section, key), text in edits.items():
        if section not in cfg:
            cfg.add_section(section)
        cfg[section][key] = text
    copy = tmp_path / path.name
    with open(copy, "w") as fh:
        cfg.write(fh)
    return load_scenario_config(copy, **overrides)


@pytest.fixture
def planar2() -> ChainModel:
    return make_planar2()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
