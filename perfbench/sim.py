"""Run one workload through both deployment modes, timing each phase.

``run_mode`` performs the steps of ``harness.run_experiment`` one by one, so
that set-up and the event loop can be timed apart without touching the
program.  It is thus a second copy of the program's run path and must track
``harness.run_experiment``: ``check_run_path`` compares that function's
syntax tree with the copy below, and a run whose program differs fails its
checks, so the benchmark never times a stale sequence.  The event loop runs
to the end of the load in ``SLICES`` equal steps of simulated time, each
timed with its own drift probes; events fire in the same order as in one
call.  Every call goes through the ``loraledger``
module attributes, which is where the tracer installs its spans.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import os
from dataclasses import dataclass

from loraledger import harness, scenario

from host import Stopwatch

MODES = ("edge", "traditional")
ARTIFACTS = ("requests.csv", "links.csv")
SLICES = 20

# harness.run_experiment as set_up and run_mode reproduce it.
RUN_EXPERIMENT = """
def run_experiment(config: ScenarioConfig) -> RunResult:
    world = build_world(config)
    if config.experiment != EXPERIMENT_JOIN_LOAD:
        bootstrap_sessions(world)
    _kickoff(world)
    world.engine.run_until(world.duration_us)
    quiesce(world)
    return RunResult(config=config, world=world, summary=summarize(world))
"""


@dataclass
class ModeRun:
    mode: str
    world: harness.World
    summary: dict
    # drift-corrected seconds (see host.py)
    setup_s: float  # build_world + bootstrap_sessions + device kickoff
    loop_s: float  # inside Engine.run_until, drain included
    wall_s: float  # build_world until the artifacts are written
    host_wall_s: float  # wall_s before the drift correction


def build_config(overrides: dict, seed: int, mode: str):
    return scenario.build_config(flag_overrides=dict(overrides, seed=seed, mode=mode))


def set_up(config) -> harness.World:
    world = harness.build_world(config)
    if config.experiment != scenario.EXPERIMENT_JOIN_LOAD:
        harness.bootstrap_sessions(world)
    harness._kickoff(world)
    return world


def run_mode(config, out_dir: str) -> ModeRun:
    setup, loop, tail = Stopwatch(), Stopwatch(), Stopwatch()
    with setup:
        world = set_up(config)
    for k in range(1, SLICES + 1):
        with loop:
            world.engine.run_until(world.duration_us * k // SLICES)
    with loop:
        harness.quiesce(world)
    with tail:
        summary = harness.summarize(world)
        harness.RunResult(config=config, world=world, summary=summary).emit(out_dir)
    parts = (setup, loop, tail)
    return ModeRun(
        mode=config.mode,
        world=world,
        summary=summary,
        setup_s=setup.seconds,
        loop_s=loop.seconds,
        wall_s=sum(p.seconds for p in parts),
        host_wall_s=sum(p.host_s for p in parts),
    )


def check_run_path() -> list[str]:
    """Fails unless ``harness.run_experiment`` still has the steps ``run_mode`` times."""
    program = ast.dump(ast.parse(inspect.getsource(harness.run_experiment)))
    if program != ast.dump(ast.parse(RUN_EXPERIMENT)):
        return ["harness.run_experiment no longer matches the steps sim.run_mode times"]
    return []


def fingerprint(out_dir: str) -> str:
    """SHA-256 over both modes' request records and per-link counters."""
    digest = hashlib.sha256()
    for mode in MODES:
        for name in ARTIFACTS:
            with open(os.path.join(out_dir, mode, name), "rb") as fh:
                data = fh.read()
            digest.update(b"%s/%s %d\n" % (mode.encode(), name.encode(), len(data)))
            digest.update(data)
    return digest.hexdigest()
