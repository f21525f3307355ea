"""Discrete-event simulation substrate.

Everything in the GQ reproduction runs on a single virtual clock driven
by :class:`~repro.sim.engine.Simulator`.  The engine is deliberately
minimal: a priority queue of timestamped events plus a periodic-activity
helper (:class:`~repro.sim.process.Process`) that makes it comfortable to
express periodic behaviours.

Determinism is a design requirement — experiments that reproduce the
paper's tables must be replayable — so all randomness is funnelled
through per-component :class:`random.Random` instances derived from a
single experiment seed (see :func:`~repro.sim.engine.Simulator.rng`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import Process

__all__ = ["Event", "Simulator", "Process"]
