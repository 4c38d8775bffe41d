"""The single-bank spelling the engine tests share.

A classic single-bank run is a one-bank rank run: the tracker object
goes behind a constant factory and bank 0's result is the outcome.
"""

from repro.sim.engine import EngineConfig, RankSimulator


def bank_simulator(tracker, **config):
    """A one-bank :class:`RankSimulator` around one live tracker."""
    return RankSimulator(lambda _bank: tracker, EngineConfig(**config))


def run_bank(tracker, trace, **config):
    """Run ``trace`` against ``tracker`` on one bank; bank 0's result."""
    return bank_simulator(tracker, **config).run(trace).per_bank[0]
