"""Round-based message-passing simulation kernel (Heard-Of style).

The paper's computing model (§II): an algorithm is a pair of a *sending
function* ``S_p^r`` and a *transition function* ``T_p^r``; communication is
organized in communication-closed rounds; a run is fully determined by the
initial states and the sequence of communication graphs ``G^r``.

This package implements that model directly:

* :class:`~repro.rounds.process.Process` — the algorithm interface,
* :class:`~repro.rounds.simulator.RoundSimulator` — executes rounds against
  an adversary-supplied graph sequence,
* :class:`~repro.rounds.run.Run` — the complete record of a finite run
  prefix (graphs, states, messages, decisions) with skeleton accessors.
"""

from repro.rounds.process import Process, DecisionRecord
from repro.rounds.fastpath import (
    FastPathRun,
    FastPathTask,
    FastPathUnsupported,
    simulate_fastpath_batch,
)
from repro.rounds.messages import Message
from repro.rounds.run import Run, RoundRecord
from repro.rounds.simulator import RoundSimulator, SimulationConfig, simulate

__all__ = [
    "Process",
    "DecisionRecord",
    "FastPathRun",
    "FastPathTask",
    "FastPathUnsupported",
    "Message",
    "Run",
    "RoundRecord",
    "RoundSimulator",
    "SimulationConfig",
    "simulate",
    "simulate_fastpath_batch",
]
