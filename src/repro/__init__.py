"""repro — a full reproduction of "Making Evildoers Pay: Resource-Competitive
Broadcast in Sensor Networks" (Gilbert & Young, PODC 2012).

The package is organised in four layers:

* :mod:`repro.simulation` — the slotted, single-channel, energy-budgeted WSN
  substrate the paper's model assumes;
* :mod:`repro.adversary` — the catalogue of jamming / spoofing strategies
  Carol can play;
* :mod:`repro.core` — the ε-Broadcast protocol (k = 2, general k, decoy
  traffic, unknown n) and the high-level :func:`repro.run_broadcast` API;
* :mod:`repro.baselines`, :mod:`repro.analysis`, :mod:`repro.experiments` —
  the comparators, theory utilities, and the experiment harness that
  regenerates every quantitative claim of the paper.
"""

from .core.api import make_adversary, run_broadcast
from .core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from .core.decoy import DecoyBroadcast
from .core.estimation import SizeEstimateBroadcast
from .core.general_k import GeneralKBroadcast
from .core.outcome import BroadcastOutcome
from .core.quietrule import ConstantQuietRule, DegreeAwareQuietRule, PaperQuietRule, QuietRule
from .simulation.config import SimulationConfig

__version__ = "1.0.0"

__all__ = [
    "BroadcastOutcome",
    "ConstantQuietRule",
    "DecoyBroadcast",
    "DegreeAwareQuietRule",
    "EpsilonBroadcast",
    "GeneralKBroadcast",
    "make_adversary",
    "MultiHopBroadcast",
    "PaperQuietRule",
    "QuietRule",
    "run_broadcast",
    "SimulationConfig",
    "SizeEstimateBroadcast",
    "__version__",
]
