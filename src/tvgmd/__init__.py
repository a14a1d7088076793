"""Time-varying graph mode decomposition.

Decomposes a multivariate time series, viewed as a signal on the nodes of
an unknown graph, into K band-limited oscillatory modes together with a
learned weighted connectivity graph per mode.
"""

__version__ = "0.1.0"

from .core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
)
from .decomposer import decompose
from .graph_learner import learn_graph_batch
from .synth import GroundTruth, SynthSpec, generate, paper_preset

__all__ = [
    "DecompositionConfig",
    "DecompositionResult",
    "GraphMode",
    "GroundTruth",
    "IterationSnapshot",
    "SynthSpec",
    "TimeVaryingGraphSignal",
    "__version__",
    "decompose",
    "generate",
    "learn_graph_batch",
    "paper_preset",
]
