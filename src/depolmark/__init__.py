"""Non-Markovian depolarizing channels and their non-Markovianity diagnostics.

The package builds the generalized depolarizing Kraus families (qubit,
N-level, multiqubit), their intermediate dynamical maps and Choi matrices,
and every witness and measure of non-Markovianity defined for the family:
Choi spectra and trace-norm witnesses, canonical decay rates and their
normalized integral, distinguishability revivals, the quantum-memory
witness, accessible-state volume and parameter-space trajectories. The
``depolmark`` command line emits the corresponding plot-ready datasets.
"""

__version__ = "0.1.0"

from . import matcore, channels, dynmaps, measures, geometry

# Each module's __all__ is its public API; the package re-exports all five.
from .matcore import *
from .channels import *
from .dynmaps import *
from .measures import *
from .geometry import *

__all__ = ["__version__", *matcore.__all__, *channels.__all__, *dynmaps.__all__, *measures.__all__, *geometry.__all__]
