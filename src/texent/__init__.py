"""texent: texture analysis with a Gaussian-gain non-extensive entropy.

The package computes an entropy over gray-level co-occurrence probabilities
whose information gain is exp(-p**2), together with its conditional, joint,
relative and normalized variants; comparison entropies (Shannon, Renyi,
Tsallis, exponential-gain); polar interaction maps; and a small texture
classification pipeline exposed through the ``texent`` command.
"""

# Each module's __all__ is the one list of its public names.
from .classifier import *
from .dataset import *
from .errors import *
from .fbim import *
from .glcm import *
from .measures import *

__version__ = "0.1.0"
