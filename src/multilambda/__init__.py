"""Population transfer through N parallel intermediate states.

Simulation (adaptive Schrodinger propagation), instantaneous-spectrum
tracking, and analytic classification of when an adiabatic-transfer state
exists, plus a batch CLI for parameter sweeps.

The public names are each module's ``__all__``, re-exported here.
"""

from . import analysis, config, dynamics, errors, model, runner, spectral
from .analysis import *  # noqa: F403
from .config import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .runner import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (model, spectral, dynamics, analysis, config, runner, errors)
    for name in module.__all__
]
