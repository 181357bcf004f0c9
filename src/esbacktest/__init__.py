"""Secured-position backtesting of VAR and ES with traffic-light zones.

Each library module's ``__all__`` is the one declaration of its public
names; the package re-exports them all, and its ``__all__`` is their union
in module order. ``cli``, the command-line front end, is not re-exported.
"""

from . import backtest, dist, estimators, harness, parallel, secured, simulation
from .backtest import *  # noqa: F403
from .dist import *  # noqa: F403
from .estimators import *  # noqa: F403
from .harness import *  # noqa: F403
from .parallel import *  # noqa: F403
from .secured import *  # noqa: F403
from .simulation import *  # noqa: F403

_MODULES = (backtest, dist, estimators, harness, parallel, secured, simulation)
__all__ = [name for module in _MODULES for name in module.__all__]
__version__ = "0.1.0"
