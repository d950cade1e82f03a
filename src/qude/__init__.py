"""qude: data-driven characterization of superconducting qubit dynamics.

Augments a Liouville-von Neumann or Lindblad baseline model with trainable
source terms (structure-preserving, affine, nonlinear), trains them against
tomography data, and evaluates/interprets the fitted models.
"""

__version__ = "0.1.0"

import importlib

from . import dynamics, metrics, models, qcore, tomography, train


def __getattr__(name):
    # ``cli`` is imported on first use, so that ``python -m qude.cli`` does not
    # find it in sys.modules before running it as __main__.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "cli",
    "dynamics",
    "metrics",
    "models",
    "qcore",
    "tomography",
    "train",
]
