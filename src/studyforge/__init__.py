"""Hyperparameter studies with TPE search, pruning, and journaled runs.

The package exports the two calls a script needs; everything else is
imported from its own module (``studyforge.study``, ``studyforge.config``,
...).
"""

from .config import parse_config
from .orchestrator import run_study

__version__ = "0.1.0"

__all__ = ["__version__", "parse_config", "run_study"]
