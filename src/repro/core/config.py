"""``repro.core.config`` re-exports :mod:`repro.config` under its
former path, which the layered benchmark's topology probe still
imports; it goes once that probe imports ``repro.config``."""

from ..config import *  # noqa: F401,F403
from ..config import __all__  # noqa: F401
