"""Numerical laboratory for continuous-time consensus dynamics over
time-varying undirected and signed graphs."""

from .errors import *
from .graph import *
from .dynamics import *
from .observability import *
from .analysis import *

__version__ = "0.1.0"
