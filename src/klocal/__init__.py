"""Locality-spreading bounds and certification tools for k-local spin systems.

The package exports the ``__all__`` of each module imported here;
``klocal.certify`` and ``klocal.cli`` load only when imported by name.
"""

from .bounds import *
from .concentration import *
from .errors import *
from .layers import *
from .models import *
from .oracle import *
from .pauli import *
from .truncation import *

__version__ = "0.1.0"
