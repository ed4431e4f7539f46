"""The ``kernels`` alias of the module holding the geodesic stepper.

``bench/`` patches ``_backend.kernels.geod_integrate``; this alias
exists only so that name keeps resolving.
"""

from . import geodesics as kernels
