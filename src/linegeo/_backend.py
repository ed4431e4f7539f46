"""``linegeo.BACKEND`` and the ``kernels`` alias of the module holding
the geodesic stepper.

``bench/`` patches ``_backend.kernels.geod_integrate`` and reads
``BACKEND``; this alias exists only so those names keep resolving.
"""

from . import geodesics as kernels

BACKEND = "python"
