"""Name of the kernel module, reported as ``linegeo.BACKEND`` and in the
``check`` report.

``bench/`` patches ``_backend.kernels.geod_integrate`` and reads
``BACKEND``; this alias exists only so those names keep resolving.
"""

from . import _kernels_py as kernels

BACKEND = "python"
