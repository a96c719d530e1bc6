"""The kernel module, under the name the package and its benchmark read.

There is one implementation, the numpy kernels of ``_kernels_py``.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel implementation, recorded in report provenance:
    always "python"."""
    return "python"
