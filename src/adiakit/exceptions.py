"""Exception types shared across the package."""


class AdiakitError(Exception):
    """Base class for all adiakit errors."""


class NonHermitianError(AdiakitError, ValueError):
    """Input matrix fails the Hermiticity tolerance; carries the defect."""

    def __init__(self, defect: float, tolerance: float):
        self.defect = defect
        self.tolerance = tolerance
        super().__init__(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"tolerance {tolerance:.3e}"
        )


class EigenvalueCrossingError(AdiakitError):
    """An eigenvalue gap closed below the floor somewhere on the grid."""

    def __init__(self, s_lo: float, s_hi: float, gap: float, floor: float):
        self.interval = (s_lo, s_hi)
        self.gap = gap
        super().__init__(
            f"eigenvalue crossing detected in s-interval "
            f"[{s_lo:.6g}, {s_hi:.6g}]: gap {gap:.3e} below floor {floor:.3e}"
        )


class ProjectorDiscontinuityError(AdiakitError):
    """Adjacent-point eigenvector overlap dropped below the continuity floor."""

    def __init__(self, s_lo: float, s_hi: float, overlap: float, floor: float):
        self.interval = (s_lo, s_hi)
        self.overlap = overlap
        super().__init__(
            f"eigenvector continuity lost in s-interval "
            f"[{s_lo:.6g}, {s_hi:.6g}]: overlap {overlap:.3f} below "
            f"floor {floor:.3f} (grid too coarse or projector discontinuous)"
        )


class NumericalCheckError(AdiakitError, ValueError):
    """A numerical self-check inside a run failed: eigenvector overlaps or a
    transforming unitary that are not unitary, a unitary that does not start
    at the identity, or one its declared generator does not generate.
    ``interval`` is the s-interval of the worst point, or None where the
    check has none."""

    def __init__(self, message: str, interval=None):
        self.interval = interval
        if interval is not None:
            message += (f" in s-interval [{interval[0]:.6g}, "
                        f"{interval[1]:.6g}]")
        super().__init__(message)


class StepLimitError(AdiakitError):
    """Propagation exceeded the hard step cap; no partial result is kept."""

    def __init__(self, cap: int, message: str = ""):
        self.cap = cap
        super().__init__(message or f"propagation exceeded step cap {cap}")


class NonSmoothUnitaryError(AdiakitError):
    """Extracted generator has an anti-Hermitian residual above threshold."""

    def __init__(self, residual: float, threshold: float, s: float):
        self.residual = residual
        self.s = s
        super().__init__(
            f"unitary path is not smooth enough at s={s:.6g}: anti-Hermitian "
            f"generator residual {residual:.3e} exceeds {threshold:.3e}"
        )


class ConfigError(AdiakitError, ValueError):
    """Scenario configuration is invalid."""


class ScalingUndefinedError(AdiakitError, ValueError):
    """Log-log slope undefined (non-positive values or too few samples)."""
