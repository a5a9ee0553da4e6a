"""Error classes shared by the whole package.

Each class carries a distinct ``exit_code`` so the command line front end
can map any failure to a stable, scriptable process status.  Library code
raises these directly; nothing here depends on the rest of the package.
"""

__all__ = [
    "QWResError",
    "ConfigParse",
    "OutputUnwritable",
    "NotUnitary",
    "A2Violated",
    "ConstraintViolated",
    "ProductLeavesS",
    "UnsupportedN0",
    "RelationCheckFailed",
    "AtResonance",
    "InvariantViolation",
    "ChainSolveFailed",
    "SpectralOverflow",
    "WindowOutsideCone",
    "AllZeroTail",
    "A3Violated",
    "LeftS",
    "DegenerateDirection",
    "NoMultipleResonance",
]


class QWResError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigParse(QWResError):
    """A config file could not be read or has the wrong shape."""

    exit_code = 3


class OutputUnwritable(QWResError):
    """The --out file, the summary file beside it, or stdout could not be written."""

    exit_code = 4


class NotUnitary(QWResError):
    """A coin matrix fails the unitarity test."""

    exit_code = 10


class A2Violated(QWResError):
    """A coin has a vanishing upper-left entry (transfer matrices undefined)."""

    exit_code = 11


class ConstraintViolated(QWResError):
    """A (p, q, theta) triple is too far off the hyperboloid |p|^2 - |q|^2 = 1."""

    exit_code = 12


class ProductLeavesS(QWResError):
    """A hyperbolic product mapped outside the coin class (a-entry collapsed)."""

    exit_code = 13


class UnsupportedN0(QWResError):
    """Operation needs a perturbation window of length n0 >= 1."""

    exit_code = 20


class RelationCheckFailed(QWResError):
    """Transfer polynomial failed its pointwise consistency check."""

    exit_code = 21


class AtResonance(QWResError):
    """Spectral parameter sits (numerically) on a resonance."""

    exit_code = 30


class InvariantViolation(QWResError):
    """An internal cross-check that should always hold did not."""

    exit_code = 32


class ChainSolveFailed(QWResError):
    """A Jordan-chain linear solve left a residual above tolerance."""

    exit_code = 34


class SpectralOverflow(QWResError):
    """e^{+-i xi}, a value from it, a walk amplitude or norm, or a fitted decay constant is not a finite float."""

    exit_code = 35


class WindowOutsideCone(QWResError):
    """Requested reconstruction window leaves the valid light-cone range."""

    exit_code = 40


class AllZeroTail(QWResError):
    """Too few usable survival-norm samples for a decay fit."""

    exit_code = 41


class A3Violated(QWResError):
    """Double-barrier closed forms need n0 = 1 with non-diagonal coins."""

    exit_code = 42


class LeftS(QWResError):
    """A perturbed coin left the admissible class (a-entry collapsed)."""

    exit_code = 50


class DegenerateDirection(QWResError):
    """Perturbation direction does not split the multiple resonance."""

    exit_code = 51


class NoMultipleResonance(QWResError, ValueError):
    """A splitting experiment needs a base walk with a multiple resonance."""

    exit_code = 52
