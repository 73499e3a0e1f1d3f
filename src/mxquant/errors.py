"""Exception hierarchy shared across the package.

CLI exit codes map onto this hierarchy: DataError -> 2, NumericalError -> 3.
"""


class MxQuantError(Exception):
    """Base class for all package errors."""


class DataError(MxQuantError):
    """Invalid input data: bad shapes, non-finite values, malformed files."""


class ShapeError(DataError):
    """A tensor dimension violates an alignment or consistency constraint."""


class NonFiniteError(DataError):
    """Input contains NaN or infinity where finite values are required."""


class FileFormatError(DataError):
    """A binary or text file does not match its documented layout."""


class NumericalError(MxQuantError):
    """A numerical failure during computation (not a malformed input)."""


class SingularTransformError(NumericalError):
    """A transform factor is too ill-conditioned to invert.

    Attributes:
        block_index: index of the offending private factor, or None for the
            shared global factor.
        cond: the factor's Frobenius condition number ||M||_F * ||M^-1||_F.
    """

    def __init__(self, block_index, cond):
        self.block_index = block_index
        self.cond = cond
        where = "global factor" if block_index is None else f"block {block_index}"
        super().__init__(f"singular transform: {where} has condition estimate {cond:.3e}")


class DivergenceError(NumericalError):
    """Calibration produced a non-finite loss or gradient.

    Attributes:
        step: optimizer step index at which the failure occurred.
        loss_trace: (step, lr, loss) tuples recorded up to the failure.
    """

    def __init__(self, message, step, loss_trace=()):
        self.step = step
        self.loss_trace = list(loss_trace)
        super().__init__(f"{message} (step {step})")
