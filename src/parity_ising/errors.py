"""Shared exception types."""


class NumericsError(RuntimeError):
    """A numerical routine produced an untrustworthy result.

    Raised when an eigensolver or SVD fails, a polar factor misses its
    orthogonality budget, an overlap determinant exceeds 1, a quadrature
    does not converge to the requested tolerance, a root is not bracketed,
    or a covariance cannot be factorized.
    """
