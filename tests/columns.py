"""One polynomial as a column of one: the single-polynomial calls that the
tests make of :mod:`sfmew.polyalg`'s column API."""

import numpy as np

from sfmew.polyalg import normalized_columns, trimmed_degrees


def column(coeffs):
    """The coefficients, lowest degree first, as an (n + 1, 1) column."""
    return np.asarray(coeffs, dtype=float)[:, None]


def normalized(coeffs):
    """The polynomial trimmed and normalized as a column of one, the input of
    :mod:`sfmew.polyalg`'s column functions."""
    return normalized_columns(column(coeffs))


def trimmed(coeffs):
    """The coefficients up to the polynomial's degree by :func:`trimmed_degrees`
    (none for the zero polynomial)."""
    (degree,), _ = trimmed_degrees(column(coeffs))
    return column(coeffs)[: degree + 1, 0]
