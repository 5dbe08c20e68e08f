"""Shared exception types and the size limit on tables built from input."""

import math

TABLE_LIMIT = 1 << 24  # entries of one table: 128 MiB of float64


class ConfigError(ValueError):
    """Invalid graph, coin, or run configuration."""


class ToleranceError(RuntimeError):
    """A numerical invariant (unitarity, norm, trace) drifted past its bound."""


def check_table(what: str, *shape: float) -> None:
    """Refuse, before it is allocated, a table of more than TABLE_LIMIT entries."""
    if math.prod(shape) > TABLE_LIMIT:
        # a dimension above 10^15 in scientific form (1e+301), not in 302 digits
        dims = " x ".join(f"{s:.3g}" if s > 1e15 else f"{s:,.0f}" for s in shape)
        raise ConfigError(
            f"{what} needs {dims} entries, over the limit of {TABLE_LIMIT:,} (128 MiB of float64)"
        )
