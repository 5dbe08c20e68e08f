"""Shared exception types, the limits on what one run may build or do,
and the vertex-range check of every entry point that takes a vertex."""

import math

TABLE_LIMIT = 1 << 24  # entries of one table: 128 MiB of float64
WORK_LIMIT = 10**10  # work units of one run; README gives their cost in seconds


class ConfigError(ValueError):
    """Invalid graph, coin, or run configuration."""


class ToleranceError(RuntimeError):
    """A numerical invariant (unitarity, norm, trace) drifted past its bound."""


def _count(x: float) -> str:
    """x with thousands separators, or above 10^15 in scientific form
    (1e+301, not 302 digits), an int past the float range included."""
    if x <= 1e15:
        return f"{x:,.0f}"
    if isinstance(x, int) and x > 1e308:
        e = int(math.log10(x))
        return f"{x / 10**e:.3g}e+{e}"
    return f"{x:.3g}"


def check_table(what: str, *shape: float) -> None:
    """Refuse, before it is allocated, a table of more than TABLE_LIMIT entries."""
    if math.prod(shape) > TABLE_LIMIT:
        raise ConfigError(
            f"{what} needs {' x '.join(map(_count, shape))} entries, "
            f"over the limit of {TABLE_LIMIT:,} (128 MiB of float64)"
        )


def check_work(what: str, units: float) -> None:
    """Refuse, before its first step, a run of more than WORK_LIMIT work units."""
    if units > WORK_LIMIT:
        raise ConfigError(f"{what} needs {_count(units)} work units, over the limit of {WORK_LIMIT:,}")


def check_vertices(n: int, vertices, what: str = "pair vertex") -> None:
    """Refuse a vertex outside 0..n-1: numpy would read a negative index as
    vertex n + v without a word, and end in IndexError on one of n or more."""
    for v in vertices:
        if not 0 <= v < n:
            raise ConfigError(f"{what} {v} outside 0..{n - 1}")
