"""Continuous-time walk generated by the adjacency matrix.

The Hamiltonian is gamma * A with gamma fixed at 1.  Evolution goes
through the eigendecomposition, psi(t) = V exp(-i Lambda t) V* psi(0),
so states at arbitrary times cost one small matrix product each.
Transfer detection scans a time grid at the vertices it reads only (source,
target and any tracked vertex), in blocks of at most ``_GRID_BLOCK_BYTES``
of complex phases, so that a scan holds only its float table of their
probabilities, and sharpens every local maximum of the probability
P(t) = |a(t)|^2; only the refined values may certify perfect transfer.
The slope has a closed form from the spectrum, P'(t) = 2 Re(conj(a) a'),
and it crosses zero linearly at a peak, so each maximum is found by
bisecting the sign of the slope between its grid neighbours.  All maxima
of a scan are refined in lockstep, one matrix product per iteration for
every bracket still open.  A bracket closes when its midpoint equals one
of its ends, that is when its ends are adjacent floats, at any t.  The
reported time is the earliest refined maximum within ``TIE_TOL`` of the
largest (``peak_step``).
The period is the first refined maximum of the source probability
within ``PST_TOL`` of 1 after the first grid minimum of that probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qwalk.dtqw import PST_TOL, peak_step, report_json
from qwalk.errors import ConfigError, ToleranceError, check_table, check_vertices
from qwalk.graphs import Graph

__all__ = [
    "Spectrum",
    "evolve_ct",
    "evolve_ct_many",
    "detect_transfer_ct",
    "analytic_pair_hub_state",
    "CtTransferReport",
]

RECONSTRUCTION_TOL = 1e-9
_GRID_BLOCK_BYTES = 1 << 17  # bound on the complex phases of one block of a grid scan


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of an adjacency matrix, checked on construction."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns

    @classmethod
    def from_graph(cls, g: Graph) -> "Spectrum":
        vals, vecs = np.linalg.eigh(g.adjacency)
        err = np.abs((vecs * vals) @ vecs.T - g.adjacency).max()
        if err > RECONSTRUCTION_TOL:
            raise ToleranceError(f"eigendecomposition residual {err:.3e}")
        return cls(vals, vecs)

    def propagate(self, psi0: np.ndarray, t: float) -> np.ndarray:
        """State at time t."""
        return evolve_ct_many(self, psi0, np.array([t]))[0]


def evolve_ct(g: Graph, psi0: np.ndarray, t: float) -> np.ndarray:
    """State of the continuous walk at time t from a unit initial state."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (g.n,):
        raise ConfigError(f"state has {psi0.shape} entries, graph has {g.n} vertices")
    return Spectrum.from_graph(g).propagate(psi0, t)


def evolve_ct_many(spec: Spectrum, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(len(times), n) array of states, one row per requested time."""
    return _amplitudes(spec, spec.eigenvectors.T @ np.asarray(psi0, dtype=complex), times)


def _amplitudes(
    spec: Spectrum, coeff: np.ndarray, times: np.ndarray, cols=slice(None)
) -> np.ndarray:
    """Amplitudes at the vertices cols, one row per time, of the state whose
    eigenbasis coefficients are coeff = V^T psi0."""
    phases = np.exp(-1j * np.outer(times, spec.eigenvalues))
    return (phases * coeff) @ spec.eigenvectors[cols].T


@dataclass(frozen=True)
class CtTransferReport:
    source: int
    target: int
    times: np.ndarray
    vertex_series: np.ndarray  # (len(times), 2 + len(track)): source, target, *track
    pst_times: tuple[float, ...]
    period: float | None
    max_probability: float
    max_time: float
    high_amplitude: bool
    lam: float

    @property
    def target_series(self) -> np.ndarray:
        return self.vertex_series[:, 1]

    def to_json_dict(self) -> dict:
        return report_json(self, ("times", "vertex_series")) | {"pst_tol": PST_TOL}


def _refined_maxima(
    series: np.ndarray, times: np.ndarray, spec: Spectrum, psi0: np.ndarray, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Refined (times, values) of every interior local maximum of a grid scan, in grid order.

    The amplitude at v is a(t) = sum_k w_k exp(-i lambda_k t) with
    w = (V^T psi0) * V[v], so one product with the columns (w, -i lambda w)
    gives a and a' at every open bracket's midpoint.  The midpoint replaces
    lo where the slope Re(conj(a) a') is positive and hi elsewhere.
    """
    i = np.flatnonzero((series[1:-1] >= series[:-2]) & (series[1:-1] > series[2:])) + 1
    lo, hi = times[i - 1], times[i + 1]
    w = (spec.eigenvectors.T @ psi0) * spec.eigenvectors[v]
    weights = np.stack([w, -1j * spec.eigenvalues * w], axis=1)
    peak_t, peak_p = np.empty(i.size), np.empty(i.size)
    k = np.arange(i.size)  # open brackets
    while k.size:
        mid = (lo[k] + hi[k]) / 2
        a, da = (np.exp(-1j * np.outer(mid, spec.eigenvalues)) @ weights).T
        done = (mid == lo[k]) | (mid == hi[k])
        peak_t[k[done]], peak_p[k[done]] = mid[done], np.minimum(np.abs(a[done]) ** 2, 1.0)
        rising = (a.conj() * da).real > 0
        lo[k[rising]], hi[k[~rising]] = mid[rising], mid[~rising]
        k = k[~done]
    return peak_t, peak_p


def detect_transfer_ct(
    g: Graph,
    pair: tuple[int, int],
    t_max: float = 100.0,
    dt: float = 0.01,
    lam: float = 0.9,
    track: tuple[int, ...] = (),
) -> CtTransferReport:
    """Scan [0, t_max] for transfer and periodicity of the continuous walk,
    at the vertices source, target, *track: the report's vertex_series columns."""
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    check_vertices(g.n, pair)
    check_vertices(g.n, track, "tracked vertex")
    source, target = pair
    spec = Spectrum.from_graph(g)
    psi0 = np.zeros(g.n, dtype=complex)
    psi0[source] = 1.0
    coeff = spec.eigenvectors.T @ psi0
    cols = [source, target, *track]
    # the scan still evaluates T x n phases, so the bound counts those
    check_table("ctqw time grid", t_max / dt + 1, g.n)
    times = np.arange(0.0, t_max + dt / 2, dt)
    vertex_series = np.empty((times.size, len(cols)))
    # blocks of equal length, so that no block of a grid of two or more rows
    # has a single row (matmul takes another BLAS path for one row)
    blocks = -(-times.size // max(1, _GRID_BLOCK_BYTES // (16 * g.n)))
    for out, part in zip(np.array_split(vertex_series, blocks), np.array_split(times, blocks)):
        out[:] = np.abs(_amplitudes(spec, coeff, part, cols)) ** 2
    # |psi|^2 of a spectral sum can land a few ulps above 1; no probability does
    np.minimum(vertex_series, 1.0, out=vertex_series)
    # psi0 is the source basis vector, so its fidelity is the source probability
    fid_series, target_series = vertex_series[:, 0], vertex_series[:, 1]

    peak_t, peak_p = _refined_maxima(target_series, times, spec, psi0, target)
    pst_times = tuple(peak_t[peak_p >= 1.0 - PST_TOL].tolist())
    # the grid's best point, unless a refined maximum reaches it
    grid_best = int(np.argmax(target_series))
    max_time, max_probability = float(times[grid_best]), float(target_series[grid_best])
    if peak_p.size and peak_p.max() >= max_probability:
        max_probability = float(peak_p.max())
        max_time = float(peak_t[peak_step(peak_p) - 1])

    # skip the descent from the peak at t = 0: look only from the first grid
    # minimum, where the fidelity first rises
    rises = np.flatnonzero(fid_series[1:] > fid_series[:-1])
    period = None
    if rises.size:
        start = rises[0]
        back_t, back_p = _refined_maxima(fid_series[start:], times[start:], spec, psi0, source)
        certified = np.flatnonzero(back_p >= 1.0 - PST_TOL)
        if certified.size:
            period = float(back_t[certified[0]])
    return CtTransferReport(
        source=source,
        target=target,
        times=times,
        vertex_series=vertex_series,
        pst_times=pst_times,
        period=period,
        max_probability=max_probability,
        max_time=max_time,
        high_amplitude=max_probability > lam,
        lam=lam,
    )


def analytic_pair_hub_state(n: int, t: float) -> np.ndarray:
    """Closed-form continuous walk on Join(Edgeless(2), Edgeless(n)).

    Vertex order matches the join convention: source hub 0, target hub 1,
    then the n bulk vertices.  Starting from the source, the amplitudes
    are (cos(w t) + 1) / 2 at the source, (cos(w t) - 1) / 2 at the
    target, and -i sin(w t) / sqrt(2 n) on each bulk vertex, where
    w = sqrt(2 n).  The walk is periodic with period 2 pi / w and the
    target amplitude peaks at half the period.
    """
    if n < 0:
        raise ConfigError("analytic_pair_hub_state requires n >= 0")
    out = np.zeros(n + 2, dtype=complex)
    if n == 0:
        out[0] = 1.0
        return out
    w = math.sqrt(2.0 * n)
    out[0] = (math.cos(w * t) + 1.0) / 2.0
    out[1] = (math.cos(w * t) - 1.0) / 2.0
    out[2:] = -1j * math.sin(w * t) / w
    return out
