"""Continuous-time walk generated by the adjacency matrix.

The Hamiltonian is gamma * A with gamma fixed at 1.  Evolution goes
through the eigendecomposition, psi(t) = V exp(-i Lambda t) V* psi(0),
so states at arbitrary times cost one small matrix product each.
Transfer detection scans a time grid and sharpens every local maximum
with golden-section search, and only the refined values are allowed to
certify perfect transfer.  All maxima of a scan are refined in lockstep:
each iteration evaluates the objective once, on an array holding the new
point of every bracket still open, and each bracket makes the same
comparisons and updates as a search of its own.  A bracket closes when it
is narrower than the tolerance, or when it returns to a state it held
before: from t = 8192 on the float spacing exceeds the 1e-12 tolerance,
and a bracket that can no longer shrink would otherwise cycle for ever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qwalk.errors import ConfigError, ToleranceError
from qwalk.graphs import Graph

__all__ = [
    "Spectrum",
    "evolve_ct",
    "evolve_ct_many",
    "detect_transfer_ct",
    "analytic_pair_hub_state",
    "CtTransferReport",
    "golden_section_max",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of an adjacency matrix, checked on construction."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns

    @classmethod
    def from_graph(cls, g: Graph, reconstruction_tol: float = 1e-9) -> "Spectrum":
        vals, vecs = np.linalg.eigh(g.adjacency)
        err = np.abs(vecs @ np.diag(vals) @ vecs.T - g.adjacency).max()
        if err > reconstruction_tol:
            raise ToleranceError(f"eigendecomposition residual {err:.3e}")
        return cls(vals, vecs)

    def propagate(self, psi0: np.ndarray, t, vertex: int | None = None) -> np.ndarray:
        """State at time t, or with a vertex its amplitude at each time in t.

        A vertex's amplitudes are one dot product per time with that
        vertex's row of eigenvectors, which reproduces the bits of the
        same entry of a full state; a batched ``Y @ V.T`` would not.
        """
        if vertex is None:
            phases = np.exp(-1j * self.eigenvalues * t)
            return self.eigenvectors @ (phases * (self.eigenvectors.T @ psi0))
        phases = np.exp(-1j * self.eigenvalues * np.asarray(t)[..., None])
        return (phases * (self.eigenvectors.T @ psi0)) @ self.eigenvectors[vertex]


def evolve_ct(g: Graph, psi0: np.ndarray, t: float) -> np.ndarray:
    """State of the continuous walk at time t from a unit initial state."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (g.n,):
        raise ConfigError(f"state has {psi0.shape} entries, graph has {g.n} vertices")
    return Spectrum.from_graph(g).propagate(psi0, t)


def evolve_ct_many(spec: Spectrum, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(len(times), n) array of states, one row per requested time."""
    coeff = spec.eigenvectors.T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(times, spec.eigenvalues))
    return (phases * coeff) @ spec.eigenvectors.T


def golden_section_max(f, lo, hi, tol: float = 1e-12):
    """Locate the maximum of a unimodal function on each bracket [lo, hi].

    lo and hi are floats or equal-length 1-D arrays, and f maps a 1-D
    array of points to their values.  The brackets run in lockstep (see
    the module docstring), so each result is the one a search of that
    bracket alone would give.  Returns (x, f(x)) at the midpoint of each
    final bracket: floats for float ends, else arrays.
    """
    state = np.empty((4, np.size(lo)))
    a, b, c, d = state  # views: a bracket's state is its column
    a[:], b[:] = lo, hi
    h = b - a
    c[:] = b - _INVPHI * h
    d[:] = a + _INVPHI * h
    fc, fd = np.split(f(state[2:].ravel()), 2)
    k = np.flatnonzero(h > tol)  # open brackets
    saved, save_at, it = None, 1, 0
    while k.size:
        left = fc[k] > fd[k]
        lk, rk = k[left], k[~left]
        b[lk], d[lk], fd[lk] = d[lk], c[lk], fc[lk]
        a[rk], c[rk], fc[rk] = c[rk], d[rk], fd[rk]
        h[k] = b[k] - a[k]
        c[lk] = b[lk] - _INVPHI * h[lk]
        d[rk] = a[rk] + _INVPHI * h[rk]
        fk = f(np.where(left, c[k], d[k]))
        fc[lk], fd[rk] = fk[left], fk[~left]
        open_ = h[k] > tol
        if saved is not None:
            # Brent's cycle detection: a state that comes back repeats for ever
            open_ &= (state[:, k] != saved[:, k]).any(axis=0)
        it += 1
        if it == save_at:
            saved, save_at = state.copy(), 2 * save_at
        k = k[open_]
    x = (a + b) / 2
    fx = f(x)
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        return float(x[0]), float(fx[0])
    return x, fx


@dataclass(frozen=True)
class CtTransferReport:
    source: int
    target: int
    times: np.ndarray
    vertex_series: np.ndarray  # (len(times), n) vertex probabilities
    target_series: np.ndarray
    pst_times: tuple[float, ...]
    period: float | None
    max_probability: float
    max_time: float
    high_amplitude: bool
    lam: float
    pst_tol: float

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "pst_times": list(self.pst_times),
            "period": self.period,
            "max_probability": self.max_probability,
            "max_time": self.max_time,
            "high_amplitude": self.high_amplitude,
            "lam": self.lam,
            "pst_tol": self.pst_tol,
        }


def _refined_maxima(
    series: np.ndarray, times: np.ndarray, value_at
) -> tuple[np.ndarray, np.ndarray]:
    """Refined (times, values) of every interior local maximum of a grid scan, in grid order."""
    i = np.flatnonzero((series[1:-1] >= series[:-2]) & (series[1:-1] > series[2:])) + 1
    return golden_section_max(value_at, times[i - 1], times[i + 1])


def detect_transfer_ct(
    g: Graph,
    pair: tuple[int, int],
    t_max: float = 100.0,
    dt: float = 0.01,
    lam: float = 0.9,
    pst_tol: float = 1e-9,
) -> CtTransferReport:
    """Scan [0, t_max] for transfer and periodicity of the continuous walk."""
    source, target = pair
    spec = Spectrum.from_graph(g)
    psi0 = np.zeros(g.n, dtype=complex)
    psi0[source] = 1.0
    times = np.arange(0.0, t_max + dt / 2, dt)
    states = evolve_ct_many(spec, psi0, times)
    vertex_series = np.abs(states) ** 2
    target_series = vertex_series[:, target]

    def prob_at(v: int):
        return lambda t: np.abs(spec.propagate(psi0, t, vertex=v)) ** 2

    peak_t, peak_p = _refined_maxima(target_series, times, prob_at(target))
    pst_times = tuple(peak_t[peak_p >= 1.0 - pst_tol].tolist())
    if peak_p.size:
        best = int(np.argmax(peak_p))
        max_time, max_probability = float(peak_t[best]), float(peak_p[best])
    else:
        max_time, max_probability = 0.0, float(target_series[0])
    grid_best = int(np.argmax(target_series))
    if target_series[grid_best] > max_probability:
        max_time, max_probability = float(times[grid_best]), float(target_series[grid_best])

    # psi0 is the source basis vector, so its fidelity is the source probability
    fid_series = vertex_series[:, source]
    # skip the trivial peak at t = 0: look only after fidelity first dips
    dipped = np.nonzero(fid_series < 0.5)[0]
    period = None
    if dipped.size:
        start = dipped[0]
        back_t, back_p = _refined_maxima(fid_series[start:], times[start:], prob_at(source))
        certified = np.flatnonzero(back_p >= 1.0 - pst_tol)
        if certified.size:
            period = float(back_t[certified[0]])
    return CtTransferReport(
        source=source,
        target=target,
        times=times,
        vertex_series=vertex_series,
        target_series=target_series,
        pst_times=pst_times,
        period=period,
        max_probability=max_probability,
        max_time=max_time,
        high_amplitude=max_probability > lam,
        lam=lam,
        pst_tol=pst_tol,
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
