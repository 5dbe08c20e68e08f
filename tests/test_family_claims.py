"""The paper's family claims for every n, from exact quotient matrices.

A walk whose start is constant on the cells of an equitable partition
stays in their span, so where a family's quotient does not grow with n,
one small exact matrix settles the claim for every n.  sympy is the
oracle; the float walks of the package must agree with it at sampled n.

- Criterion 1, the Grover walk on K2 v C_n from the equal superposition
  at hub 0: the 5 arc classes (cell of a port's vertex, cell of its
  neighbour), over the cells hub 0, hub 1 and the cycle.
- Criterion 5, the continuous walk on K2 v E_n from vertex 0: the
  quotient B over the cells {0}, {1} and E_n.
"""

import numpy as np
import sympy as sp

from qwalk.arcs import ArcSpace
from qwalk.coins import parse_policy
from qwalk.ctqw import Spectrum, detect_transfer_ct, evolve_ct_many
from qwalk.dtqw import build_step_operator, detect_transfer, equal_superposition, trajectory
from qwalk.graphs import Cycle, Edgeless, Join, build

# ----- criterion 1: Grover walk on K2 v C_n, every n >= 3 -----

_H, _R = sp.Rational(1, 2), sp.sqrt(2) / 2
# The class walk over Q(sqrt 2), classes in the order of ARC_CLASSES
Q = sp.Matrix([
    [0, -_H, _R, _H, 0],
    [1, 0, 0, 0, 0],
    [0, _R, 0, _R, 0],
    [0, 0, 0, 0, 1],
    [0, _H, _R, -_H, 0],
])
# (cell of the port's vertex, cell of its neighbour); cells 0 and 1 are the hubs, 2 the cycle
ARC_CLASSES = [(0, 2), (2, 0), (2, 2), (2, 1), (1, 2)]
START, TARGET = 0, 4  # the equal superpositions at hub 0 and at hub 1


def _exact_powers(m: sp.Matrix, count: int) -> list[sp.Matrix]:
    """m^0 .. m^count, each entry expanded to its canonical a + b sqrt(2)."""
    powers = [sp.eye(m.rows)]
    for _ in range(count):
        powers.append((m * powers[-1]).applyfunc(sp.expand))
    return powers


def test_q_is_the_grover_coin_then_the_shift_for_every_n():
    # For n >= 3 every cycle vertex has the ports (hub 0, hub 1, cycle, cycle), and
    # each class holds the same ports at every cycle vertex, so the class action of
    # the coin is read at one vertex and does not depend on n.  The Grover coin
    # 2J/d - I maps the uniform state 1 at a hub to (2d/d - 1) 1 = 1, at any degree d.
    grover4 = sp.ones(4, 4) / 2 - sp.eye(4)
    # each class at one cycle vertex, over the same 1/sqrt(n) per class
    local = {1: sp.Matrix([1, 0, 0, 0]), 2: sp.Matrix([0, 0, 1, 1]) / sp.sqrt(2),
             3: sp.Matrix([0, 1, 0, 0])}
    coin = sp.zeros(5, 5)
    coin[START, START] = coin[TARGET, TARGET] = 1
    for j, v in local.items():
        for i, w in local.items():
            coin[i, j] = (w.T * grover4 * v)[0]
    # the flip-flop shift swaps (a, b) with (b, a)
    shift = sp.zeros(5, 5)
    for j, (a, b) in enumerate(ARC_CLASSES):
        shift[ARC_CLASSES.index((b, a)), j] = 1
    assert (shift * coin).applyfunc(sp.expand) == Q


def test_q_transfers_at_six_and_has_least_period_twelve():
    powers = _exact_powers(Q, 12)
    x0 = sp.eye(5)[:, START]
    assert powers[6] * x0 == sp.eye(5)[:, TARGET]
    assert powers[12] == sp.eye(5)
    assert all(powers[t] != sp.eye(5) for t in range(1, 12))
    # nor does the start state return before 12, up to a phase
    assert all(abs(powers[t][START, START]) != 1 for t in range(1, 12))


def _class_matrix(space: ArcSpace) -> np.ndarray:
    """(arcs, 5) matrix of the unit class vectors of K2 v C_n, in ARC_CLASSES order."""
    cell = np.minimum(np.arange(int(space.heads.max()) + 1), 2)
    cols = np.array([[cell[v], cell[w]] == list(c) for v, w in zip(space.heads, space.targets)
                     for c in ARC_CLASSES]).reshape(space.n_arcs, 5).astype(float)
    return cols / np.linalg.norm(cols, axis=0)


def test_the_float_grover_walk_is_the_class_walk_at_sampled_n():
    q = np.array(Q, dtype=float)
    for n in (3, 4, 5, 8, 36, 200):
        g = build(Join(Edgeless(2), Cycle(n)))
        op = build_step_operator(g, parse_policy("O2"))
        p = _class_matrix(op.space)
        assert np.max(np.abs(op.matrix @ p - p @ q)) <= 1e-14, n
        psi0 = equal_superposition(op.space, 0)
        lifted = np.stack([p @ np.linalg.matrix_power(q, t)[:, START] for t in range(13)])
        assert np.max(np.abs(trajectory(op, psi0, 12) - lifted)) <= 1e-13, n
        rep = detect_transfer(g, parse_policy("O2"), psi0, (0, 1), t_max=24)
        assert (rep.pst_steps, rep.strict_period) == ((6, 18), 12), n


# ----- criterion 5: continuous walk on K2 v E_n, every n -----


def test_hub_pair_quotient_transfers_at_pi_over_sqrt_2n_with_period_twice_that():
    n, t, x = sp.symbols("n t x", positive=True)
    b = sp.Matrix([[0, 0, n], [0, 0, n], [1, 1, 0]])
    w = sp.sqrt(2 * n)
    assert b.eigenvals() == {0: 1, w: 1, -w: 1}
    # the symmetric form D^(1/2) B D^(-1/2), D the cell sizes (1, 1, n), drives the walk
    half = sp.diag(1, 1, sp.sqrt(n))
    s = half * b * half.inv()
    assert s == s.T
    basis = {0: sp.Matrix([1, -1, 0]) / sp.sqrt(2), w: sp.Matrix([1, 1, sp.sqrt(2)]) / 2,
             -w: sp.Matrix([1, 1, -sp.sqrt(2)]) / 2}
    for lam, v in basis.items():
        assert (s * v - lam * v).applyfunc(sp.simplify) == sp.zeros(3, 1)
    assert sum((v * v.T for v in basis.values()), sp.zeros(3, 3)) == sp.eye(3)
    # so exp(-iSt) is the sum of exp(-i lam t) v v^T over the orthonormal eigenbasis
    u = sum((sp.exp(-sp.I * lam * t) * v * v.T for lam, v in basis.items()), sp.zeros(3, 3))
    a0, a1 = (sp.simplify(u[i, 0].rewrite(sp.cos)) for i in (0, 1))
    assert sp.simplify(a0 - (1 + sp.cos(w * t)) / 2) == 0
    assert sp.simplify(a1 - (sp.cos(w * t) - 1) / 2) == 0
    assert sp.simplify(a1.subs(t, sp.pi / w)) == -1  # PST at pi / sqrt(2n)
    assert sp.simplify(a0.subs(t, 2 * sp.pi / w)) == 1
    # |a0| = 1 needs cos(wt) = 1 (cos(wt) = -3 has no solution): none before 2 pi / w
    assert sp.solveset(sp.Eq(sp.cos(x), 1), x, sp.Interval.open(0, 2 * sp.pi)) == sp.EmptySet


def test_the_float_continuous_walk_is_the_quotient_walk_at_sampled_n():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 50, 300):
        g = build(Join(Edgeless(2), Edgeless(n)))
        cells = np.zeros((n + 2, 3))
        cells[[0, 1], [0, 1]] = 1
        cells[2:, 2] = 1
        b = np.array([[0, 0, n], [0, 0, n], [1, 1, 0]], dtype=float)
        assert np.array_equal(g.adjacency @ cells, cells @ b), n  # the partition is equitable
        w = np.sqrt(2.0 * n)
        times = rng.uniform(0.0, 20.0, size=50)
        psi0 = np.eye(n + 2)[0].astype(complex)
        states = evolve_ct_many(Spectrum.from_graph(g), psi0, times)
        assert np.max(np.abs(states[:, 0] - (1 + np.cos(w * times)) / 2)) <= 1e-12, n
        assert np.max(np.abs(states[:, 1] - (np.cos(w * times) - 1) / 2)) <= 1e-12, n
        rep = detect_transfer_ct(g, (0, 1), t_max=3 * 2 * np.pi / w, dt=0.002)
        assert abs(rep.period - 2 * np.pi / w) <= 1e-12, n
        assert abs(rep.pst_times[0] - np.pi / w) <= 1e-12, n
