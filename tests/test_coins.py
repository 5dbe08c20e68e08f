import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.coins import (
    ExplicitMap,
    PresetRow,
    Uniform,
    dft,
    grover,
    hadamard,
    hadamard_columns_swapped,
    hadamard_or_grover,
    interp_grover,
    parse_policy,
)
from qwalk.errors import ConfigError
from qwalk.graphs import Cycle, Edgeless, Graph, Join, build


def unitarity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


# ----- single coins -----

def test_grover_entries():
    g3 = grover(3)
    assert np.allclose(g3, np.full((3, 3), 2 / 3) - np.eye(3))
    assert np.allclose(grover(1), [[1.0]])


def test_grover_two_is_swap():
    assert np.allclose(grover(2), [[0, 1], [1, 0]])


def test_dft_kernel_sign():
    d4 = dft(4)
    assert np.allclose(d4[1, 1], np.exp(-2j * np.pi / 4) / 2)
    assert np.allclose(d4[1, 3], np.exp(-6j * np.pi / 4) / 2)


def test_dft_two_is_hadamard():
    assert np.allclose(dft(2), hadamard())


def test_hadamard_column_swap():
    h = hadamard()
    assert np.allclose(hadamard_columns_swapped(), h[:, [1, 0]])


@given(st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_named_coins_unitary(d):
    assert unitarity_defect(grover(d)) < 1e-12
    assert unitarity_defect(dft(d)) < 1e-12


# ----- interpolating coin -----

def test_interp_endpoints_exact():
    for d, t in ((3, 1), (5, 2), (8, 3)):
        at0 = interp_grover(d, t, 0.0)
        block = np.zeros((d, d), dtype=complex)
        block[: d - t, : d - t] = grover(d - t)
        block[d - t :, d - t :] = np.eye(t)
        assert np.max(np.abs(at0 - block)) < 1e-12
        at1 = interp_grover(d, t, 1.0)
        assert np.max(np.abs(at1 - grover(d))) < 1e-12


def test_interp_unitary_on_grid():
    for c in np.linspace(0.0, 1.0, 101):
        for d, t in ((3, 1), (6, 2)):
            assert unitarity_defect(interp_grover(d, t, float(c))) < 1e-12


def test_interp_limits_toward_endpoints():
    # The c -> 1 limit is the full Grover coin.  The c -> 0 limit keeps
    # grover(d - t) on the ordinary ports but leaves -1 phases on the
    # tunnel ports; those ports carry no edges at c = 0, so the exact
    # c = 0 matrix uses the identity there instead.
    eps = 1e-8
    assert np.max(np.abs(interp_grover(5, 2, 1 - eps) - interp_grover(5, 2, 1.0))) < 1e-6
    near0 = interp_grover(5, 2, eps)
    assert np.max(np.abs(near0[:3, :3] - grover(3))) < 1e-6
    assert np.max(np.abs(near0[3:, 3:] + np.eye(2))) < 1e-6
    assert np.max(np.abs(near0[:3, 3:])) < 1e-6


def test_interp_symmetric_real():
    m = interp_grover(7, 3, 0.37)
    assert np.max(np.abs(m - m.T)) < 1e-12
    assert np.max(np.abs(m.imag)) == 0.0


def test_interp_rejects_bad_split():
    with pytest.raises(ConfigError):
        interp_grover(4, 3, 0.5)
    with pytest.raises(ConfigError):
        interp_grover(4, 0, 0.5)
    with pytest.raises(ConfigError):
        interp_grover(4, 1, 1.5)


# ----- policies -----

def test_uniform_policies_pick_degree():
    g = build(Join(Edgeless(2), Cycle(4)))
    assert np.allclose(Uniform(grover).coin_for(g, 0, 4), grover(4))
    assert np.allclose(Uniform(dft).coin_for(g, 2, 4), dft(4))


def test_pairs_policy_uses_hadamard_at_degree_two():
    g = build(Cycle(5))
    pol = Uniform(hadamard_or_grover)
    assert np.allclose(pol.coin_for(g, 0, 2), hadamard())
    g2 = build(Join(Edgeless(2), Cycle(4)))
    assert np.allclose(pol.coin_for(g2, 0, 4), grover(4))


def test_preset_row_four_blocks():
    g = build(Join(Edgeless(2), Edgeless(4)))
    pol = PresetRow(4)
    assert np.allclose(pol.coin_for(g, 0, 4), dft(4))
    assert np.allclose(pol.coin_for(g, 2, 2), hadamard())
    assert np.allclose(pol.coin_for(g, 5, 2), hadamard_columns_swapped())


def test_preset_row_one_all_dft():
    g = build(Join(Edgeless(2), Edgeless(6)))
    pol = PresetRow(1)
    assert np.allclose(pol.coin_for(g, 0, 6), dft(6))
    assert np.allclose(pol.coin_for(g, 3, 2), dft(2))


def test_explicit_map_with_fallback():
    g = build(Cycle(4))
    pol = ExplicitMap({1: np.eye(2)})
    assert np.allclose(pol.coin_for(g, 1, 2), np.eye(2))
    assert np.allclose(pol.coin_for(g, 0, 2), grover(2))


def _row4_by_list(g, v, d):
    """Preset row 4 as it was first written: each lookup lists the non-hubs."""
    if v in (0, 1):
        return dft(d)
    if d != 2:
        raise ConfigError(f"vertex {v}: preset row 4 expects degree 2, got {d}")
    others = [w for w in range(g.n) if w not in (0, 1)]
    if len(others) % 2 != 0:
        raise ConfigError("preset row 4 needs an even number of degree-2 vertices")
    return hadamard() if others.index(v) < len(others) // 2 else hadamard_columns_swapped()


@pytest.mark.parametrize("n", range(2, 13))
def test_preset_row_4_picks_the_half_by_index(n):
    g = Graph(np.zeros((n, n)))
    for v in range(n):
        for d in (2, 3):
            try:
                expected = _row4_by_list(g, v, d)
            except ConfigError as exc:
                with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                    PresetRow(4).coin_for(g, v, d)
            else:
                assert np.array_equal(PresetRow(4).coin_for(g, v, d), expected)


def test_preset_row_4_lookups_do_not_scan_the_vertices():
    g = build(Join(Edgeless(2), Edgeless(2000)))
    policy = PresetRow(4)
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        for v in range(g.n - 100, g.n):
            policy.coin_for(g, v, 2)
        best = min(best, time.perf_counter() - start)
    assert best < 2e-3, f"100 lookups took {best * 1e3:.1f} ms"


# ----- policy string parsing -----

def test_parse_policy_names():
    assert parse_policy("O1") == Uniform(dft)
    assert parse_policy("O2") == Uniform(grover)
    assert parse_policy("O3") == Uniform(hadamard_or_grover)
    assert isinstance(parse_policy("table1:3"), PresetRow)


def test_parse_policy_inline_json():
    pol = parse_policy('{"0": [[0, 1], [1, 0]]}')
    g = build(Cycle(4))
    assert np.allclose(pol.coin_for(g, 0, 2), [[0, 1], [1, 0]])


def test_parse_policy_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_policy("O9")
    with pytest.raises(ConfigError):
        parse_policy("table1:7")
    with pytest.raises(ConfigError):
        parse_policy("table1:x")


@pytest.mark.parametrize("make, message", [
    (lambda: grover(0), "grover coin requires d >= 1"),
    (lambda: dft(0), "dft coin requires d >= 1"),
    # vertex 2 of K2 + C4 has its two cycle neighbours and both hubs
    (lambda: PresetRow(2).coin_for(build(Join(Edgeless(2), Cycle(4))), 2, 4),
     "vertex 2: preset row 2 expects degree 2, got 4"),
    (lambda: PresetRow(4).coin_for(build(Join(Edgeless(2), Cycle(4))), 2, 4),
     "vertex 2: preset row 4 expects degree 2, got 4"),
    (lambda: PresetRow(4).coin_for(build(Join(Edgeless(2), Edgeless(3))), 2, 2),
     "preset row 4 needs an even number of degree-2 vertices"),
    (lambda: PresetRow(5).coin_for(build(Cycle(4)), 0, 2), "unknown preset row 5"),
    (lambda: parse_policy("{bad"), "bad JSON coin map: "),
], ids=["grover-0", "dft-0", "row2-degree", "row4-degree", "row4-odd", "row5", "bad-json"])
def test_each_coin_refusal_names_its_rule(make, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("text, key", [
    ('{"x": [[1, 0], [0, 1]]}', "'x'"),
    ('{"0": "abc"}', "'0'"),
    ('{"1": [[1, 0], [0]]}', "'1'"),
], ids=["key", "string", "ragged"])
def test_parse_policy_names_the_bad_coin_map_key(text, key):
    with pytest.raises(ConfigError, match=f"coin map key {key}"):
        parse_policy(text)
