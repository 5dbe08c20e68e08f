"""Eleven release-gate checks, one test per numbered criterion.

Each test prints a single verdict line straight to the terminal, outside
pytest's capture, then asserts every sub-check.  Tolerances are fixed
here on purpose.  A criterion that the code cannot meet stays red and
its verdict line carries the measured values.
"""

import itertools

import numpy as np

from qwalk.arcs import ArcSpace
from qwalk.coins import grover, interp_grover, parse_policy
from qwalk.ctqw import (
    Spectrum,
    analytic_pair_hub_state,
    detect_transfer_ct,
    evolve_ct,
    evolve_ct_many,
)
from qwalk.decoherence import (
    NoiseModel,
    classical_walk,
    decohere_ct,
    density_from_state,
    evolve_density,
    target_probability_vs_rate,
    vertex_marginal,
)
from qwalk.dtqw import (
    build_step_operator,
    detect_transfer,
    equal_superposition,
    haar_states,
    max_transfer_scan,
    state_at_vertex,
    target_block_powers,
)
from qwalk.explorer import (
    VariantDescriptor,
    build_variant,
    family_initial_state,
    interpolation_sweep,
    is_trivial_variant,
    pst_search,
    robustness_sweep,
)
from qwalk.graphs import Cycle, DiamondChain, Edgeless, Join, build


def _finish(num: int, checks: list, capsys, notes=()):
    bad = [(label, info) for label, ok, info in checks if not ok]
    if bad:
        body = "; ".join(f"{label}: {info}" for label, info in bad)
        status = "FAIL"
    else:
        body = f"{len(checks)} checks"
        status = "PASS"
    if notes:
        body += "; notes: " + "; ".join(notes)
    line = f"criterion {num}: {status} ({body})"
    with capsys.disabled():
        print(line, flush=True)
    assert not bad, line


def test_criterion_01_hub_cycle_pst_at_six_and_period_twelve(capsys):
    checks = []
    for n in range(3, 13):
        g = build(Join(Edgeless(2), Cycle(n)))
        space = ArcSpace.from_graph(g)
        rep = detect_transfer(
            g, parse_policy("O2"), equal_superposition(space, 0), (0, 1), t_max=24
        )
        ok = 6 in rep.pst_steps and rep.strict_period == 12
        checks.append(
            (f"n={n}", ok, f"P(6)={rep.target_series[6]:.12f} strict={rep.strict_period}")
        )
    _finish(1, checks, capsys)


def test_criterion_02_hub_pair_two_step_transfer_for_all_coin_states(capsys):
    checks = []
    for n in range(2, 9):
        g = build(Join(Edgeless(2), Edgeless(n)))
        op = build_step_operator(g, parse_policy("O2"))
        b2 = list(itertools.islice(target_block_powers(op, (0, 1), 2), 2))[1]
        worst = min(
            float(np.linalg.norm(b2 @ chi) ** 2) for chi in haar_states(n, 100, seed=n)
        )
        checks.append((f"n={n}", worst >= 1.0 - 1e-9, f"min P(2)={worst:.12f}"))
    _finish(2, checks, capsys)


def test_criterion_03_preset_coin_table_periods(capsys):
    checks = []
    notes = []
    for n in (2, 4, 6):
        g = build(Join(Edgeless(2), Edgeless(n)))
        space = ArcSpace.from_graph(g)
        inits = [equal_superposition(space, 0)] + [
            state_at_vertex(space, 0, chi) for chi in haar_states(n, 2, seed=100 + n)
        ]

        # row 1: Fourier everywhere, full-state return at step 8 for any start
        reps = [
            detect_transfer(g, parse_policy("table1:1"), psi, (0, 1), t_max=16)
            for psi in inits
        ]
        ok = all(r.fidelity_series[8] >= 1.0 - 1e-9 for r in reps)
        checks.append((f"row1 n={n}", ok, f"fid(8)={reps[0].fidelity_series[8]:.9f}"))
        periods = sorted({r.strict_period for r in reps})
        if ok and periods != [8]:
            notes.append(f"row1 n={n} minimal strict periods {periods}")

        # row 2: fixed arbitrary hub unitary, all probability back at step 4
        rep = detect_transfer(g, parse_policy("table1:2"), inits[1], (0, 1), t_max=16)
        ok = rep.source_series[4] >= 1.0 - 1e-9
        checks.append((f"row2 n={n}", ok, f"P_src(4)={rep.source_series[4]:.9f}"))
        if ok and rep.positional_period != 4:
            notes.append(f"row2 n={n} minimal positional period {rep.positional_period}")

        # row 3: Grover hubs with Hadamard bulk, full-state return at step 4
        reps = [
            detect_transfer(g, parse_policy("table1:3"), psi, (0, 1), t_max=16)
            for psi in inits
        ]
        ok = all(r.fidelity_series[4] >= 1.0 - 1e-9 for r in reps)
        checks.append((f"row3 n={n}", ok, f"fid(4)={reps[0].fidelity_series[4]:.9f}"))

        # row 4: period 8 with every bit of probability home at step 4,
        # for the equal-superposition start
        rep = detect_transfer(g, parse_policy("table1:4"), inits[0], (0, 1), t_max=16)
        ok = rep.source_series[4] >= 1.0 - 1e-9 and rep.source_series[8] >= 1.0 - 1e-9
        checks.append(
            (f"row4 n={n}", ok, f"P_src(4)={rep.source_series[4]:.9f}")
        )
        if ok:
            rep_h = detect_transfer(g, parse_policy("table1:4"), inits[1], (0, 1), t_max=16)
            notes.append(
                f"row4 n={n} equal-superposition return is strict with minimal "
                f"period {rep.strict_period}; haar-start strict period {rep_h.strict_period}"
            )
    _finish(3, checks, capsys, notes)


# Published maxima for chains (a) and (b), reproduced within +-0.03.
DIAMOND_MAXIMA = {
    ("O1", 2): (0.52, 0.52),
    ("O1", 3): (0.27, 0.23),
    ("O1", 10): (0.05, 0.04),
    ("O2", 2): (1.00, 0.99),
    ("O2", 3): (1.00, 0.99),
    ("O2", 10): (1.00, 0.98),
    ("O3", 2): (0.35, 0.25),
    ("O3", 3): (0.14, 0.14),
    ("O3", 10): (0.07, 0.13),
}


def _exact_block_maximum(g, policy: str, pair, t_max: int) -> float:
    """Best target probability over all source coin states up to t_max.

    That is the largest squared singular value of the source-to-target
    block over the steps, the value Haar sampling approaches from below.
    """
    op = build_step_operator(g, parse_policy(policy))
    return max(
        float(np.linalg.svd(block, compute_uv=False)[0]) ** 2
        for block in target_block_powers(op, pair, t_max)
    )


def test_criterion_04_diamond_chain_maxima_table(capsys):
    checks = []
    frac_b10 = None
    for n in (2, 3, 10):
        pair = (0, 3 * n)
        plain = build(DiamondChain(n))
        looped = build(DiamondChain(n, loop_ends=True))

        space = ArcSpace.from_graph(plain)
        rep = detect_transfer(
            plain, parse_policy("O2"), equal_superposition(space, 0), pair, t_max=2 * n
        )
        ok = rep.target_series[2 * n] >= 1.0 - 1e-9
        checks.append((f"(a) n={n} PST", ok, f"P({2 * n})={rep.target_series[2 * n]:.12f}"))

        for policy in ("O1", "O2", "O3"):
            want_a, want_b = DIAMOND_MAXIMA[(policy, n)]
            for tag, g, want in (("a", plain, want_a), ("b", looped, want_b)):
                scan = max_transfer_scan(
                    g, parse_policy(policy), pair, samples=1500, t_max=100, seed=0
                )
                ok = abs(scan.max_probability - want) <= 0.03
                info = f"max={scan.max_probability:.3f}"
                if tag == "b" and not ok:
                    info += f" exact {_exact_block_maximum(g, policy, pair, 100):.3f}"
                checks.append((f"({tag}) {policy} n={n}", ok, f"{info} want {want:.2f}+-0.03"))
                if tag == "b" and policy == "O2" and n == 10:
                    frac_b10 = scan.fraction_over_lam

    want_frac = 35.0 / 1500.0
    ok = frac_b10 is not None and abs(frac_b10 - want_frac) <= 0.01
    checks.append(
        ("(b) O2 n=10 fraction", ok, f"frac={frac_b10:.4f} want {want_frac:.4f}+-0.01")
    )
    _finish(4, checks, capsys)


def test_criterion_05_ct_hub_pair_closed_form_and_period(capsys):
    checks = []
    for n in range(1, 21):
        g = build(Join(Edgeless(2), Edgeless(n)))
        spec = Spectrum.from_graph(g)
        psi0 = np.zeros(n + 2, dtype=complex)
        psi0[0] = 1.0
        rng = np.random.default_rng(500 + n)
        times = rng.uniform(0.0, 20.0, size=100)
        states = evolve_ct_many(spec, psi0, times)
        err = max(
            float(np.max(np.abs(states[i] - analytic_pair_hub_state(n, t))))
            for i, t in enumerate(times)
        )
        period = 2.0 * np.pi / np.sqrt(2.0 * n)
        rep = detect_transfer_ct(g, (0, 1), t_max=3.0 * period, dt=0.002)
        period_ok = rep.period is not None and abs(rep.period - period) <= 1e-6
        half_ok = any(abs(t - period / 2.0) < 1e-6 for t in rep.pst_times)
        ok = err <= 1e-9 and period_ok and half_ok
        checks.append(
            (f"n={n}", ok, f"err={err:.2e} period={rep.period} half_pst={half_ok}")
        )
    _finish(5, checks, capsys)


def _c8_antipodal_probability(t):
    """Exact P(t) of the continuous walk on C8 from vertex 0 to vertex 4."""
    return ((1.0 + np.cos(2.0 * t) - 2.0 * np.cos(np.sqrt(2.0) * t)) / 4.0) ** 2


def test_criterion_06_ct_cycle_transfer_bounds(capsys):
    checks = []
    rep4 = detect_transfer_ct(build(Cycle(4)), (0, 2), t_max=10.0, dt=0.01)
    ok4 = bool(rep4.pst_times) and rep4.pst_times[0] <= 10.0
    checks.append(("C4 early PST", ok4, f"pst_times={rep4.pst_times[:2]}"))
    rep6 = detect_transfer_ct(build(Cycle(6)), (0, 3), t_max=100.0, dt=0.01)
    checks.append(
        (
            "C6 bound",
            rep6.max_probability <= 0.999,
            f"max={rep6.max_probability:.9f} at t={rep6.max_time:.4f}, bound 0.999",
        )
    )

    # C8 has no PST: P(t) = 1 needs cos 2t = 1 and cos(sqrt2 t) = -1 at
    # once, which the irrationality of sqrt2 rules out.  Its supremum is
    # still 1 (pretty good state transfer), so no bound below 1 holds;
    # the detector must instead certify nothing and report the true
    # maximum of the closed form over [0, 100].
    rep8 = detect_transfer_ct(build(Cycle(8)), (0, 4), t_max=100.0, dt=0.01)
    checks.append(("C8 no PST", rep8.pst_times == (), f"pst_times={rep8.pst_times[:2]}"))
    exact = float(_c8_antipodal_probability(rep8.max_time))
    checks.append(
        (
            "C8 max on closed form",
            abs(rep8.max_probability - exact) <= 1e-12,
            f"max={rep8.max_probability:.15f} closed form {exact:.15f} "
            f"at t={rep8.max_time:.6f}",
        )
    )
    fine = np.linspace(0.0, 100.0, 10 * (len(rep8.times) - 1) + 1)
    fine_series = _c8_antipodal_probability(fine)
    best = int(np.argmax(fine_series))
    checks.append(
        (
            "C8 max not exceeded",
            fine_series[best] <= rep8.max_probability + 1e-9,
            f"closed form {fine_series[best]:.12f} at t={fine[best]:.4f} "
            f"> max={rep8.max_probability:.12f}",
        )
    )
    _finish(6, checks, capsys)


def test_criterion_07_perturbed_start_robustness(capsys):
    checks = []
    thetas = np.linspace(0.0, 2.0 * np.pi, 65)
    phase = robustness_sweep("phase", [5, 36], magnitudes=thetas)
    p5_pi = float(phase[0, 32])
    checks.append(
        ("phase n=5 theta=pi", abs(p5_pi - 0.19) <= 0.01, f"P={p5_pi:.6f} want 0.19+-0.01")
    )
    min36 = float(phase[1].min())
    checks.append(("phase n=36 floor", min36 >= 0.9, f"min={min36:.6f} want >=0.9"))

    rand = robustness_sweep("random", [3, 30, 40], runs=1000, seed=0)
    p3 = float(rand[0])
    checks.append(
        ("random n=3 mean", abs(p3 - 0.82) <= 0.03, f"P={p3:.6f} want 0.82+-0.03")
    )
    for i, n in ((1, 30), (2, 40)):
        p = float(rand[i])
        checks.append(
            (f"random plateau n={n}", abs(p - 0.77) <= 0.03, f"P={p:.6f} want 0.77+-0.03")
        )
    _finish(7, checks, capsys)


def _mixed_coin_density(space: ArcSpace, v: int) -> np.ndarray:
    rho = np.zeros((space.n_arcs, space.n_arcs), dtype=complex)
    for a in space.ports(v):
        rho[a, a] = 1.0 / space.degree(v)
    return rho


def test_criterion_08_decoherence_limits(capsys):
    checks = []

    g = build(Join(Edgeless(2), Cycle(5)))
    op = build_step_operator(g, parse_policy("O2"))
    psi = equal_superposition(op.space, 0)
    rhos = evolve_density(density_from_state(psi), op, NoiseModel("both", 0.0), 12)
    err = 0.0
    state = psi
    for t in range(13):
        err = max(err, float(np.max(np.abs(rhos[t] - np.outer(state, state.conj())))))
        state = op.matrix @ state
    checks.append(("p=0 discrete", err <= 1e-10, f"err={err:.2e} limit 1e-10"))

    c4 = build(Cycle(4))
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    rho = decohere_ct(c4, density_from_state(psi0), rate=0.0, t=3.0)
    want = evolve_ct(c4, psi0, 3.0)
    err = float(np.max(np.abs(rho - np.outer(want, want.conj()))))
    checks.append(("rate=0 continuous", err <= 1e-8, f"err={err:.2e} limit 1e-8"))

    for label, spec, steps in (("C4", Cycle(4), 8), ("hub C5", Join(Edgeless(2), Cycle(5)), 6)):
        g = build(spec)
        op = build_step_operator(g, parse_policy("O1"))
        rhos = evolve_density(
            _mixed_coin_density(op.space, 0), op, NoiseModel("both", 1.0), steps
        )
        err = max(
            float(np.max(np.abs(vertex_marginal(op.space, rhos[t]) - classical_walk(g, 0, t))))
            for t in range(steps + 1)
        )
        checks.append((f"p=1 classical {label}", err <= 1e-6, f"err={err:.2e} limit 1e-6"))

    rates = np.linspace(0.0, 1.0, 11)
    curves = {}
    for n in (3, 8):
        g = build(Join(Edgeless(2), Cycle(n)))
        space = ArcSpace.from_graph(g)
        curves[n] = target_probability_vs_rate(
            g, parse_policy("O2"), equal_superposition(space, 0), (0, 1),
            rates, step=6, basis="coin",
        )
    gap = float(np.max(np.abs(curves[3] - curves[8])))
    checks.append(("curve n=3 vs n=8", gap <= 1e-6, f"gap={gap:.2e} limit 1e-6"))
    _finish(8, checks, capsys)


def _all_states_at_step_two(g):
    """Direction of the marked pair whose two-step block is an isometry."""
    op = build_step_operator(g, parse_policy("O2"))
    u2 = np.linalg.matrix_power(op.matrix, 2)
    for src, tgt in ((2, 0), (0, 2)):
        block = u2[op.space.vertex_slice(tgt), op.space.vertex_slice(src)]
        if block.shape[1] > block.shape[0]:
            continue
        if np.linalg.svd(block, compute_uv=False)[-1] >= 1.0 - 1e-9:
            return src, tgt
    return None


def _strict_operator_period(op, t_max: int):
    """First power t with U^t equal to the identity up to a global phase."""
    eye = np.eye(op.space.n_arcs)
    u = np.eye(op.space.n_arcs, dtype=complex)
    for t in range(1, t_max + 1):
        u = op.matrix @ u
        phase = u[0, 0]
        if abs(abs(phase) - 1.0) < 1e-9 and np.max(np.abs(u - phase * eye)) < 1e-9:
            return t
    return None


def _o3_note(record) -> str:
    """Whether an O3 record's step operator is the O2 one on its graph."""
    if record.policy != "O3":
        return ""
    g = build_variant(VariantDescriptor.from_json_dict(record.descriptor))
    same = np.array_equal(
        build_step_operator(g, parse_policy("O3")).matrix,
        build_step_operator(g, parse_policy("O2")).matrix,
    )
    return f" O3==O2 on this graph: {same}"


def test_criterion_09_search_rediscovery(capsys):
    checks = []
    records = pst_search(4, 2, samples=1500, t_max=60, seed=0, workers=2)
    o2 = [r for r in records if r.policy == "O2"]

    # (i) exactly one all-states step-2 variant has operator period 12,
    # and its 10-step source-to-target map is the known constant matrix
    survivors = []
    for rec in o2:
        if not (rec.pst and 2 in rec.pst_steps):
            continue
        desc = VariantDescriptor.from_json_dict(rec.descriptor)
        g = build_variant(desc)
        direction = _all_states_at_step_two(g)
        if direction is None:
            continue
        op = build_step_operator(g, parse_policy("O2"))
        if _strict_operator_period(op, 60) == 12:
            survivors.append((desc, direction))
    ok = len(survivors) == 1
    checks.append(
        ("(i) unique period-12 variant", ok, f"{len(survivors)} survivors")
    )
    if ok:
        desc, (src, tgt) = survivors[0]
        op = build_step_operator(build_variant(desc), parse_policy("O2"))
        u10 = np.linalg.matrix_power(op.matrix, 10)
        block = u10[op.space.vertex_slice(tgt), op.space.vertex_slice(src)]
        want = np.array([[-0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, 0.5]])
        err = float(np.max(np.abs(block - want))) if block.shape == want.shape else np.inf
        checks.append(
            ("(i) ten-step map", err <= 1e-9, f"err={err:.2e} desc={desc.attachments}")
        )

    # (ii) exact-transfer states at steps 20 and 50 somewhere in the survey
    has20 = any(20 in r.pst_steps for r in o2 if r.pst)
    has50 = any(50 in r.pst_steps for r in o2 if r.pst)
    checks.append(("(ii) step-20 record", has20, "none found"))
    checks.append(("(ii) step-50 record", has50, "none found"))

    # (iii) the alternative coin assignments are expected to find nothing
    stray = [r for r in records if r.policy in ("O1", "O3") and r.pst]
    examples = ", ".join(
        f"{r.policy}:{VariantDescriptor.from_json_dict(r.descriptor).attachments}"
        f" pst_steps={list(r.pst_steps)}{_o3_note(r)}"
        for r in stray[:3]
    )
    checks.append(
        ("(iii) no O1/O3 PST", not stray, f"{len(stray)} records, e.g. {examples}")
    )

    # (iv) every nontrivial exact-transfer variant touches only the pair
    offenders = []
    for r in records:
        if not r.pst:
            continue
        desc = VariantDescriptor.from_json_dict(r.descriptor)
        if is_trivial_variant(desc, 0) or is_trivial_variant(desc, 2):
            continue
        touched = {v for sub in desc.attachments for v in sub}
        if not touched <= {0, 2}:
            offenders.append((r.policy, desc.attachments, list(r.pst_steps)))
    examples = ", ".join(
        f"{policy}:{attachments} pst_steps={steps}"
        for policy, attachments, steps in offenders[:2]
    )
    checks.append(
        (
            "(iv) antipodal-only PST",
            not offenders,
            f"{len(offenders)} others, e.g. {examples}",
        )
    )
    _finish(9, checks, capsys)


def test_criterion_10_family_state_on_even_cycles(capsys):
    checks = []
    for m in (4, 6, 8, 10):
        g = build_variant(VariantDescriptor(m, ((0, m // 2),)))
        space = ArcSpace.from_graph(g)
        rng = np.random.default_rng(m)
        worst = 1.0
        for _ in range(20):
            x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi0 = state_at_vertex(space, 0, family_initial_state(x, y))
            rep = detect_transfer(g, parse_policy("O2"), psi0, (0, m // 2), t_max=m // 2)
            worst = min(worst, float(rep.target_series[m // 2]))
        checks.append(
            (f"C{m}", worst >= 1.0 - 1e-9, f"min P({m // 2})={worst:.12f}")
        )
    _finish(10, checks, capsys)


def test_criterion_11_interpolating_coin(capsys):
    checks = []
    for d, t in ((3, 1), (5, 2), (6, 3)):
        at0 = interp_grover(d, t, 0.0)
        want0 = np.zeros((d, d), dtype=complex)
        want0[: d - t, : d - t] = grover(d - t)
        want0[d - t :, d - t :] = np.eye(t)
        err0 = float(np.max(np.abs(at0 - want0)))
        err1 = float(np.max(np.abs(interp_grover(d, t, 1.0) - grover(d))))
        ok = err0 <= 1e-12 and err1 <= 1e-12
        checks.append((f"endpoints d={d} t={t}", ok, f"err0={err0:.2e} err1={err1:.2e}"))

    worst = max(
        float(np.max(np.abs(interp_grover(5, 2, c).conj().T @ interp_grover(5, 2, c) - np.eye(5))))
        for c in np.linspace(0.0, 1.0, 101)
    )
    checks.append(("unitary on c grid", worst <= 1e-12, f"defect={worst:.2e}"))

    res = interpolation_sweep("k2kn-k2cn", [3, 6], np.linspace(0.0, 1.0, 21))
    gap = float(np.max(np.abs(res[0] - res[1])))
    checks.append(("n=3 vs n=6", gap <= 1e-6, f"gap={gap:.2e}"))
    p0, pmid, p1 = (float(res[0][i]) for i in (0, 10, 20))
    checks.append(("P(0)=1", p0 >= 1.0 - 1e-9, f"P(0)={p0:.12f}"))
    checks.append(
        (
            "dip below endpoints",
            pmid < min(p0, p1) * (1.0 + 1e-9),
            f"P(0.5)={pmid:.9f} vs min endpoint {min(p0, p1):.9f}",
        )
    )
    _finish(11, checks, capsys)
