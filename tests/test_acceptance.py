"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import itertools
import math
import time

import numpy as np
from scipy.optimize import brentq

from depolmark.channels import apply_channel, qubit_kraus, qudit_kraus
from depolmark.dynmaps import (
    choi_of,
    choi_trace_norm,
    g_function,
    intermediate_choi,
    intermediate_map,
)
from depolmark.geometry import f_matrix, volume_determinant
from depolmark.kernel import (
    blp_measure,
    crossover_point,
    decay_rate,
    hcla_closed_form,
    hcla_measure,
    qudit_choi_eigenvalues,
    qutrit_hcla_log_form,
    survival,
    volume_measure,
)
from depolmark.matcore import trace_norm
from depolmark.measures import memory_witness_closed, memory_witness_X, trace_distance
from helpers import random_density, trajectory
from oracle.dense import bell_expectations, choi_closed_form, devectorize, multiqubit_kraus, swap_matrix, vectorize


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}{tail}")
    assert ok, f"criterion {number} failed: {description}{tail}"


def test_criterion_1_choi_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for alpha, q in itertools.product((0.0, 0.3, 0.7, 0.9), (0.0, 0.3, 0.8)):
        if abs(survival(alpha, q)) < 1e-9:  # singular q excluded
            continue
        for k in range(int(round((1.0 - q) / 0.05)) + 1):
            p = min(q + 0.05 * k, 1.0)
            chi = choi_of(intermediate_map(alpha, q, p))
            worst = max(worst, float(np.abs(chi.matrix - choi_closed_form(alpha, q, p)).max()))
            points += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "pipeline Choi equals closed form entrywise within 1e-10 on the full grid in < 1 s",
        worst < 1e-10 and elapsed < 1.0,
        f"{points} points, max diff {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_eigenvalue_crossover():
    gap = lambda p: qudit_choi_eigenvalues(0.7, 0.3, p, 2)[0] - qudit_choi_eigenvalues(0.7, 0.3, p, 2)[1]
    root = brentq(gap, 0.7, 0.85, xtol=1e-12)
    closed = crossover_point(0.7)
    ok = abs(root - 0.772553) < 1e-6 and abs(root - closed) < 1e-9 and abs(closed - 0.78) < 0.01
    report(
        2,
        "eigenvalues cross at p = 0.772553 +- 1e-6 (root-finder vs closed form; quoted 0.78 at its precision)",
        ok,
        f"root {root:.9f}",
    )


def test_criterion_3_ncp_region():
    grid = np.linspace(0.801, 1.0, 30)
    negatives = []
    norms = []
    for p in grid:
        negatives.append(qudit_choi_eigenvalues(0.7, 0.8, p, 2)[1] < 0)
        chi = intermediate_choi(0.7, 0.8, p)
        norms.append(trace_norm(chi.matrix) > 1.0)
        negatives.append(chi.eigenvalues()[0] < -1e-10)
    ok = all(negatives) and all(norms)
    report(3, "alpha=0.7, q=0.8: threefold Choi eigenvalue negative and ||chi||_1 > 1 on (0.8, 1]", ok)


def test_criterion_4_decay_rate_sign_structure():
    memoryless_positive = all(decay_rate(0.0, p) > 0 for p in np.linspace(0.0, 0.99, 100))
    grid = np.linspace(0.0, 1.0, 1001)[:-1]
    signs = np.sign([decay_rate(0.7, p) for p in grid])
    changes = np.nonzero(np.diff(signs))[0]
    single_change = len(changes) == 1
    bracket = (grid[changes[0]], grid[changes[0] + 1])
    root = brentq(lambda p: survival(0.7, p), *bracket, xtol=1e-12)
    at_crossover = abs(root - crossover_point(0.7)) <= 1e-6
    report(
        4,
        "gamma > 0 on [0, 1) for alpha=0; for alpha=0.7 exactly one sign change, at the singular point +- 1e-6",
        memoryless_positive and single_change and at_crossover,
        f"sign change at {root:.9f}",
    )


def test_criterion_5_hcla_consistency():
    worst = 0.0
    values = []
    for alpha in [round(0.1 * k, 1) for k in range(1, 11)]:
        numeric = hcla_measure(alpha)
        closed = hcla_closed_form(alpha)
        worst = max(worst, abs(numeric - closed))
        values.append(numeric)
    monotone = all(a < b for a, b in zip(values, values[1:]))
    report(
        5,
        "rate-measure quadrature matches the closed form within 1e-6 and increases with alpha",
        worst < 1e-6 and monotone,
        f"max |numeric - closed| = {worst:.2e}",
    )


def test_criterion_6_blp_exactness():
    worst = max(
        abs(blp_measure(alpha) - alpha / 4) for alpha in [round(0.1 * k, 1) for k in range(1, 11)]
    )
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 1.0, 21)
    kraus_sets = [qubit_kraus(0.0, p) for p in grid]
    monotone = True
    for _ in range(50):
        rho_a, rho_b = random_density(rng), random_density(rng)
        dist = [trace_distance(apply_channel(k, rho_a), apply_channel(k, rho_b)) for k in kraus_sets]
        monotone &= all(b - a <= 1e-12 for a, b in zip(dist, dist[1:]))
    report(
        6,
        "distinguishability measure equals alpha/4 within 1e-8; memoryless evolution never increases it",
        worst < 1e-8 and monotone,
        f"max |measure - alpha/4| = {worst:.2e}",
    )


def test_criterion_7_memory_witness():
    grid = np.linspace(0.3, 1.0, 141)
    agree = 0.0
    for alpha in (0.0, 0.7, 0.8, 0.9, 1.0):
        for p in grid:
            agree = max(agree, abs(memory_witness_X(alpha, 0.3, p) - memory_witness_closed(alpha, 0.3, p)))
    nonmonotone = True
    for alpha in (0.8, 0.9, 1.0):
        values = [memory_witness_closed(alpha, 0.3, p) for p in grid]
        low = int(np.argmin(values))
        nonmonotone &= 0 < low < len(values) - 1 and values[-1] > values[low]
    memoryless = [memory_witness_closed(0.0, 0.3, p) for p in grid]
    monotone0 = all(b <= a + 1e-12 for a, b in zip(memoryless, memoryless[1:]))
    report(
        7,
        "witness routes agree within 1e-10; interior minimum then rise for alpha >= 0.8 at q=0.3; monotone at alpha=0",
        agree < 1e-10 and nonmonotone and monotone0,
        f"max route disagreement {agree:.2e}",
    )


def test_criterion_8_volume():
    worst = 0.0
    for alpha, p in itertools.product((0.0, 0.4, 0.8, 1.0), np.linspace(0.0, 1.0, 21)):
        worst = max(worst, abs(volume_determinant(alpha, p) - abs(survival(alpha, p)) ** 3))
    measure_err = max(
        abs(volume_measure(alpha) - 0.75 * alpha) for alpha in [round(0.1 * k, 1) for k in range(11)]
    )
    grid = np.linspace(0.7405, 1.0, 53)
    values = [volume_determinant(0.8, p) for p in grid]
    growing = all(a < b for a, b in zip(values, values[1:]))
    report(
        8,
        "|det M| = |lambda|^3 within 1e-12; volume measure = 3 alpha/4 within 1e-8; regrowth past 0.74 at alpha=0.8",
        worst < 1e-12 and measure_err < 1e-8 and growing,
        f"det err {worst:.2e}, measure err {measure_err:.2e}",
    )


def test_criterion_9_trajectory_divisibility():
    memoryless_ok = bool(trajectory(0.0, np.linspace(0.0, 0.99, 100)).cp_divisible.all())
    window = np.minimum(np.arange(0.80, 1.0001, 0.01), 1.0)
    path = trajectory(0.7, window)
    violated = not path.cp_divisible.any()
    expected = (42 * path.p - 68) / (21 * path.p**2 - 68 * path.p + 40)
    worst = float(np.max(np.abs(path.a - expected)))
    report(
        9,
        "alpha=0 divisible on [0, 0.99]; alpha=0.7 violated on [0.80, 1.00] with A matching the rational form",
        memoryless_ok and violated and worst < 1e-10,
        f"max |A - closed| = {worst:.2e}",
    )


def test_criterion_10_qutrit():
    point3 = crossover_point(0.7, 3)
    location_ok = abs(point3 - 0.8571) <= 1e-3 and point3 > crossover_point(0.7, 2)
    grid = np.linspace(0.0, 1.0, 101)
    norms7 = [f_matrix(0.7, p, 3).trace_norm for p in grid]
    low = int(np.argmin(norms7))
    nonmonotone = 0 < low < len(norms7) - 1 and norms7[-1] > norms7[low] and abs(grid[low] - point3) < 0.02
    norms0 = [f_matrix(0.0, p, 3).trace_norm for p in grid]
    monotone0 = all(b <= a + 1e-13 for a, b in zip(norms0, norms0[1:]))
    numeric = hcla_measure(1.0, levels=3)
    logform = qutrit_hcla_log_form(1.0)
    print(
        f"    qutrit rate measure at alpha=1: quadrature {numeric:.6f} vs plain-log form "
        f"{logform:.6f} (documented divergence {numeric - logform:+.6f})"
    )
    computed = math.isfinite(numeric) and numeric > 0 and math.isfinite(logform)
    report(
        10,
        "qutrit crossover at 0.8571 +- 1e-3 (> qubit); ||F_3||_1 dips then rises at alpha=0.7, monotone at 0; "
        "qutrit rate measure computed with divergence reported",
        location_ok and nonmonotone and monotone0 and computed,
        f"crossover {point3:.6f}",
    )


def test_criterion_11_multiqubit_multilevel():
    grid = np.linspace(0.4, 1.0, 601)
    step = grid[1] - grid[0]

    def threshold(norm_fn):
        for p in grid:
            if norm_fn(p) > 1.0 + 1e-6:
                return p
        return None

    qubit_thresholds = [
        threshold(lambda p, n=n: choi_trace_norm(0.9, 0.4, p, qubits=n)) for n in (1, 2, 3)
    ]
    coincide = max(qubit_thresholds) - min(qubit_thresholds) <= step + 1e-12

    level_thresholds = [
        threshold(lambda p, n=n: choi_trace_norm(0.9, 0.4, p, levels=n)) for n in (2, 3, 4)
    ]
    increasing = all(a < b - step / 2 for a, b in zip(level_thresholds, level_thresholds[1:]))

    ordered = True
    fd_worst = 0.0
    for q in (0.70, 0.75, 0.80, 0.85, 0.90, 0.95):
        g1 = g_function(0.9, q, 1)
        g2 = g_function(0.9, q, 2)
        ordered &= g2 >= g1
        analytic = 1.5 * max(0.0, -decay_rate(0.9, q))
        if analytic == 0.0:
            ordered &= g1 == 0.0
        else:
            fd_worst = max(fd_worst, abs(g1 - analytic) / analytic)
    report(
        11,
        "NCP thresholds coincide across 1-3 qubits, increase across N=2,3,4; g two-qubit >= one-qubit with the "
        "finite difference matching the rate form within 1e-4 relative",
        coincide and increasing and ordered and fd_worst < 1e-4,
        f"thresholds n: {qubit_thresholds}, N: {level_thresholds}, fd rel err {fd_worst:.2e}",
    )


def test_criterion_12_structural_invariants():
    defect = 0.0
    for alpha, p in itertools.product((0.0, 0.5, 1.0), (0.0, 0.3, 0.7, 1.0)):
        for levels in (2, 3, 4):
            defect = max(defect, qudit_kraus(alpha, p, levels).completeness_defect())
        for qubits in (1, 2, 3):
            defect = max(defect, multiqubit_kraus(alpha, p, qubits).completeness_defect())
    complete = defect <= 1e-12

    traces = []
    bell_ok = True
    for alpha, q, p in ((0.0, 0.0, 0.5), (0.7, 0.3, 0.9), (0.9, 0.4, 1.0), (0.7, 0.8, 1.0)):
        chi = intermediate_choi(alpha, q, p)
        traces.append(abs(chi.trace() - 1.0))
        top, rest = qudit_choi_eigenvalues(alpha, q, p, 2)
        expectations = bell_expectations(chi)
        bell_ok &= abs(expectations[0] - top) < 1e-10
        bell_ok &= np.abs(expectations[1:] - rest).max() < 1e-10
    unit_trace = max(traces) < 1e-10

    rng = np.random.default_rng(3)
    exact = True
    for dim in (2, 3, 5):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        exact &= np.array_equal(devectorize(vectorize(m), dim), m)
    for levels in (2, 3):
        u = swap_matrix(levels)
        exact &= np.array_equal(u @ u, np.eye(levels**4))

    report(
        12,
        "Kraus completeness 1e-12; Choi trace 1 within 1e-10; Bell expectations reproduce the spectrum; "
        "vec round trip and swap involution exact",
        complete and unit_trace and bell_ok and exact,
        f"completeness defect {defect:.2e}",
    )
