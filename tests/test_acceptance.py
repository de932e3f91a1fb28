"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and records a
pass/fail line for the terminal summary (see conftest).  The tolerances here
are the contract; loosening one is a behavior change, not a test fix.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from mwgft import (
    WindowFamily,
    build_graph,
    check_nondegeneracy,
    frame_bounds,
    gft,
    igft,
    load_preset,
    mwgft_analyze,
    mwgft_synthesize,
    path_graph,
    random_connected_graph,
    rbf_prototype,
    reconstruct_two_window,
    run_experiment,
    shifted_family,
    spectral_magnitudes,
    sufficient_conditions,
    translate_norms_sq,
    translation_inner_product,
    uniform_shifts,
    wgft,
)
from helpers import (
    NORM,
    UNNORM,
    basis_for,
    load_script,
    random_basis,
    random_complex,
    star_graph,
)
from oracles import rotate_degenerate_eigenspaces, tip_direct


def test_path_impulse_reproduction(record, tmp_path):
    started = time.perf_counter()
    report = run_experiment(load_preset("path-impulse"), out_dir=tmp_path / "out")
    elapsed = time.perf_counter() - started
    ok = (
        report.nondegeneracy_satisfied
        and report.relative_error <= 1e-10
        and elapsed < 5.0
    )
    record(1, ok, f"relative_error={report.relative_error:.2e} elapsed={elapsed:.2f}s")
    assert report.nondegeneracy_satisfied
    assert report.relative_error <= 1e-10
    assert elapsed < 5.0


def test_path_chirp_reproduction(record, tmp_path):
    started = time.perf_counter()
    report = run_experiment(load_preset("path-chirp"), out_dir=tmp_path / "out")
    elapsed = time.perf_counter() - started
    peak = report.spectrogram_argmax_vertex
    ok = report.relative_error <= 1e-10 and 19 <= peak <= 31 and elapsed < 5.0
    record(
        2,
        ok,
        f"relative_error={report.relative_error:.2e} peak_vertex={peak} elapsed={elapsed:.2f}s",
    )
    assert report.relative_error <= 1e-10
    assert 19 <= peak <= 31
    assert elapsed < 5.0


def _road_network_file():
    """Optional real road-network edge list for the large-graph check."""
    env = os.environ.get("MWGFT_ROAD_NETWORK")
    if env:
        return Path(env)
    for candidate in ("data/minnesota.txt", "data/minnesota_edges.txt"):
        path = Path(__file__).resolve().parent.parent / candidate
        if path.is_file():
            return path
    return None


def test_irregular_graph_stability(record, tmp_path):
    started = time.perf_counter()
    report = run_experiment(load_preset("random-irregular"), out_dir=tmp_path / "out")
    elapsed = time.perf_counter() - started
    details = [
        f"min|d|={report.min_abs_denominator:.4g}",
        f"relative_error={report.relative_error:.2e}",
        f"elapsed={elapsed:.2f}s",
    ]
    ok = (
        report.num_vertices == 300
        and report.min_abs_denominator > 0.0
        and report.nondegeneracy_satisfied
        and report.relative_error <= 1e-9
        and elapsed < 60.0
    )
    road_file = _road_network_file()
    if road_file is not None:
        road = load_preset("minnesota-heat")
        road = dataclasses.replace(road, graph=dataclasses.replace(road.graph, file=str(road_file)))
        extra = run_experiment(road, out_dir=tmp_path / "road")
        ok = ok and extra.nondegeneracy_satisfied and extra.relative_error <= 1e-9
        details.append(f"road network: relative_error={extra.relative_error:.2e}")
    else:
        details.append("road-network file not provided, seeded stand-in only")
    record(3, ok, " ".join(details))
    assert report.num_vertices == 300
    assert report.min_abs_denominator > 0.0 and report.nondegeneracy_satisfied
    assert report.relative_error <= 1e-9
    assert elapsed < 60.0
    if road_file is not None:
        assert extra.nondegeneracy_satisfied and extra.relative_error <= 1e-9


def test_analysis_energy_identity_suite(record):
    # total coefficient energy == N * sum_i |f(i)|^2 ||T_i g||^2
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(4000 + case)
        basis = random_basis(4000 + case, kind=UNNORM if case % 2 else NORM, max_size=20)
        g_hat = random_complex(rng, basis.size)
        f = random_complex(rng, basis.size)
        lhs = float(np.sum(np.abs(wgft(basis, g_hat, f)) ** 2))
        rhs = float(basis.size * np.sum(np.abs(f) ** 2 * translate_norms_sq(basis, g_hat)))
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-8
    record(4, ok, f"100 graph/window/signal triples, worst relative deviation {worst:.2e}")
    assert worst <= 1e-8


def test_translation_inner_product_equivalence(record):
    # spectral formula vs actually forming both translates
    cases, violations, worst = 0, 0, 0.0
    for seed in range(25):
        basis = random_basis(5000 + seed)
        rng = np.random.default_rng(5500 + seed)
        for _ in range(8):
            g_hat = random_complex(rng, basis.size)
            gamma_hat = random_complex(rng, basis.size)
            n = int(rng.integers(1, basis.size + 1))
            fast = translation_inner_product(basis, g_hat, gamma_hat, n)
            slow = tip_direct(basis, igft(basis, g_hat), igft(basis, gamma_hat), n)
            deviation = abs(fast - slow) / max(1.0, abs(slow))
            worst = max(worst, deviation)
            violations += int(deviation > 1e-10)
            cases += 1
    ok = cases == 200 and violations == 0
    record(5, ok, f"{cases} cases, worst relative deviation {worst:.2e}")
    assert cases == 200
    assert violations == 0


def test_translate_norm_bounds(record):
    # upper bound ||T_n g|| <= sqrt(N) nu_n ||g|| on both Laplacian kinds;
    # DC lower bound |ghat(0)| <= ||T_n g|| on the unnormalized one
    slack = 1.0 + 1e-12
    upper_violations = 0
    for seed in range(200):
        basis = random_basis(6000 + seed, kind=UNNORM if seed % 2 else NORM)
        rng = np.random.default_rng(6500 + seed)
        g_hat = random_complex(rng, basis.size)
        norms = np.sqrt(translate_norms_sq(basis, g_hat))
        cap = np.sqrt(basis.size) * spectral_magnitudes(basis).by_vertex * np.linalg.norm(g_hat)
        upper_violations += int(np.sum(norms > cap * slack))
    lower_violations = 0
    for seed in range(200):
        basis = random_basis(7000 + seed, kind=UNNORM)
        rng = np.random.default_rng(7500 + seed)
        g_hat = random_complex(rng, basis.size)
        norms = np.sqrt(translate_norms_sq(basis, g_hat))
        lower_violations += int(np.sum(norms * slack < abs(g_hat[0])))
    ok = upper_violations == 0 and lower_violations == 0
    record(
        6,
        ok,
        "200 window/graph cases per bound, "
        f"{upper_violations} upper / {lower_violations} lower violations",
    )
    assert upper_violations == 0
    assert lower_violations == 0


def _condition_suite_family(rng, basis, archetype):
    """Window-pair families biased so every sufficient condition fires somewhere."""
    n = basis.size
    if archetype == 0:  # strictly positive products: sign conditions
        count = int(rng.integers(1, 3))
        analysis = [rng.uniform(0.1, 1.0, n) for _ in range(count)]
        synthesis = [rng.uniform(0.1, 1.0, n) for _ in range(count)]
        return WindowFamily(analysis, synthesis)
    if archetype == 1:  # negated synthesis: flipped sign condition
        g = rng.uniform(0.1, 1.0, n)
        return WindowFamily([g], [-rng.uniform(0.1, 1.0, n)])
    if archetype == 2:  # purely imaginary products, alternating orientation
        g = rng.uniform(0.1, 1.0, n)
        phase = 1j if rng.integers(2) else -1j
        return WindowFamily([g], [phase * rng.uniform(0.1, 1.0, n)])
    if archetype == 3:  # DC-dominant near-identical pair
        g = rng.uniform(0.2, 1.0, n)
        g[0] = 2.0
        p = random_complex(rng, n)
        eps = 0.4 * g[0] / (np.sqrt(n) * spectral_magnitudes(basis).overall * np.linalg.norm(p))
        return WindowFamily([g], [g + eps * p])
    if archetype == 4:  # one strict DC pair plus one borderline (equality) pair
        strict = _condition_suite_family(rng, basis, 3)
        flat = rng.uniform(0.2, 1.0, n)
        flat[0] = 0.0
        return WindowFamily(np.vstack([strict.analysis, flat]), np.vstack([strict.synthesis, flat]))
    count = int(rng.integers(1, 3))  # unconstrained random families
    analysis = [random_complex(rng, n) for _ in range(count)]
    synthesis = [random_complex(rng, n) for _ in range(count)]
    return WindowFamily(analysis, synthesis)


def test_sufficient_condition_implications(record):
    flag_names = ("csuff1", "csuff1a", "csuff1b", "csuff1c", "csuff2", "csuff3", "csuff4", "csufff5")
    fired = dict.fromkeys(flag_names + ("implies_nondegenerate",), 0)
    counterexamples = []
    for case in range(500):
        rng = np.random.default_rng(70000 + case)
        basis = random_basis(70000 + case, kind=UNNORM)
        family = _condition_suite_family(rng, basis, case % 6)
        report = check_nondegeneracy(basis, family)
        flags = report.conditions.as_dict()
        for name, value in flags.items():
            if value:
                fired[name] += 1
                if not report.satisfied:
                    counterexamples.append((case, name))
    coverage = ", ".join(f"{name}:{fired[name]}" for name in flag_names)
    ok = not counterexamples and all(fired[name] > 0 for name in flag_names)
    record(7, ok, f"500 families, {len(counterexamples)} counterexamples, fired {coverage}")
    assert counterexamples == []
    for name in flag_names:
        assert fired[name] > 0, f"{name} never fired; the suite would be vacuous"


def test_frame_sandwich_with_tight_bounds(record):
    sandwich_violations = 0
    worst_attain = 0.0
    for gseed in range(10):
        basis = random_basis(80000 + gseed)
        rng = np.random.default_rng(81000 + gseed)
        g_hat = gft(basis, random_complex(rng, basis.size))
        bounds = frame_bounds(basis, WindowFamily.with_same_synthesis([g_hat]))
        for _ in range(10):
            f = random_complex(rng, basis.size)
            energy = float(np.sum(np.abs(wgft(basis, g_hat, f)) ** 2))
            norm_sq = float(np.linalg.norm(f) ** 2)
            if energy < bounds.lower * norm_sq * (1 - 1e-10):
                sandwich_violations += 1
            if energy > bounds.upper * norm_sq * (1 + 1e-10):
                sandwich_violations += 1
        # impulses at the extremal vertices attain the bounds exactly
        energies = bounds.translate_energies
        for vertex, target in (
            (int(np.argmin(energies)) + 1, bounds.lower),
            (int(np.argmax(energies)) + 1, bounds.upper),
        ):
            delta = np.zeros(basis.size)
            delta[vertex - 1] = 1.0
            attained = float(np.sum(np.abs(wgft(basis, g_hat, delta)) ** 2))
            worst_attain = max(worst_attain, abs(attained - target) / target)
    ok = sandwich_violations == 0 and worst_attain <= 1e-8
    record(
        8,
        ok,
        f"100 signals on 10 graphs, {sandwich_violations} sandwich violations, "
        f"worst attainment deviation {worst_attain:.2e}",
    )
    assert sandwich_violations == 0
    assert worst_attain <= 1e-8


def test_degenerate_eigenspace_robustness(record):
    basis = basis_for(star_graph(8))
    rotated, had_multiplicity = rotate_degenerate_eigenspaces(basis, np.random.default_rng(909))
    family = WindowFamily.with_normalized_synthesis(
        shifted_family(rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis)
    )
    f = random_complex(np.random.default_rng(910), 8)
    errors = []
    coefficient_shift = 0.0
    reference = None
    for b in (basis, rotated):
        coeffs = mwgft_analyze(b, family, f)
        if reference is None:
            reference = coeffs.matrices[0]
        else:
            coefficient_shift = float(np.abs(coeffs.matrices[0] - reference).max())
        rec = mwgft_synthesize(b, family, coeffs)
        errors.append(float(np.linalg.norm(rec - f) / np.linalg.norm(f)))
    ok = had_multiplicity and coefficient_shift > 1e-6 and max(errors) <= 1e-10
    record(
        9,
        ok,
        f"round-trip errors {errors[0]:.2e} / {errors[1]:.2e} across a rotated eigenbasis",
    )
    assert had_multiplicity, "star graph should have a repeated eigenvalue"
    assert coefficient_shift > 1e-6, "rotation should actually change the coefficients"
    assert max(errors) <= 1e-10


def test_two_window_round_trip(record):
    pairs, attempts, worst = 0, 0, 0.0
    while pairs < 50 and attempts < 500:
        attempts += 1
        rng = np.random.default_rng(100000 + attempts)
        basis = random_basis(100000 + attempts, kind=UNNORM, min_size=5, max_size=30)
        n = basis.size
        g_hat = rng.uniform(0.2, 1.0, n)
        g_hat[0] = 2.0
        perturbation = random_complex(rng, n)
        eps = 0.4 * g_hat[0] / (
            np.sqrt(n) * spectral_magnitudes(basis).overall * np.linalg.norm(perturbation)
        )
        gamma_hat = g_hat + eps * perturbation
        family = WindowFamily([g_hat], [gamma_hat])
        if not sufficient_conditions(basis, family).csuff2:
            continue
        pairs += 1
        f = random_complex(rng, n)
        coeffs = wgft(basis, g_hat, f)
        rec = reconstruct_two_window(basis, g_hat, gamma_hat, coeffs)
        worst = max(worst, float(np.linalg.norm(rec - f) / np.linalg.norm(f)))
    ok = pairs == 50 and worst <= 1e-10
    record(10, ok, f"{pairs} certified pairs in {attempts} draws, worst error {worst:.2e}")
    assert pairs == 50
    assert worst <= 1e-10


def _nearest_neighbour_graph(size, neighbors, seed):
    """``size`` seeded points in the unit square, each joined to its
    ``neighbors`` nearest by an edge of weight 1."""
    points = np.random.default_rng(seed).random((size, 2))
    distances = np.linalg.norm(points[:, None] - points[None], axis=2)
    np.fill_diagonal(distances, np.inf)
    nearest = np.argsort(distances, axis=1)[:, :neighbors]
    edges = {(min(i, j) + 1, max(i, j) + 1) for i in range(size) for j in nearest[i]}
    return build_graph(size, [(i, j, 1.0) for i, j in sorted(edges)], points)


def test_multi_window_stability(record):
    # The paper: multi-window families are more stable than one window,
    # particularly on irregular graphs.  Two measures, RBF windows with
    # l_fac 0.7 and uniform shifts.  B/A of the union frame (same-as-analysis
    # pairing) is asserted no larger for J > 1 than for J = 1 except on the
    # random graph with the normalized Laplacian, where it holds weakly or
    # not at all (J = 2 reads 1.124 against 1.123): that row is reported
    # only.  The noise gain x sqrt(JN) (1 is a tight frame's) sits at 1 for
    # the same-as-analysis pairing at any J; the energy-normalized dual of
    # one window, which grows to about 64 where the RBF falls to 0.016, is
    # several times worse, and five windows bring it back to 1.  B/A and the
    # reconstruction do not depend on the eigenbasis, so the nearest-
    # neighbour graph's tied eigenvalues need no care here.
    gains_of = load_script("denominator_sweep").noise_gains
    graphs = {"random": random_connected_graph(300, 7), "path": path_graph(300),
              "nearest-neighbour": _nearest_neighbour_graph(300, 4, 7)}
    counts = (1, 2, 3, 5, 8)
    cases = [("random", UNNORM, True), ("random", NORM, False), ("path", UNNORM, True),
             ("nearest-neighbour", UNNORM, True), ("nearest-neighbour", NORM, True)]
    lines, failures = [], []
    for name, kind, asserted in cases:
        basis = basis_for(graphs[name], kind)
        analysis = {count: shifted_family(rbf_prototype(basis.lambda_max, 0.7),
                                          uniform_shifts(basis.lambda_max, count), basis)
                    for count in counts}
        ratios = []
        for count in counts:
            bounds = frame_bounds(basis, WindowFamily.with_same_synthesis(analysis[count]))
            ratios.append(bounds.upper / bounds.lower)
        line = f"{name} {kind.value}: B/A " + " ".join(f"{r:.3f}" for r in ratios)
        line += "" if asserted else " (not asserted)"
        if asserted and max(ratios[1:]) > ratios[0]:
            failures.append(f"{name} {kind.value} B/A")
        if name != "nearest-neighbour":
            (one_same, one_dual), (five_same, five_dual) = (gains_of(basis, analysis[count])
                                                            for count in (1, 5))
            line += f"; gain {one_same:.3f} {one_dual:.3f} {five_same:.3f} {five_dual:.3f}"
            if not (0.9 <= one_same <= 1.1 and 0.9 <= five_same <= 1.1
                    and one_dual > 2.0 and five_dual <= 1.1):
                failures.append(f"{name} {kind.value} gain")
        lines.append(line)
    header = ("B/A at J = " + ", ".join(map(str, counts)) + "; noise gain x sqrt(JN) at "
              "J = 1 same, J = 1 normalized, J = 5 same, J = 5 normalized")
    record(11, not failures, "\n    ".join([header, *lines]))
    assert failures == []
