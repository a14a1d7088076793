"""Acceptance gate: every release-blocking criterion, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The whole gate takes under a minute; criterion 4's
projected-gradient reference solver dominates.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from test_graph_learner import projected_gradient_reference
from test_graph_ops import laplacian, node_pairs

from tvgmd.cli import main as cli_main
from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import decompose
from tvgmd.graph_learner import learn_graph_batch
from tvgmd.graph_ops import (
    edge_degrees,
    edge_sums,
    geodesic_update,
    n_edges,
    pairwise_distances,
)
from tvgmd.io_formats import write_result
from tvgmd.spectral import wiener_weights
from tvgmd.synth import generate, paper_preset

TARGET_HZ = np.array([2.0, 24.0, 48.0, 128.0])
PARTITION_A = {0, 2, 4, 6, 7}  # carries the 2 Hz tone (nodes 1,3,5,7,8)
PARTITION_B = {1, 3, 5}  # silent at 2 Hz (nodes 2,4,6)
GROUP_24 = {3, 4, 6, 7}  # in-phase 24 Hz carriers (nodes 4,5,7,8)
NODE_2 = 1  # out-of-phase 24 Hz carrier (node 2)

PRESET_CONFIG = DecompositionConfig(
    K=4, alpha=200.0, beta=0.1, gamma=1.0, tau=0.0
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def partition_contrast(weights: np.ndarray) -> float:
    """Pooled internal-edge mean over cross-edge mean for the 2 Hz split."""
    internal, cross = [], []
    for e, (m, n) in enumerate(node_pairs(8)):
        same_a = m in PARTITION_A and n in PARTITION_A
        same_b = m in PARTITION_B and n in PARTITION_B
        (internal if same_a or same_b else cross).append(weights[e])
    return float(np.mean(internal) / max(np.mean(cross), 1e-300))


def out_of_phase_ratio(weights: np.ndarray) -> float:
    """Node 2's total weight into the in-phase group over that group's
    mean internal weight, for the 24 Hz mode."""
    to_group, internal = [], []
    for e, (m, n) in enumerate(node_pairs(8)):
        if (m == NODE_2 and n in GROUP_24) or (n == NODE_2 and m in GROUP_24):
            to_group.append(weights[e])
        elif m in GROUP_24 and n in GROUP_24:
            internal.append(weights[e])
    return float(np.sum(to_group) / np.mean(internal))


@pytest.fixture(scope="module")
def clean_preset_run():
    signal, _ = generate(paper_preset())
    started = time.perf_counter()
    result = decompose(signal, PRESET_CONFIG)
    elapsed = time.perf_counter() - started
    return signal, result, elapsed


def test_criterion_1_frequency_recovery(clean_preset_run):
    _, result, elapsed = clean_preset_run
    freqs = np.array(result.center_frequencies_hz)
    errors = np.abs(freqs - TARGET_HZ)
    ok = bool(np.all(errors <= 0.5) and elapsed < 10.0)
    report(
        1,
        ok,
        f"clean preset frequencies {np.round(freqs, 4).tolist()} Hz "
        f"(max error {errors.max():.4f} Hz, tol 0.5), runtime {elapsed:.2f} s",
    )


def test_criterion_2_connectivity_recovery(clean_preset_run):
    _, result, _ = clean_preset_run
    contrast = partition_contrast(result.modes[0].edge_weights)
    ratio = out_of_phase_ratio(result.modes[1].edge_weights)
    ok = contrast > 3.0 and ratio < 1.0 / 3.0
    report(
        2,
        ok,
        f"2 Hz internal/cross contrast {contrast:.3g} (need > 3); "
        f"24 Hz out-of-phase ratio {ratio:.4f} (need < 1/3)",
    )


@pytest.fixture(scope="module")
def noisy_runs():
    outcomes = []
    for seed in range(10):
        spec = dataclasses.replace(paper_preset(), snr_db=6.0, seed=seed)
        signal, _ = generate(spec)
        result = decompose(signal, PRESET_CONFIG)
        freqs = np.array(result.center_frequencies_hz)
        outcomes.append(
            {
                "freq_ok": bool(np.all(np.abs(freqs - TARGET_HZ) <= 1.0)),
                "contrast": partition_contrast(result.modes[0].edge_weights),
                "converged": result.converged,
                "iterations": result.iterations,
            }
        )
    return outcomes


def test_criterion_3_noise_robustness(noisy_runs):
    freq_hits = sum(run["freq_ok"] for run in noisy_runs)
    contrast_hits = sum(run["contrast"] > 2.0 for run in noisy_runs)
    ok = freq_hits >= 9 and contrast_hits >= 8
    report(
        3,
        ok,
        f"SNR 6 dB, 10 seeds: frequencies within 1 Hz in {freq_hits}/10 "
        f"(need >= 9), 2 Hz contrast > 2 in {contrast_hits}/10 (need >= 8)",
    )


def test_criterion_4_graph_learner_oracle():
    worst_pg = 0.0
    for n in (3, 4):
        rng = np.random.default_rng(1000 + n)
        zs = np.stack([rng.random(n_edges(n)) * 2.0 for _ in range(50)])
        # one lockstep batch per node count; each row is bit-identical to
        # solving it alone
        mine, _, _ = learn_graph_batch(
            zs, 1.0, 1.0, np.zeros_like(zs), max_iter=100_000, eps=1e-10
        )
        for z, w in zip(zs, mine):
            reference = projected_gradient_reference(z, 1.0, 1.0)
            worst_pg = max(worst_pg, float(np.max(np.abs(w - reference))))
    worst_cf = 0.0
    z_vals = np.array([[0.0], [0.4], [1.0], [3.0], [10.0]])
    for beta, gamma in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        w, _, _ = learn_graph_batch(
            z_vals, beta, gamma, np.zeros_like(z_vals),
            max_iter=300_000, eps=1e-13,
        )
        closed = (-beta * z_vals + np.sqrt(beta**2 * z_vals**2 + 4 * gamma)
                  ) / (2 * gamma)
        worst_cf = max(worst_cf, float(np.max(np.abs(w - closed))))
    ok = worst_pg <= 1e-4 and worst_cf <= 1e-8
    report(
        4,
        ok,
        f"learner vs projected gradient: worst coordinate gap {worst_pg:.2e} "
        f"(tol 1e-4, N in {{3,4}}, 50 z each); vs closed form {worst_cf:.2e} "
        f"(tol 1e-8)",
    )


def test_criterion_5_subproblem_optimality_suites():
    rng = np.random.default_rng(55)

    worst_wiener = 0.0
    for _ in range(100):
        t_ext = 2 * int(rng.integers(4, 32))  # keeps F = t_ext/2 + 1 <= 32
        f = t_ext // 2 + 1
        grid = np.arange(f) / t_ext
        x_hat, others, lam = (
            rng.standard_normal(f) + 1j * rng.standard_normal(f)
            for _ in range(3)
        )
        omega_k = float(rng.random() * 0.5)
        alpha = float(10 ** rng.uniform(0, 3))
        numerator = x_hat - others + lam / 2
        out = numerator * wiener_weights(grid, omega_k, alpha)

        for bin_index in range(f):
            c = 2.0 * alpha * (grid[bin_index] - omega_k) ** 2

            def cost(gr, gi):
                g = gr + 1j * gi
                return c * abs(g) ** 2 + abs(numerator[bin_index] - g) ** 2

            curvature = (cost(1, 0) + cost(-1, 0) - 2 * cost(0, 0)) / 2
            best = (
                (cost(-1, 0) - cost(1, 0)) / 4
                + 1j * (cost(0, -1) - cost(0, 1)) / 4
            ) / curvature
            worst_wiener = max(worst_wiener, abs(out[bin_index] - best))

    worst_solve = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        w = rng.random(n_edges(n))
        beta = float(rng.random() * 3)
        f_mat = rng.standard_normal((n, int(rng.integers(4, 16))))
        u = geodesic_update(f_mat[None], w[None], beta)[0]
        residual = np.linalg.norm(
            (np.eye(n) + beta * laplacian(w)) @ u - f_mat
        )
        worst_solve = max(worst_solve, float(residual))

    worst_forms = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = rng.standard_normal((n, int(rng.integers(4, 16))))
        w = rng.random(n_edges(n))
        lhs = float(np.sum(u * (laplacian(w) @ u)))
        rhs = float(w @ pairwise_distances(u))
        worst_forms = max(worst_forms, abs(lhs - rhs))

    worst_adjoint = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        w = rng.standard_normal(n_edges(n))
        d = rng.standard_normal(n)
        degrees = edge_degrees(w[None], n)[0]
        gap = abs(degrees @ d - w @ edge_sums(d[None], n)[0])
        worst_adjoint = max(worst_adjoint, float(gap))

    ok = (
        worst_wiener <= 1e-9
        and worst_solve <= 1e-9
        and worst_forms <= 1e-9
        and worst_adjoint <= 1e-12
    )
    report(
        5,
        ok,
        f"per-bin minimizer gap {worst_wiener:.1e} (tol 1e-9); smoothing "
        f"solve residual {worst_solve:.1e} (tol 1e-9); smoothness two-form "
        f"gap {worst_forms:.1e} (tol 1e-9); degree-operator adjoint gap "
        f"{worst_adjoint:.1e} (tol 1e-12); 100 instances each",
    )


@pytest.fixture(scope="module")
def reconstruction_run():
    fs, t_len = 512.0, 1024
    t = np.arange(t_len) / fs
    row = np.cos(2 * np.pi * 5 * t) + 0.7 * np.cos(2 * np.pi * 40 * t)
    signal = TimeVaryingGraphSignal(
        samples=np.tile(row, (3, 1)), sample_rate_hz=fs
    )
    config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, tau=1.0)
    return signal, decompose(signal, config)


def test_criterion_6_reconstruction_with_duals(reconstruction_run):
    signal, result = reconstruction_run
    rel = float(
        np.linalg.norm(result.residual) / np.linalg.norm(signal.samples)
    )
    ok = result.converged and rel <= 1e-2
    report(
        6,
        ok,
        f"two-tone, tau=1: relative reconstruction error {rel:.2e} "
        f"(tol 1e-2), converged={result.converged}",
    )


def test_criterion_7_convergence_everywhere(
    clean_preset_run, noisy_runs, reconstruction_run
):
    _, clean_result, _ = clean_preset_run
    _, recon_result = reconstruction_run
    runs = (
        [("clean preset", clean_result.converged, clean_result.iterations)]
        + [
            (f"noisy seed {i}", run["converged"], run["iterations"])
            for i, run in enumerate(noisy_runs)
        ]
        + [("two-tone duals", recon_result.converged, recon_result.iterations)]
    )
    bad = [name for name, converged, iters in runs
           if not converged or iters >= 500]
    worst = max(iters for _, _, iters in runs)
    report(
        7,
        not bad,
        f"stopping rule fired on all {len(runs)} acceptance runs before "
        f"500 iterations (worst {worst}); failures: {bad or 'none'}",
    )


def test_property_band_limitation(clean_preset_run):
    # supplementary to the numbered criteria: each recovered mode keeps at
    # least 90% of its spectral energy near its center frequency
    signal, result, _ = clean_preset_run
    t_ext = 2 * signal.n_samples
    halfwidth = max(5, int(0.02 * t_ext))
    for mode in result.modes:
        u = mode.mode_samples
        spectra = np.fft.rfft(np.concatenate([u, u[:, ::-1]], axis=1), axis=1)
        power = (np.abs(spectra) ** 2).sum(axis=0)
        center = int(round(mode.center_freq_hz / signal.sample_rate_hz * t_ext))
        lo = max(0, center - halfwidth)
        fraction = power[lo : center + halfwidth + 1].sum() / power.sum()
        assert fraction >= 0.9, (
            f"mode at {mode.center_freq_hz:.2f} Hz keeps only "
            f"{fraction:.3f} of its energy in band"
        )


def test_criterion_8_determinism(clean_preset_run, tmp_path):
    signal, first, _ = clean_preset_run
    second = decompose(signal, PRESET_CONFIG)
    library_ok = all(
        np.array_equal(a.mode_samples, b.mode_samples)
        and np.array_equal(a.edge_weights, b.edge_weights)
        and a.center_freq_hz == b.center_freq_hz
        for a, b in zip(first.modes, second.modes)
    ) and np.array_equal(first.residual, second.residual)

    def write_run(result, tag):
        out = tmp_path / tag
        write_result(
            out, result, PRESET_CONFIG,
            sample_rate_hz=signal.sample_rate_hz,
            input_sha256="-",
            timing_ms=0.0,
        )
        return {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }

    files_ok = write_run(first, "a") == write_run(second, "b")

    # two CLI runs of the same input must not differ in a single byte
    t = np.arange(256) / 256.0
    rows = [np.cos(2 * np.pi * 8 * t), np.cos(2 * np.pi * 8 * t) + 1.0,
            np.cos(2 * np.pi * 60 * t)]
    src = tmp_path / "in.csv"
    src.write_text(
        "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows) + "\n"
    )
    cli_bundles = []
    for run in ("1", "2"):
        out_dir = tmp_path / f"cli_{run}"
        code = cli_main([
            "decompose", "--input", str(src), "--fs", "256", "--k", "2",
            "--alpha", "200", "--out", str(out_dir),
        ])
        assert code in (0, 3)
        bundle = {}
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            if path.name == "summary.json":
                payload = json.loads(data)
                del payload["timing_ms"]
                data = json.dumps(payload, sort_keys=True).encode()
            bundle[path.name] = data
        cli_bundles.append(bundle)
    cli_ok = cli_bundles[0] == cli_bundles[1]

    ok = library_ok and files_ok and cli_ok
    report(
        8,
        ok,
        f"repeat runs bit-identical: library={library_ok}, "
        f"files={files_ok}, CLI={cli_ok}",
    )
