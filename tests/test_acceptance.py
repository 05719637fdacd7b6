"""Acceptance suite: one test per release criterion.

Each test evaluates its criterion end to end, prints a single PASS/FAIL
line (visible even under pytest's output capture), and then asserts.
"""

import dataclasses

import numpy as np

import modquant as mq
from modquant.calibrate import CalibConfig, _params, calibrate, stability_report
from modquant.cli import EXIT_OK, main
from modquant.layer import SplitLayer, build_layer, forward, forward_reference, prepare
from modquant.lowrank import truncated_svd
from modquant.mocd import MocdConfig, build_partition, trivial_partition
from modquant.quantizer import _act_fit, _round_div, _weight_params, quantize_act, quantize_weight
from modquant.synth import SynthConfig, generate, generate_weight
from modquant.tensor import ActivationBatch
from surrogate import gradient_and_oracle

DEFAULT_MOCD = MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)


def _report(capsys, num, name, ok, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def _random_batch(rng, dim, tokens_each):
    data = rng.standard_normal((2 * tokens_each, dim))
    tags = [0] * tokens_each + [1] * tokens_each
    return mq.ActivationBatch(data, tags)


def _small_instance(seed, dim=16, d_out=12):
    batch = generate(
        SynthConfig(
            tokens_text=10, tokens_vision=10, dim=dim,
            vision_outliers=(1,), text_outliers=(5,), seed=seed,
        )
    )
    w = generate_weight(dim, d_out, seed=seed + 77)
    part = build_partition(batch, MocdConfig(ratio_vision=1 / dim, ratio_text=1 / dim))
    return batch, w, part


def test_criterion_1_partition_correctness(capsys):
    rng = np.random.default_rng(0)
    ok = True
    for draw in range(1000):
        dim = int(rng.integers(4, 13))
        batch = _random_batch(rng, dim, int(rng.integers(3, 8)))
        cfg = MocdConfig(
            ratio_vision=float(rng.uniform(0, 0.3)),
            ratio_text=float(rng.uniform(0, 0.3)),
        )
        p = build_partition(batch, cfg)
        merged = sorted(
            p.c_main.tolist() + p.c_text.tolist() + p.c_vision.tolist()
        )
        ok &= merged == list(range(dim))
        ok &= len(p.c_vision) == cfg.k_vision(dim)
        ok &= len(p.c_text) == cfg.k_text(dim)
        if draw % 100 == 0:
            q = build_partition(batch, cfg)
            ok &= p.c_text.tolist() == q.c_text.tolist()
            ok &= p.c_vision.tolist() == q.c_vision.tolist()
        if not ok:
            break
    _report(capsys, 1, "partition correctness", ok)


def test_criterion_2_quantizer_contracts(capsys):
    # Idempotence and the S/2 error bound at the parameters fitted to m; the
    # act codes round(x/S) + z of Q(m) lie in [0, levels], so none clamps.
    rng = np.random.default_rng(1)
    ok = True
    for role, bits in (("weight", 4), ("act", 4), ("weight", 16)):
        m = rng.standard_normal((24, 24))
        if role == "weight":
            scales = _weight_params(m, bits)
            once = quantize_weight(m, bits)
        else:
            scales, zero_points, levels, _ = _act_fit(m, [(m.shape[1], bits)])
            once = quantize_act(m, bits)[0]
            codes = _round_div(once, scales) + zero_points
            ok &= bool(codes.min() >= 0 and codes.max() <= levels[0])
        again = _round_div(once, scales) * scales
        ok &= np.array_equal(once, again)
        err = np.abs(m - once)
        ok &= bool(np.all(err <= np.max(scales) / 2 + 1e-12))
    m = rng.uniform(-1, 1, (32, 32))
    rel16 = np.linalg.norm(m - quantize_weight(m, 16)) / np.linalg.norm(m)
    ok &= rel16 < 1e-3
    for quantize in (quantize_weight, lambda m, b: quantize_act(m, b)[0]):
        mses = [float(np.mean((m - quantize(m, b)) ** 2)) for b in range(2, 9)]
        ok &= all(a >= b - 1e-15 for a, b in zip(mses, mses[1:]))
    _report(capsys, 2, "quantizer contracts", ok)


def test_criterion_3_computational_invariance(capsys):
    # The layer's own forward pass on one path with identity quantizers:
    # (x s)(W / s).
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(30):
        dim = int(rng.integers(2, 65))
        x = rng.standard_normal((8, dim))
        w = rng.standard_normal((dim, 6))
        layer = SplitLayer(trivial_partition(dim), w, rng.uniform(0.1, 10.0, dim), None, None)
        y = forward(layer, ActivationBatch(x, np.zeros(8)))
        ref = x @ w
        worst = max(worst, np.linalg.norm(y - ref) / max(np.linalg.norm(ref), 1e-300))
    _report(capsys, 3, "computational invariance", worst <= 1e-8,
            f"worst rel err {worst:.2e}")


def test_criterion_4_cancellation_oracle(capsys):
    worst = 0.0
    count = 0
    for seed in range(50):
        batch, w, part = _small_instance(seed)
        for nontrivial in (False, True):
            p = part if nontrivial else trivial_partition(16)
            for rank_cws in (0.0, 0.02):
                for rank_mac in (0.0, 0.03):
                    if count >= 50 * 8:
                        break
                    layer = build_layer(
                        w, batch, p, act_bits=None,
                        weight_bits=None,
                        rank_cws=rank_cws, rank_mac=rank_mac,
                    )
                    y = forward(layer, batch)
                    ref = forward_reference(w, batch)
                    worst = max(
                        worst, np.linalg.norm(y - ref) / np.linalg.norm(ref)
                    )
                    count += 1
    _report(capsys, 4, "cancellation oracle", worst <= 1e-8,
            f"worst rel err {worst:.2e}")


def test_criterion_5_mac_locality(capsys):
    ok = True
    for seed in range(100):
        batch, w, part = _small_instance(seed)
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4,
            rank_cws=0.02, rank_mac=0.03,
        )
        off = dataclasses.replace(layer, branch_comp=None)
        v = batch.vision_rows
        ok &= bool(np.array_equal(forward(layer, batch)[v], forward(off, batch)[v]))
        if not ok:
            break
    _report(capsys, 5, "MAC locality", ok)


def test_criterion_6_svd_and_branch(capsys, monkeypatch):
    rng = np.random.default_rng(6)
    ok = True
    w = rng.standard_normal((12, 9))
    errs = []
    for r in range(1, 10):
        u, sigma, vt = truncated_svd(w, r)
        errs.append(np.linalg.norm(w - u @ np.diag(sigma) @ vt))
    ok &= all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    ok &= errs[-1] <= 1e-8 * np.linalg.norm(w)
    # The gate segments of the calibration gradient vs central differences
    # of the loss through the frozen-quantizer surrogate.
    batch, w, part = _small_instance(6)
    layer = build_layer(w, batch, part, act_bits=4, weight_bits=4,
                        rank_cws=0.02, rank_mac=0.03)
    theta0 = _params(layer)
    theta0[part.dim:] = rng.uniform(0.5, 1.5, theta0.size - part.dim)
    grad, fd = gradient_and_oracle(monkeypatch, layer, prepare(layer, batch),
                                   forward_reference(w, batch), theta0)
    gates = slice(part.dim, None)
    rel = np.linalg.norm(grad[gates] - fd[gates]) / max(np.linalg.norm(fd[gates]), 1e-300)
    ok &= rel <= 1e-5
    _report(capsys, 6, "SVD / branch", ok, f"gate grad rel err {rel:.2e}")


def test_criterion_7_planted_outlier_recovery(capsys):
    hits_v = hits_t = 0
    for seed in range(100):
        batch = generate(SynthConfig(seed=seed))
        p = build_partition(batch, DEFAULT_MOCD)
        hits_v += p.c_vision.tolist() == [3, 9]
        hits_t += p.c_text.tolist() == [17, 42]
    ok = hits_v >= 99 and hits_t >= 90
    _report(capsys, 7, "planted-outlier recovery", ok,
            f"C_v {hits_v}/100, C_t {hits_t}/100")


def test_criterion_8_calibration_monotonicity(capsys):
    imps = []
    for seed in range(20):
        batch = generate(SynthConfig(seed=seed))
        w = generate_weight(64, 64, seed=1000 + seed)
        part = build_partition(batch, DEFAULT_MOCD)
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4,
            rank_cws=0.02, rank_mac=0.03,
        )
        _, trace = calibrate(layer, batch, CalibConfig())
        imps.append(1 - trace.best_loss / trace.losses[0])
    imps = np.asarray(imps)
    monotone_frac = float(np.mean(imps >= -1e-12))
    median_imp = float(np.median(imps))
    ok = monotone_frac >= 0.95 and median_imp >= 0.10
    _report(capsys, 8, "calibration monotonicity", ok,
            f"monotone {monotone_frac:.0%}, median improvement {median_imp:.1%}")


def test_criterion_9_ablation_ordering(capsys):
    mses = {"baseline": [], "mocd": [], "mocd+cws": [], "mocd+cws+mac": []}
    for seed in range(20):
        batch = generate(SynthConfig(seed=seed))
        w = generate_weight(64, 64, seed=2000 + seed)
        ref = forward_reference(w, batch)
        part = build_partition(batch, DEFAULT_MOCD)
        grid = [
            ("baseline", trivial_partition(64), 0.0, 0.0),
            ("mocd", part, 0.0, 0.0),
            ("mocd+cws", part, 0.02, 0.0),
            ("mocd+cws+mac", part, 0.02, 0.03),
        ]
        for name, p, rank_cws, rank_mac in grid:
            layer = build_layer(
                w, batch, p, act_bits=3, weight_bits=3,
                rank_cws=rank_cws, rank_mac=rank_mac,
            )
            mses[name].append(float(np.mean((forward(layer, batch) - ref) ** 2)))
    med = {k: float(np.median(v)) for k, v in mses.items()}
    ok = (
        med["baseline"] > med["mocd"] > med["mocd+cws"] > med["mocd+cws+mac"]
    )
    detail = " > ".join(f"{med[k]:.4f}" for k in
                        ("baseline", "mocd", "mocd+cws", "mocd+cws+mac"))
    _report(capsys, 9, "ablation ordering", ok, detail)


def test_criterion_10_selection_stability(capsys):
    means = []
    for seed in range(4):
        batch = generate(SynthConfig(seed=100 + seed))
        rep = stability_report(batch, DEFAULT_MOCD, [32], 128, trials=20, seed=seed)
        means.append(rep[0]["mean_jaccard"])
    mean = float(np.mean(means))
    _report(capsys, 10, "selection stability", mean >= 0.8,
            f"mean jaccard {mean:.3f}")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    """Each command run twice on the same inputs writes the same bytes.

    The domain is the same inputs, the same numpy/BLAS build and the same
    BLAS thread count: another thread count can change the last bits of a
    product or an SVD, and so of the outputs.
    """
    ok = True

    def twice(argv, outputs):
        nonlocal ok
        dirs = [tmp_path / f"{outputs[0]}_{i}" for i in (0, 1)]
        for d in dirs:
            rc = main(argv + ["--out", str(d)])
            ok &= rc == EXIT_OK
        for rel in outputs[1]:
            ok &= (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
        return dirs[0]

    gen_dir = twice(
        ["gen", "--seed", "5"],
        ("gen", ["activations.spqt", "weights.spqt"]),
    )
    acts = str(gen_dir / "activations.spqt")
    weights = str(gen_dir / "weights.spqt")
    twice(
        ["select", "--activations", acts],
        ("select", ["partition.json", "channel_stats.csv"]),
    )
    cal_dir = twice(
        ["calibrate", "--activations", acts, "--weights", weights,
         "--steps", "25"],
        ("calibrate", ["loss_trace.csv", "layer/manifest.json",
                       "layer/w_main.spqt", "layer/p_main_scale.spqt"]),
    )
    for i in (0, 1):
        d = tmp_path / f"eval_{i}"
        rc = main([
            "eval", "--activations", acts,
            "--layer-dir", str(cal_dir / "layer"), "--out", str(d),
        ])
        ok &= rc == EXIT_OK
    ok &= (tmp_path / "eval_0" / "report.csv").read_bytes() == (
        tmp_path / "eval_1" / "report.csv"
    ).read_bytes()
    twice(
        ["stability", "--activations", acts],
        ("stability", ["stability.csv"]),
    )
    _report(capsys, 11, "CLI determinism", ok)
