"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The trend-reproduction experiment (criterion 6) trains ten small
models and dominates the runtime; everything else finishes in seconds.
"""

import functools
import json
import time

import numpy as np
import pytest

import arforecast as af
from arforecast.autodiff import rollout_objective
from arforecast.cli import main
from arforecast.rollout import loss_kink_gap
from composite_ops import absolute, add, scale, stop_gradient, sub

H_STEP = 1e-4
KINK_MARGIN = 10 * H_STEP


def _criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")

        return run

    return wrap


# -- 1. gradient correctness over random configurations ----------------------

@_criterion(1, "gradient correctness vs finite differences")
def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    kinds = ["linear", "mlp", "inverted_attention"]
    ns = [1, 2, 4]
    betas = [0.05, 0.1, 0.3]
    gammas = [0.3, 0.5, 0.9]
    datasets = [
        af.gen_sinusoid(400, V=1, periods=24.0, noise_std=0.3, seed=10),
        af.gen_sinusoid(400, V=2, periods=[24.0, 17.0], noise_std=0.3, seed=11),
    ]

    checked = 0
    seen = {"kinds": set(), "n": set(), "beta": set(), "gamma": set()}
    for trial in range(54):
        kind = kinds[trial % 3]
        n = ns[(trial // 3) % 3]
        beta = betas[int(rng.integers(3))]
        gamma = gammas[int(rng.integers(3))]
        L = int(rng.choice([0, 2]))
        S, T = 8, 2
        ds = datasets[trial % 2]
        V = ds.n_variates
        hidden = 0 if kind == "linear" else int(rng.integers(3, 5))
        dims = af.Dims(S=S, T=T, L=L, V=V, hidden=hidden)
        cfg = af.RolloutConfig(n=n, gamma=gamma, beta=beta)
        windows = af.window_iter(ds, "train", S, cfg.n * T)

        # resample until relu/abs inputs sit clear of their kinks
        for attempt in range(25):
            model = af.init_forecaster(kind, dims, seed=int(rng.integers(1 << 30)))
            window = windows[int(rng.integers(len(windows)))]
            if loss_kink_gap(model, window, cfg) > KINK_MARGIN:
                break
        else:
            pytest.fail("could not sample a kink-safe configuration")

        report = af.check_gradients(model, window, cfg, h=H_STEP)
        assert report.max_rel_error < 1e-5, (
            f"config {trial} ({kind}, n={n}, beta={beta}, gamma={gamma}): "
            f"rel error {report.max_rel_error:.2e}"
        )
        checked += 1
        seen["kinds"].add(kind)
        seen["n"].add(n)
        seen["beta"].add(beta)
        seen["gamma"].add(gamma)

    elapsed = time.time() - t0
    assert checked >= 50
    assert seen["kinds"] == set(kinds) and seen["n"] == set(ns)
    assert seen["beta"] == set(betas) and seen["gamma"] == set(gammas)
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.0f}s"


# -- 2. n=1 equivalence with plain block MSE ---------------------------------

@_criterion(2, "n=1 equivalence with plain MSE")
def test_criterion_2_n1_equivalence():
    ds = af.gen_sinusoid(300, noise_std=0.2, seed=1)
    cfg = af.RolloutConfig(n=1)
    model = af.init_forecaster("mlp", af.Dims(S=12, T=4, hidden=5), seed=6)
    params = list(model.params.values())
    for window in af.window_iter(ds, "train", 12, 4)[:10]:
        with af.Tape() as tape:
            blocks = af.ar_loss(model, window, cfg)
            g_ar = np.concatenate([g.ravel() for g in tape.gradient(blocks.loss, params)])
        with af.Tape() as tape:
            plain = af.mse_loss(model, window)
            g_mse = np.concatenate([g.ravel() for g in tape.gradient(plain, params)])
        assert abs(blocks.loss.item() - plain.item()) <= 1e-12
        assert np.max(np.abs(g_ar - g_mse)) <= 1e-12

    def trajectory(objective):
        m = af.init_forecaster("linear", af.Dims(S=12, T=4), seed=3)
        ck, history = af.train(m, ds, cfg, af.TrainConfig(
            lr=1e-2, batch_size=16, max_epochs=4, seed=3, objective=objective))
        return ck.flat.tobytes(), history

    params_ar, hist_ar = trajectory("ar")
    params_mse, hist_mse = trajectory("mse")
    assert params_ar == params_mse
    assert hist_ar == hist_mse


# -- 3. stop-gradient three-case policy --------------------------------------

@_criterion(3, "stop-gradient coefficient policy")
def test_criterion_3_stop_gradient_policy():
    gamma, beta = 0.5, 0.1
    cases = [
        (0.04, 0.09, gamma * 1.0),           # error grew: full update, 0.5
        (0.07, 0.07, gamma * (1 - beta)),    # equal: subgradient 0, 0.45
        (0.09, 0.04, gamma * (1 - 2 * beta)),  # error shrank: damped, 0.4
    ]
    for prev_val, cur_val, want in cases:
        with af.Tape() as tape:
            prev = af.Tensor(prev_val, requires_grad=True)
            cur = af.Tensor(cur_val, requires_grad=True)
            term = scale(
                add(scale(cur, 1 - beta),
                    scale(absolute(sub(cur, stop_gradient(prev))), beta)),
                gamma,
            )
            (grad,) = tape.gradient(term, [cur])
        assert abs(float(grad) - want) < 1e-6
        # the objective record training runs applies the same coefficient: for 1x1 blocks p_1,
        # p_2 and zero targets, e_k = p_k^2, so d(loss)/d(p_2) is the coefficient times 2 p_2
        with af.Tape() as tape:
            p1 = af.Tensor([[np.sqrt(prev_val)]], requires_grad=True)
            p2 = af.Tensor([[np.sqrt(cur_val)]], requires_grad=True)
            loss, _ = rollout_objective([p1, p2], np.zeros((2, 1)), 1, gamma, beta)
            (grad,) = tape.gradient(loss, [p2])
        assert abs(grad.item() / (2.0 * p2.item()) - want) < 1e-6


# -- 4. gradient norm bound ---------------------------------------------------

@_criterion(4, "triangle-inequality gradient norm bound")
def test_criterion_4_norm_bound():
    rng = np.random.default_rng(77)
    ds = af.gen_sinusoid(420, V=2, periods=[24.0, 31.0], noise_std=0.3, seed=5)
    kinds = [("linear", 0), ("mlp", 4), ("inverted_attention", 3)]
    draws = 0
    while draws < 100:
        kind, hidden = kinds[draws % 3]
        n = int(rng.integers(2, 5))
        gamma = float(rng.choice([0.3, 0.5, 0.9]))
        beta = float(rng.choice([0.05, 0.1, 0.3]))
        cfg = af.RolloutConfig(n=n, gamma=gamma, beta=beta)
        model = af.init_forecaster(kind, af.Dims(S=8, T=3, V=2, hidden=hidden),
                                   seed=int(rng.integers(1 << 30)))
        windows = af.window_iter(ds, "train", 8, cfg.n * 3)
        window = windows[int(rng.integers(len(windows)))]
        with af.Tape() as tape:
            blocks = af.ar_loss(model, window, cfg)
            params = list(model.params.values())
            norm_l = np.linalg.norm(np.concatenate(
                [g.ravel() for g in tape.gradient(blocks.loss, params)]))
            # block k's error alone, as check_gradients takes it: a one-block record
            norms_e = [
                np.linalg.norm(np.concatenate(
                    [g.ravel() for g in tape.gradient(e, params)]))
                for e in (rollout_objective([block], blocks.truth[3 * k:3 * (k + 1)], 2, gamma,
                                            beta)[0] for k, block in enumerate(blocks.blocks))
            ]
        assert norm_l <= sum(gamma ** k * norms_e[k] for k in range(n))
        assert norm_l < max(norms_e) / (1.0 - gamma) + 1e-9
        draws += 1
    assert draws >= 100


# -- 5. discounted magnitude factor -------------------------------------------

@_criterion(5, "discounted loss magnitude factor")
def test_criterion_5_magnitude_factor():
    for gamma in (0.3, 0.5, 0.9):
        for n in (1, 2, 4, 8):
            # n equal 1x1 blocks against zero targets: every block error is e, about 0.37
            blocks = [af.Tensor([[np.sqrt(0.37)]], requires_grad=True) for _ in range(n)]
            with af.Tape():
                loss, errors = rollout_objective(blocks, np.zeros((n, 1)), 1, gamma, 0.0)
            e = errors[0, 0]
            factor = af.loss_magnitude_factor(af.RolloutConfig(n=n, gamma=gamma))
            assert abs(loss.item() / e - factor) <= 1e-12
    # gamma = 0.5 approaches a doubled single-block magnitude as n grows
    f = lambda n: af.loss_magnitude_factor(af.RolloutConfig(n=n))
    assert f(4) == pytest.approx(1.875)
    assert f(10) < f(20) < f(30) < 2.0
    assert abs(f(30) - 2.0) < 1e-8


# -- 6. desk-scale trend reproduction -----------------------------------------

# a three-cycle-long sinusoid: the 48-step context sees a third of a cycle,
# so extrapolation is genuinely hard and rollout errors accumulate instead
# of being smoothed away by prediction feedback
TREND = dict(length=1600, periods=144.0, amplitude=1.0, noise_std=0.1,
             S=48, T=12, n=4, lr=1e-2, batch_size=32, epochs=4,
             seeds=(1, 2, 3, 4, 5))


def _trend_runs():
    p = TREND
    ds = af.gen_sinusoid(p["length"], V=1, periods=p["periods"],
                         amplitude=p["amplitude"], noise_std=p["noise_std"], seed=0)
    roll = af.RolloutConfig(n=p["n"])
    runs = []
    for seed in p["seeds"]:
        out = {"seed": seed}
        for objective in ("ar", "mse"):
            model = af.init_forecaster("linear", af.Dims(S=p["S"], T=p["T"]), seed=seed)
            entry = {}
            if objective == "ar":
                entry["val0"] = np.mean([
                    af.ar_loss(model, w, roll).loss.item()
                    for w in af.window_iter(ds, "val", p["S"], roll.n * p["T"])
                ])
            ck, _ = af.train(model, ds, roll, af.TrainConfig(
                lr=p["lr"], batch_size=p["batch_size"], max_epochs=p["epochs"],
                patience=p["epochs"], seed=seed, objective=objective))
            entry["best_val"] = ck.val_loss
            entry["report"] = af.evaluate(ck.to_forecaster(), ds, "test", roll)
            out[objective] = entry
        runs.append(out)
    return runs


@_criterion(6, "desk-scale rollout trend reproduction")
def test_criterion_6_trend_reproduction():
    t0 = time.time()
    runs = _trend_runs()
    n_seeds = len(runs)

    converged = sum(1 for r in runs if r["ar"]["best_val"] < r["ar"]["val0"])
    assert converged == n_seeds, f"AR training converged in {converged}/{n_seeds} seeds"

    wins = sum(1 for r in runs
               if r["ar"]["report"].cumulative[0] < r["mse"]["report"].cumulative[0])
    assert wins >= 4, f"AR rollout beat MSE rollout in only {wins}/{n_seeds} seeds"

    viol_ok = sum(1 for r in runs
                  if r["ar"]["report"].block_violation_rate
                  <= r["mse"]["report"].block_violation_rate)
    assert viol_ok >= 4, f"AR violation rate no higher in only {viol_ok}/{n_seeds} seeds"

    per_block = np.array([[mse for mse, _ in r["ar"]["report"].per_block] for r in runs])
    med = np.median(per_block, axis=0)
    assert np.all(np.diff(med) >= 0), f"median per-block MSE not non-decreasing: {med}"

    elapsed = time.time() - t0
    assert elapsed < 600.0, f"trend experiment took {elapsed:.0f}s"


# -- 7. long-horizon flexibility ----------------------------------------------

@_criterion(7, "long-horizon rollout from a short-horizon checkpoint")
def test_criterion_7_long_horizon(tmp_path):
    cfg_text = "\n".join([
        "[dataset]", "source = sinusoid", "length = 1200", "variates = 1",
        "periods = 24", "noise_std = 0.1", "seed = 0", "",
        "[model]", "kind = linear", "",
        "[rollout]", "s = 24", "t = 12", "n = 2", "",
        "[train]", "lr = 0.01", "batch_size = 32", "max_epochs = 3",
        "patience = 3", "seed = 1", "objective = ar", "",
        "[output]", f"dir = {tmp_path / 'train'}", "",
    ])
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    assert main(["train", "--config", str(cfg_path)]) == 0
    ck = tmp_path / "train" / "checkpoint.arpt"

    # 168 = 14 blocks of 12: fourteen times the trained block, seven times
    # the n=2 training horizon
    out = tmp_path / "eval168"
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ck),
                 "--horizon", "168", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert len(lines) == 15, "expected header plus 14 curve rows"
    lengths, numbers = [], []
    for line in lines[1:]:
        cells = line.split(",")
        lengths.append(int(cells[0]))
        numbers.extend(float(c) for c in cells[1:])
    assert lengths == [12 * k for k in range(1, 15)]
    assert np.all(np.isfinite(numbers))
    report = json.loads((out / "report.json").read_text())
    assert len(report["per_block"]) == 14
    assert np.isfinite(report["cumulative"]["mse"])

    # the same checkpoint drives a raw 168-step forecast
    rows = "\n".join(f"{x:.6f}" for x in np.sin(np.arange(24) / 3.0))
    inp = tmp_path / "context.csv"
    inp.write_text("y\n" + rows + "\n")
    pred_dir = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "168", "--out", str(pred_dir)]) == 0
    pred_lines = (pred_dir / "predictions.csv").read_text().splitlines()
    assert len(pred_lines) == 169
    assert np.all(np.isfinite([float(x) for x in pred_lines[1:]]))


# -- 8. determinism -------------------------------------------------------------

@_criterion(8, "byte-identical reruns")
def test_criterion_8_determinism(tmp_path):
    def config_for(out_dir):
        text = "\n".join([
            "[dataset]", "source = sinusoid", "length = 400", "variates = 1",
            "periods = 24", "noise_std = 0.1", "seed = 0", "",
            "[model]", "kind = linear", "",
            "[rollout]", "s = 12", "t = 4", "n = 2", "",
            "[train]", "lr = 0.01", "batch_size = 16", "max_epochs = 3",
            "patience = 3", "seed = 9", "objective = ar", "",
            "[output]", f"dir = {out_dir}", "",
        ])
        path = tmp_path / f"{out_dir.name}.ini"
        path.write_text(text)
        return path

    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"run_{tag}"
        cfg = config_for(out_dir)
        assert main(["train", "--config", str(cfg)]) == 0
        eval_dir = tmp_path / f"eval_{tag}"
        assert main(["eval", "--config", str(cfg),
                     "--checkpoint", str(out_dir / "checkpoint.arpt"),
                     "--horizon", "8", "--out", str(eval_dir)]) == 0
        outputs.append({
            "checkpoint": (out_dir / "checkpoint.arpt").read_bytes(),
            "history": (out_dir / "history.csv").read_bytes(),
            "report": (eval_dir / "report.json").read_bytes(),
            "curve": (eval_dir / "curve.csv").read_bytes(),
        })
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], f"{key} differs between reruns"


# -- 9. data layer --------------------------------------------------------------

@_criterion(9, "window arithmetic and generator statistics")
def test_criterion_9_data_layer():
    rng = np.random.default_rng(31337)
    checked = 0
    while checked < 20:
        length = int(rng.integers(30, 600))
        S = int(rng.integers(1, 40))
        horizon = int(rng.integers(1, 50))
        stride = int(rng.integers(1, 6))
        if length < S + horizon:
            continue
        ds = af.SeriesDataset.from_values(
            "t", np.arange(length, dtype=np.float64)[:, None], ratios=(1.0, 0.0, 0.0))
        windows = af.window_iter(ds, "train", S, horizon, stride)
        assert len(windows) == (length - S - horizon) // stride + 1
        checked += 1

    ds = af.gen_ar_process(10000, coeffs=[0.9], noise_std=1.0, seed=11)
    x = ds.values[:, 0]
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1 - 0.9) <= 0.05
