"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -v -s`` to
see them). The default experiment configuration is used wherever a criterion
refers to the default sweep.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shiftcp.cli import (
    ExperimentConfig,
    _cell_stream,
    _target_split,
    main,
    make_trial_data,
    run_sweep,
    run_tau_experiment,
    train_model,
)
from shiftcp.conformal import FULL_SET, calibrate, conformal_level, coverage, empirical_quantile, expected_set_size
from shiftcp.pseudo import UncertaintyGrid, pseudo_calibrate
from shiftcp.rng import RngStream
from shiftcp.scores import (
    lipschitz_bound,
    population_hinge_loss,
    population_ramp_loss,
    predict,
    score,
    scored_view,
)
from shiftcp.shift_bounds import relaxed_coverage_lower_bound, tau_correction, w1_1d, w1_assignment
from shiftcp.synthetic import apply_shift, generate_source


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def default_cfg() -> ExperimentConfig:
    return ExperimentConfig.from_dict({})


@pytest.fixture(scope="module")
def default_model(default_cfg):
    return train_model(default_cfg)


@pytest.fixture(scope="module")
def default_sweep(default_cfg):
    records, aggregates = run_sweep(default_cfg, threads=4)
    return records, aggregates


def test_c01_exchangeable_validity(default_cfg, default_model):
    """No-shift source calibration: mean coverage in [0.800, 0.810] +/- 3 SE."""
    alpha, n_cal, trials = 0.2, 100, 2000
    covs = np.empty(trials)
    for t in range(trials):
        cell = RngStream(default_cfg.seed).substream("acceptance-exch", t)
        xc, yc = generate_source(default_cfg.source_spec, n_cal, cell.substream("cal"))
        xt, yt = generate_source(default_cfg.source_spec, 300, cell.substream("test"))
        cal = calibrate(score(default_model, xc, yc), alpha)
        covs[t] = coverage(default_model, xt, yt, cal)
    mean = float(covs.mean())
    se = float(covs.std(ddof=1) / math.sqrt(trials))
    lo, hi = 1 - alpha - 3 * se, 1 - alpha + 1 / (n_cal + 1) + 3 * se
    ok = lo <= mean <= hi
    _report(1, "exchangeable-validity", ok, f"mean={mean:.4f} band=[{lo:.4f},{hi:.4f}] trials={trials}")
    assert ok


def test_c02_quantile_oracle():
    """Quantile matches the brute-force inf-over-CDF scan on all small multisets."""
    mismatches = 0
    checked = 0
    alphas = [round(0.1 * i, 1) for i in range(1, 10)]
    for size in range(1, 6):
        for values in itertools.combinations_with_replacement(range(1, 6), size):
            scores = np.array(values, dtype=float)
            for alpha in alphas:
                level = conformal_level(size, alpha)
                got = empirical_quantile(scores, level)
                if level > 1:
                    expected = FULL_SET
                else:
                    frac = Fraction(level)
                    expected = min(
                        t for t in sorted(values) if Fraction(sum(v <= t for v in values), size) >= frac
                    )
                checked += 1
                mismatches += got != expected
    ok = mismatches == 0 and checked == 9 * (5 + 15 + 35 + 70 + 126)
    _report(2, "quantile-oracle", ok, f"checked={checked} mismatches={mismatches}")
    assert ok


def test_c03_stochastic_dominance(default_cfg, default_model):
    """Hard pseudo-score CDF dominates the true-label score CDF everywhere."""
    violations = 0
    points = 0
    n = 5000
    for t in range(100):
        sigma = default_cfg.sigma_grid[t % len(default_cfg.sigma_grid)]
        cell = RngStream(default_cfg.seed).substream("acceptance-dom", t)
        xb, yb = generate_source(default_cfg.source_spec, n, cell.substream("base"))
        xs = apply_shift(xb, yb, default_cfg.shift_spec.scaled(sigma), cell.substream("shift"))
        s_true = np.sort(score(default_model, xs, yb))
        s_pseudo = np.sort(score(default_model, xs, predict(default_model, xs)))
        pts = np.concatenate([s_true, s_pseudo])
        f_pseudo = np.searchsorted(s_pseudo, pts, side="right") / n
        f_true = np.searchsorted(s_true, pts, side="right") / n
        violations += int((f_pseudo < f_true - 1e-12).sum())
        points += pts.size
    ok = violations == 0 and points >= 1_000_000
    _report(3, "stochastic-dominance", ok, f"points={points} violations={violations}")
    assert ok


def test_c04_randomization_monotonicity(default_cfg, default_model):
    """Coupled thresholds and coverage are monotone versus hard pseudo-labels."""
    grid = UncertaintyGrid.default(default_cfg.source_spec.n_classes)  # 33 cutoffs
    pairs = 0
    threshold_failures = 0
    coverage_failures = 0
    n_cal, n_test = 400, 400
    for t in range(320):
        sigma = default_cfg.sigma_grid[t % len(default_cfg.sigma_grid)]
        shift = default_cfg.shift_spec.scaled(sigma)
        cell = RngStream(default_cfg.seed).substream("acceptance-mono", t)
        xb, yb = generate_source(default_cfg.source_spec, n_cal, cell.substream("cal-base"))
        xt, yt = generate_source(default_cfg.source_spec, n_test, cell.substream("test-base"))
        # Each split is scored once for its 34 calibrations or coverages.
        x_cal = scored_view(default_model, apply_shift(xb, yb, shift, cell.substream("cal-shift")))
        x_test = scored_view(default_model, apply_shift(xt, yt, shift, cell.substream("test-shift")))

        hard = pseudo_calibrate(default_model, x_cal, default_cfg.alpha)
        hard_cov = coverage(default_model, x_test, yt, hard)
        labels_stream = cell.substream("labels")
        for u in grid.values:
            cal = pseudo_calibrate(default_model, x_cal, default_cfg.alpha, u=float(u), rng=labels_stream)
            pairs += 1
            threshold_failures += cal.threshold < hard.threshold
            coverage_failures += coverage(default_model, x_test, yt, cal) < hard_cov
    ok = pairs >= 10_000 and threshold_failures == 0 and coverage_failures == 0
    _report(
        4,
        "randomization-monotonicity",
        ok,
        f"pairs={pairs} threshold_failures={threshold_failures} coverage_failures={coverage_failures}",
    )
    assert ok


def test_c05_pseudo_coverage_bound(default_cfg, default_sweep):
    """Hard pseudo-calibration coverage dominates its certified lower bound."""
    _, aggregates = default_sweep
    rows = [r for r in aggregates if r["method"] == "hard_pseudo"]
    ok = len(rows) == len(default_cfg.sigma_grid)
    details = []
    for row in rows:
        slack = 3 * row["se_coverage"]
        ok &= row["mean_coverage"] >= row["mean_thm2_bound"] - slack
        details.append(f"s={row['sigma']}: {row['mean_coverage']:.3f}>={row['mean_thm2_bound']:.3f}")
    for row in rows[:3]:  # three smallest shift strengths
        ok &= row["mean_thm2_bound"] > 0.0
    _report(5, "pseudo-coverage-bound", ok, "; ".join(details))
    assert ok


def test_c06_relaxed_coverage_bound(default_cfg, default_model):
    """Tau-relaxed coverage dominates the hinge bound for tau in {0, .5, 1, 2, 4}."""
    taus = (0.0, 0.5, 1.0, 2.0, 4.0)
    ok = True
    details = []
    for si, sigma in enumerate(default_cfg.sigma_grid):
        covs = {tau: [] for tau in taus}
        bounds = {tau: [] for tau in taus}
        for t in range(default_cfg.trials):
            # The two target splits of the cell, from its own streams; its source split is not used.
            cell = _cell_stream(default_cfg, si, t)
            x_cal, _ = _target_split(default_cfg, cell, si, "target-cal", default_cfg.n_cal)
            x_test, y_test = _target_split(default_cfg, cell, si, "target-test", default_cfg.n_test)
            cal = pseudo_calibrate(default_model, x_cal, default_cfg.alpha)
            test = scored_view(default_model, x_test)  # scored once for all seven uses
            ramp_tgt = population_ramp_loss(default_model, test, y_test)
            hinge_tgt = population_hinge_loss(default_model, test, y_test)
            for tau in taus:
                covs[tau].append(coverage(default_model, test, y_test, cal, tau))
                bounds[tau].append(relaxed_coverage_lower_bound(default_cfg.alpha, ramp_tgt, hinge_tgt, tau))
        bound_means = []
        for tau in taus:
            c = np.asarray(covs[tau])
            b = np.asarray(bounds[tau])
            se = c.std(ddof=1) / math.sqrt(c.size)
            ok &= float(c.mean()) >= float(b.mean()) - 3 * se
            bound_means.append(float(b.mean()))
        # Bound values non-decreasing in tau, exactly, trial by trial.
        per_trial = np.column_stack([bounds[tau] for tau in taus])
        ok &= bool((np.diff(per_trial, axis=1) >= 0.0).all())
        details.append(f"s={sigma}: cov(tau=0)={np.mean(covs[0.0]):.3f} bound(tau=0)={bound_means[0]:.3f}")
    _report(6, "relaxed-coverage-bound", ok, "; ".join(details))
    assert ok


def test_c07_score_shift_w1_bound(default_cfg, default_model):
    """Measured score W1 obeys the Lipschitz bound; per-class transport obeys the certificate."""
    lip = lipschitz_bound(default_model)
    n = 4000
    boot = 200
    ok = True
    details = []
    for si, sigma in enumerate(default_cfg.sigma_grid):
        shift = default_cfg.shift_spec.scaled(sigma)
        cell = RngStream(default_cfg.seed).substream("acceptance-w1", si)
        xb, yb = generate_source(default_cfg.source_spec, n, cell.substream("base"))
        xs = apply_shift(xb, yb, shift, cell.substream("shift"))
        s_src = score(default_model, xb, yb)
        s_tgt = score(default_model, xs, yb)
        w1 = w1_1d(s_src, s_tgt)

        g = cell.substream("boot").generator()
        boots = np.empty(boot)
        for b in range(boot):
            boots[b] = w1_1d(s_src[g.integers(0, n, n)], s_tgt[g.integers(0, n, n)])
        slack = 3 * float(boots.std(ddof=1))
        ok &= w1 <= lip * shift.rho_true + slack

        for c in range(1, default_cfg.source_spec.n_classes + 1):
            idx = np.nonzero(yb == c)[0][:400]
            if idx.size < 2:
                continue
            ok &= w1_assignment(xb[idx], xs[idx]) <= shift.rho_true + 1e-12
        details.append(f"s={sigma}: W1={w1:.3f}<= {lip * shift.rho_true:.3f}+{slack:.3f}")
    _report(7, "score-shift-w1-bound", ok, "; ".join(details))
    assert ok


def test_c08_transport_exactness():
    """Assignment W1 equals exhaustive matching (n <= 6) and the 1-D closed form."""
    g = RngStream(2024).generator()
    worst_perm = 0.0
    worst_1d = 0.0
    for _ in range(1000):
        n = int(g.integers(2, 7))
        d = int(g.integers(1, 4))
        a = g.normal(size=(n, d))
        b = g.normal(size=(n, d))
        got = w1_assignment(a, b)
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        perms = np.array(list(itertools.permutations(range(n))))
        best = float(cost[np.arange(n)[None, :], perms].sum(axis=1).min() / n)
        worst_perm = max(worst_perm, abs(got - best))
        if d == 1:
            worst_1d = max(worst_1d, abs(got - w1_1d(a[:, 0], b[:, 0])))
    for _ in range(50):
        n = int(g.integers(2, 40))
        a = g.normal(size=(n, 1))
        b = g.normal(size=(n, 1))
        worst_1d = max(worst_1d, abs(w1_assignment(a, b) - w1_1d(a[:, 0], b[:, 0])))
    ok = worst_perm <= 1e-9 and worst_1d <= 1e-9
    _report(8, "transport-exactness", ok, f"max|assign-exhaustive|={worst_perm:.2e} max|assign-1d|={worst_1d:.2e}")
    assert ok


def test_c09_tau_design_rule(default_cfg):
    """Exact slack-rule arithmetic plus per-trial dominance of the adjusted sets."""
    exact = tau_correction(0.5, 0.4, 0.1) == 0.0 and tau_correction(0.5, 0.8, 0.1) == pytest.approx(2.0)
    # The slack experiment needs a source hinge loss well above the gap
    # estimator's noise floor, so it runs a mushier classifier than the sweep.
    cfg = ExperimentConfig.from_dict(
        {
            **default_cfg.resolved(),
            "trials": 30,
            "source": {**default_cfg.resolved()["source"], "class_cov_scale": 0.95},
            "train": {"epochs": 60, "learning_rate": 0.1},
        }
    )
    records, _ = run_tau_experiment(cfg, threads=2)
    hard = {(r.sigma, r.trial): r for r in records if r.method == "hard_pseudo"}
    adjusted = {(r.sigma, r.trial): r for r in records if r.method == "tau_adjusted"}
    cov_ok = all(adjusted[k].coverage >= hard[k].coverage for k in hard)
    ess_ok = all(adjusted[k].ess >= hard[k].ess for k in hard)
    ok = exact and cov_ok and ess_ok and len(hard) == len(cfg.sigma_grid) * cfg.trials
    _report(9, "tau-design-rule", ok, f"exact={exact} trials={len(hard)} cov_ok={cov_ok} ess_ok={ess_ok}")
    assert ok


def test_c10_qualitative_trends(default_cfg, default_sweep):
    """Coverage trends of the four strategies across the default sweep."""
    _, aggregates = default_sweep
    by_method = {}
    for row in aggregates:
        by_method.setdefault(row["method"], []).append(row)

    def inversions(rows):
        count = 0
        for a, b in zip(rows, rows[1:]):
            se_diff = math.hypot(a["se_coverage"], b["se_coverage"])
            if b["mean_coverage"] > a["mean_coverage"] + 2 * se_diff:
                count += 1
        return count

    inv_source = inversions(by_method["source"])
    inv_hard = inversions(by_method["hard_pseudo"])
    ok = inv_source <= 1 and inv_hard <= 1
    ok &= all(r["trials"] >= 200 for rows in by_method.values() for r in rows)

    tuned = {r["sigma"]: r["mean_coverage"] for r in by_method["source_tuned"]}
    hard = {r["sigma"]: r["mean_coverage"] for r in by_method["hard_pseudo"]}
    ok &= all(tuned[s] >= hard[s] for s in tuned)

    oracle_flat = all(
        abs(r["mean_coverage"] - (1 - default_cfg.alpha)) <= 3 * r["se_coverage"] + 1 / (default_cfg.n_cal + 1)
        for r in by_method["oracle"]
    )
    ok &= oracle_flat
    _report(
        10,
        "qualitative-trends",
        ok,
        f"inversions(source)={inv_source} inversions(hard)={inv_hard} tuned>=hard={all(tuned[s] >= hard[s] for s in tuned)} oracle_flat={oracle_flat}",
    )
    assert ok


def test_c11_score_relation_invariants(default_cfg, default_model):
    """Pointwise pseudo/true score relations hold on every synthetic trial."""
    violations = 0
    points = 0
    for si in range(len(default_cfg.sigma_grid)):
        for t in range(40):
            data = make_trial_data(default_cfg, si, t)
            s_true = score(default_model, data.x_target_test, data.y_target_test)
            s_pseudo = score(default_model, data.x_target_test, predict(default_model, data.x_target_test))
            correct = predict(default_model, data.x_target_test) == data.y_target_test
            violations += int((s_true < s_pseudo - 1e-12).sum())
            violations += int((np.abs(s_true[correct] - s_pseudo[correct]) > 1e-12).sum())
            wrong = ~correct
            violations += int((s_true[wrong] - s_pseudo[wrong] > 2 * s_true[wrong] + 1e-9).sum())
            points += s_true.size
    ok = violations == 0
    _report(11, "score-relation-invariants", ok, f"points={points} violations={violations}")
    assert ok


def test_c12_thread_determinism(default_cfg, tmp_path):
    """Identical records bytes regardless of the worker thread count."""
    cfg_path = tmp_path / "config.json"
    small = {**default_cfg.resolved(), "trials": 10, "n_train": 1000, "n_cal": 400, "n_test": 600}
    cfg_path.write_text(json.dumps(small))
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2), "--threads", "4"]) == 0
    b1 = (out1 / "records.csv").read_bytes()
    b2 = (out2 / "records.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(12, "thread-determinism", ok, f"bytes={len(b1)} identical={b1 == b2}")
    assert ok


def test_c13_source_tuned_beats_hard_pseudo_on_overlap():
    """Overlapping classes (configs/overlap.json): source tuning lifts coverage and keeps sets nontrivial."""
    raw = json.loads((Path(__file__).parents[1] / "configs" / "overlap.json").read_text())
    cfg = ExperimentConfig.from_dict({**raw, "trials": 20, "methods": ["hard_pseudo", "source_tuned"]})
    records, _ = run_sweep(cfg, threads=2)
    by_method = {m: {(r.sigma, r.trial): r for r in records if r.method == m} for m in cfg.methods}
    hard, tuned = by_method["hard_pseudo"], by_method["source_tuned"]
    k = cfg.source_spec.n_classes
    ok, details = True, []
    for sigma in (s for s in cfg.sigma_grid if s >= 0.8):
        cells = [(sigma, t) for t in range(cfg.trials)]
        diff = np.array([tuned[c].coverage - hard[c].coverage for c in cells])
        se = float(diff.std(ddof=1) / math.sqrt(diff.size))
        ess = float(np.mean([tuned[c].ess for c in cells]))
        ok &= diff.mean() >= 3 * se and ess < k
        details.append(f"sigma={sigma} gain={diff.mean():.3f} se={se:.4f} ess={ess:.2f}")
    _report(13, "source-tuned-on-overlap", ok, "; ".join(details))
    assert ok
