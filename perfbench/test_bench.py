"""Tests of the benchmark itself: a tiny-size smoke run of every workload,
traced and untraced, and the independent hitting-time reference.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import reference
import run

# The real workloads, shrunk: same subcommands and models, short series and
# chains, one input series (the traced run invokes it twice and so checks
# determinism).
TINY = {
    name: dataclasses.replace(w, days=900, chains=2, tune=80, draws=80, series=1,
                              rho_scales=w.rho_scales[:2])
    for name, w in run.WORKLOADS.items()
}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in run.SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    result = run.bench(TINY[name], seed=3, seconds=0.0, trace=trace, work=tmp_path,
                       setup_repeats=1)
    assert result["problems"] == []
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert sorted(metrics) == sorted(expected)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    if trace:
        # layer self times plus the CLI's own time make up the traced wall time
        parts = ("series.parse_s", "detrend.s", "hitting.s", "models.grad_s",
                 "models.pointwise_s", "nuts.self_s", "diagnostics.s",
                 "pipeline.self_s", "cli.self_s")
        assert sum(metrics[p] for p in parts) == pytest.approx(metrics["trace.wall_s"])
        assert metrics["pipeline.fits"] == len(TINY[name].scales)
    else:
        assert all(v > 0 for v in metrics.values()), metrics


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fit-13y-t", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_hitting_reference_matches_the_definition():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.standard_normal(300))
    rho = 2.5
    got = reference.hitting_reference(x, rho)
    want = {True: [], False: []}
    for t in range(x.size - 1):
        for up in (True, False):
            lead = next((d for d in range(1, x.size - t)
                         if (x[t + d] - x[t] >= rho if up else x[t + d] - x[t] <= -rho)),
                        None)
            if lead is not None:
                want[up].append(lead)
    assert got.tau_plus.tolist() == want[True]
    assert got.tau_minus.tolist() == want[False]
    assert got.n_anchors == x.size - 1
