"""Shared fixtures and stub sampler targets used across the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import gainloss
from gainloss.pipeline import synthetic_gbm_series
from gainloss.series import write_price_csv

# one line per acceptance criterion, echoed into the terminal summary
_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


def source_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(gainloss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class GaussianTarget:
    """Independent zero-mean Gaussian with fixed per-coordinate variances."""

    def __init__(self, variances):
        self.var = np.asarray(variances, dtype=np.float64)
        self.dim = self.var.size

    def value_and_grad(self, z):
        z = np.asarray(z)
        grad = -z / self.var
        return 0.5 * float(z @ grad), grad.tolist()


class CorrelatedGaussianTarget:
    """Zero-mean Gaussian with a dense covariance matrix."""

    def __init__(self, cov):
        self.cov = np.asarray(cov, dtype=np.float64)
        self.prec = np.linalg.inv(self.cov)
        self.dim = self.cov.shape[0]

    def value_and_grad(self, z):
        z = np.asarray(z)
        grad = -self.prec @ z
        return 0.5 * float(z @ grad), grad.tolist()


class StallingTarget:
    """Pathological stub: every call after the first reports a worse density.

    The first evaluation is finite so chain initialization succeeds, after
    which every proposal looks catastrophically bad and acceptance pins at
    zero.  Exercises the adaptation-failure contract deterministically.
    """

    dim = 2

    def __init__(self):
        self.calls = 0

    def value_and_grad(self, z):
        self.calls += 1
        if self.calls == 1:
            return 0.0, [0.0] * self.dim
        return -1e9 * self.calls, [0.0] * self.dim


@pytest.fixture
def price_csv_factory(tmp_path):
    """Factory writing a synthetic GBM price CSV; returns the file path."""

    def make(n_days=400, sigma=0.01, lam=0.0, seed=0, name="synth", start="2015-01-02"):
        series = synthetic_gbm_series(
            n_days, sigma, lam=lam, seed=seed, start=start, name=name
        )
        path = tmp_path / f"{name}.csv"
        write_price_csv(series, path)
        return path

    return make
