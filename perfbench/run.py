"""The gainloss benchmark: two CLI workloads on synthetic GBM prices.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). One client in a closed loop: each ``gainloss`` CLI invocation runs
in a fresh child process and the next starts when it has ended, for about
``S`` seconds. A run generates ``Workload.series`` price series from ``--seed``,
each with its own sampler seed, and invokes the CLI on each in turn, so every
run averages over the same number of data sets, then goes round again while
time remains, at least once more. A series invoked again must give identical
results (the determinism check); a traced run invokes each series twice in a
row.

Workloads (why each was chosen):

* ``fit-13y-t``: ``fit --model student-t`` on 3.3k business days (13
  years, the paper's span). Bound by the sampler and the gradients: in a
  traced run (seed 422) Student-t gradients took 68% of the CLI time, the
  sampler's own time 20%, WAIC 6.4%, the pointwise log likelihood 2.3% and
  hitting times 2.1%, so it predicts almost no change from hitting-time work.
* ``scan-rho-100y-ig``: ``scan-rho --model inv-gamma`` on 25k days at the
  barrier scales 0.5 and 2, the ends of the paper's range, with few draws.
  The IG gradient uses sufficient statistics, so it is cheap per call;
  traced (seed 422), IG gradients took 34% of the CLI time, the sampler's
  own time 25%, hitting times 23%, WAIC 13% and the pointwise log
  likelihood 3.0%. It runs no Student-t code, has independent fits for
  scan-point parallelism, and its pointwise log-likelihood arrays (207 MB
  per invocation) set the larger peak RSS. Two scales, not more, so that a
  run holds five or more invocations whose median steadies ``wall_s``.

A third workload, a Student-t fit on 25k days, was dropped: on a shared
2-CPU host whose speed drifts by 20-50% over minutes, three workloads left
too little time per run to keep the run-to-run spread within the bounds.
Its layers are measured here too (Student-t gradients on ``fit-13y-t``,
likelihood memory on ``scan-rho-100y-ig``).

The 13-year workload fits the Student-t model only. With chains short
enough for a run, about one inverse-gamma fit in a hundred on 3.3k days
does not converge (R^ 1.58 at seed 105, series 2, 2 x (300 tune + 200
draws); R^ 1.24 at seed 301, series 4, 2 x (1000 + 300)): one chain gets
stuck while the scale is pressed against its prior floor of 1. A benchmark
workload must not fail, so until the sampler copes with that posterior the
inverse-gamma model is measured on 25k days, where the scale lies well
above the floor and, with the scan's long tune, all of 160 fits in twenty
runs converged (max R^ 1.066).

Inputs are generated here (Gaussian log steps, sigma 0.012, drift 3e-4, as
in the ROADMAP baseline); the program only sees the CSV.

End-to-end metrics, tracing off: ``wall_s`` (time in ``gainloss.cli.main``,
CSV in to reports written) and ``peak_rss_mb`` (the child's own peak RSS),
each the median over all the run's invocations; ``ess_d_per_s``, the ESS(d)
an invocation yields (summed over its fits, averaged over the series) per
second of ``wall_s``; and ``setup_s`` (fresh interpreter until
``import gainloss.cli`` completes, median of several). ``fail_rate`` is
failed fits / attempted fits; it is printed by name and carried by
``attempted`` and ``failed`` in the result line (it is 0 when all is well,
so it cannot be a bounded metric).

With ``--trace 1`` each series gets an untraced and then a traced invocation;
the result holds the per-layer means over the traced ones (see ``child.py``)
and ``trace.overhead_s``, the mean traced minus untraced wall time.

Output checks, each miss a failed fit: the CLI exits 0; every report or
scan row loads and has max R^ < 1.2; the barrier and both sample sizes equal
the independent recomputation in ``reference.py``; ``d_mean`` lies within
``D_TOLERANCE`` standard errors ``d_se`` of the reference ``d`` (both from
``reference.py``, so the program's own ``d_std`` does not widen the check); and
``d_mean`` and ESS(d) are identical in every invocation on the same series.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RHAT_LIMIT = 1.2
# |d_mean - d_reference| allowed, in reference standard errors; observed
# errors stayed below 0.36 in 400 fits (posterior mean vs mode plus Monte
# Carlo error)
D_TOLERANCE = 1.0
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170.0
FILTER_SIZE = 252       # the CLI default, which the workloads use
GBM_SIGMA, GBM_DRIFT = 0.012, 3e-4

# metric names and units: the benchmark's spec is their one home
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    model: str                 # student-t or inv-gamma
    chains: int
    tune: int
    draws: int
    series: int                # input series per run, each from its own seed
    rho_scales: tuple[float, ...] = ()   # empty: ``fit`` at rho = 1 std

    @property
    def scales(self) -> tuple[float, ...]:
        return self.rho_scales or (1.0,)

    def argv(self, csv: Path, out: Path, seed: int) -> list[str]:
        head = (["scan-rho", str(csv), "--rho-scales",
                 ",".join(f"{s:g}" for s in self.rho_scales)]
                if self.rho_scales else ["fit", str(csv)])
        return head + ["--model", self.model, "--chains", str(self.chains),
                       "--tune", str(self.tune), "--draws", str(self.draws),
                       "--seed", str(seed), "--out-dir", str(out)]


# The 13-year fit takes twelve inputs a run, because wall time differs by
# about 15% between inputs, and 2 x 600 draws after a short tune, because
# ESS(d) from 2 x 300 draws varied too much from fit to fit. The scan takes
# four inputs of 2 x (1000 tune + 300 draws). The inverse-gamma posterior at
# scale 2 needs the long tune: after 400 or 600 tune iterations two fits in
# four hundred reached R^ 1.17 to 1.2 (seeds 1004 and 1210, series 4), and
# 1.004 after 1000. Few draws keep five or more invocations in a run.
WORKLOADS = {w.name: w for w in (
    Workload("fit-13y-t", days=3300, model="student-t", chains=2, tune=300,
             draws=600, series=12),
    Workload("scan-rho-100y-ig", days=25000, model="inv-gamma", chains=2,
             tune=1000, draws=300, series=4, rho_scales=(0.5, 2.0)),
)}


# ---------------------------------------------------------------------------
# inputs

def sampler_seed(seed: int, k: int) -> int:
    """The CLI ``--seed`` of the run's ``k``-th series.

    Each series has its own, so that the Monte Carlo error of ESS(d) is
    independent between series and averages out over a run; with one seed
    for all, the chains of every series draw the same momenta and their
    ESS(d) rise and fall together from run to run.
    """
    return seed * 1000 + k


def gbm_closes(days: int, seed: int, k: int) -> np.ndarray:
    """Closing prices of the run's ``k``-th GBM series of ``days`` business days."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, days, k])))
    steps = rng.standard_normal(days - 1) * GBM_SIGMA + GBM_DRIFT
    return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def write_csv(path: Path, closes: np.ndarray) -> None:
    dates = np.busday_offset(np.datetime64("1920-01-01", "D"),
                             np.arange(closes.size), roll="forward")
    # repr round-trips, so the program parses exactly these floats
    lines = ["date,close"] + [f"{d},{c!r}" for d, c in zip(dates, closes.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def expected_fits(w: Workload, closes: np.ndarray) -> tuple[list[dict], list[dict]]:
    """Reference result of every fit the workload makes, plus input properties."""
    x = reference.detrended(np.log(closes), FILTER_SIZE)
    base = float(np.std(x, ddof=1))
    fits, props = [], []
    for scale in w.scales:
        hits = reference.hitting_reference(x, scale * base)
        props.append({"scale": scale, **hits.properties})
        fits.append({"scale": scale, **reference.mode_effect_size(hits, w.model)})
    return fits, props


# ---------------------------------------------------------------------------
# checks

def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def load_results(w: Workload, out: Path) -> list[dict]:
    """One row per fit: model, rho, n_plus, n_minus, d_mean, d_std, ess, max_rhat.

    Raises ValueError when a report is missing or malformed.
    """
    if w.rho_scales:
        files = list(out.glob("scan_rho_*.json"))
        if len(files) != 1:
            raise ValueError(f"expected one scan JSON, found {len(files)}")
        rows = json.loads(files[0].read_text(encoding="utf-8"))
        for row in rows:
            row["error"] = row.get("error") or ""
        return rows
    files = list(out.glob(f"*_{w.model}_report.json"))
    if len(files) != 1:
        raise ValueError(f"expected one {w.model} report, found {len(files)}")
    r = json.loads(files[0].read_text(encoding="utf-8"))
    return [{"model": r["model"], "rho": r["rho"], "n_plus": r["n_plus"],
             "n_minus": r["n_minus"], "d_mean": r["d_mean"], "d_std": r["d_std"],
             "ess": r["ess_d"], "max_rhat": max(r["rhat"].values()), "error": ""}]


def check_fit(row: dict, ref: dict, first: Optional[dict]) -> list[str]:
    """Reasons this fit fails its output checks (empty when it passes)."""
    if row.get("error"):
        return [f"error: {row['error']}"]
    if row.get("model") != ref["model"]:
        return [f"model {row.get('model')!r} != {ref['model']!r}"]
    if not _finite(row.get("rho"), row.get("d_mean"), row.get("d_std"),
                   row.get("ess"), row.get("max_rhat")):
        return ["non-finite or missing report field"]
    bad = []
    if row["max_rhat"] >= RHAT_LIMIT:
        bad.append(f"max R^ {row['max_rhat']:.4f} >= {RHAT_LIMIT}")
    if not math.isclose(row["rho"], ref["rho"], rel_tol=1e-9):
        bad.append(f"rho {row['rho']!r} != reference {ref['rho']!r}")
    if (row["n_plus"], row["n_minus"]) != (ref["n_plus"], ref["n_minus"]):
        bad.append(f"n+/n- {row['n_plus']}/{row['n_minus']} != reference "
                   f"{ref['n_plus']}/{ref['n_minus']}")
    if abs(row["d_mean"] - ref["d"]) > D_TOLERANCE * ref["d_se"]:
        bad.append(f"d_mean {row['d_mean']:.5f} is more than {D_TOLERANCE:g} standard "
                   f"errors ({ref['d_se']:.5f}) from reference {ref['d']:.5f}")
    if first is not None and (row["d_mean"], row["ess"]) != (first["d_mean"], first["ess"]):
        bad.append("not deterministic: d_mean or ESS(d) differs from the run's "
                   "first invocation")
    return bad


# ---------------------------------------------------------------------------
# measurement

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(work: Path, repeats: int) -> float:
    """Median time from starting a fresh interpreter to ``import gainloss.cli`` done.

    The child reads the system-wide monotonic clock right after the import,
    so neither interpreter teardown nor the parent's wait is counted.
    """
    cmd = [sys.executable, "-c", "import gainloss.cli, time; print(time.monotonic())"]
    env = child_env()
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=work, env=env, check=True, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(proc.stdout) - t0)
    return statistics.median(times)


def invoke(w: Workload, csv: Path, out: Path, seed: int, trace: bool) -> dict:
    """Run one CLI invocation in a child process; returns its record."""
    out.mkdir(parents=True)
    record_path = out.parent / f"{out.name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path)]
    cmd += (["--trace"] if trace else []) + ["--"] + w.argv(csv, out, seed)
    try:
        proc = subprocess.run(cmd, cwd=out.parent, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return {"rc": -1, "stderr": f"timed out after {CHILD_TIMEOUT_S:g} s"}
    if proc.returncode != 0 or not record_path.is_file():
        return {"rc": proc.returncode or -1, "stderr": proc.stderr[-2000:]}
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record["stderr"] = proc.stderr[-2000:]
    return record


def environment() -> dict:
    """Recorded with every result; none of it is gated."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to read
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted((SRC / "gainloss").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_gainloss_lines": lines,
    }


@dataclass
class Series:
    """One generated input of a run, with its references and measurements."""

    csv: Path
    seed: int                            # the CLI's sampler seed
    refs: list[dict]
    props: list[dict]
    first: Optional[list[dict]] = None   # fit rows of its first invocation
    walls: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    traced: list = field(default_factory=list)   # (traced, untraced wall, layers)


def run_invocation(w: Workload, ser: Series, out: Path,
                   trace: bool) -> tuple[dict, list[str]]:
    """One checked invocation: its child record and the failed-fit reasons."""
    rec = invoke(w, ser.csv, out, ser.seed, trace)
    rows: list[dict] = []
    bad: list[str] = []
    # exit 3 (not converged) and 4 (failed scan rows) still write every
    # report, and check_fit names the fits at fault
    if rec["rc"] not in (0, 3, 4):
        bad = [f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}"] * len(ser.refs)
    else:
        try:
            rows = load_results(w, out)
            if len(rows) != len(ser.refs):
                raise ValueError(f"{len(rows)} fits reported, expected {len(ser.refs)}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad = [f"reports do not load: {exc}"] * len(ser.refs)
            rows = []
    for k, (row, ref) in enumerate(zip(rows, ser.refs)):
        reasons = check_fit(row, ref, ser.first[k] if ser.first else None)
        bad += [f"fit {k} ({ref['model']}, scale {ref['scale']:g}): "
                + "; ".join(reasons)] if reasons else []
    if rows and ser.first is None:
        ser.first = rows
    shutil.rmtree(out, ignore_errors=True)
    return rec, bad


def bench(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
          setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload for ``seconds``; returns the result and its details.

    The run generates ``w.series`` input series from ``seed`` and invokes the
    CLI on each in turn, at least once each. Traced, each series gets an
    untraced and then a traced invocation, whose results must be identical.
    """
    inputs = []
    for k in range(w.series):
        closes = gbm_closes(w.days, seed, k)
        csv = work / f"prices{k}.csv"
        write_csv(csv, closes)
        inputs.append(Series(csv, sampler_seed(seed, k), *expected_fits(w, closes)))
    setup_s = measure_setup(work, setup_repeats)

    attempted = 0
    problems: list[str] = []
    # untraced: every series once, then at least one repeat (the determinism check)
    minimum = 2 if trace else w.series + 1
    start = time.perf_counter()
    took: list[float] = []
    i = 0
    # start another invocation only while it should end within ``seconds``
    while i < minimum or (time.perf_counter() - start + statistics.median(took)
                          <= seconds):
        with_trace = trace and i % 2 == 1
        ser = inputs[(i // 2 if trace else i) % w.series]
        t0 = time.perf_counter()
        rec, bad = run_invocation(w, ser, work / f"run{i}", with_trace)
        took.append(time.perf_counter() - t0)
        i += 1
        attempted += len(ser.refs)
        problems += [f"invocation {i}: {b}" for b in bad]
        if "wall_s" not in rec:
            continue
        if with_trace and ser.walls:
            ser.traced.append((rec["wall_s"], ser.walls[-1], rec["layers"]))
        elif not with_trace:
            ser.walls.append(rec["wall_s"])
            ser.rss_mb.append(rec["maxrss_kb"] / 1024.0)
    elapsed = time.perf_counter() - start
    failed = len(problems)

    measured = [s for s in inputs if s.walls]
    if trace:
        traced = [t for s in inputs for t in s.traced]
        # means, so that the layer self times still add up to trace.wall_s
        metrics = {k: statistics.fmean(t[2][k] for t in traced)
                   for k in traced[0][2]} if traced else {}
        if traced:
            metrics["trace.overhead_s"] = statistics.fmean(t[0] - t[1] for t in traced)
        units = PER_LAYER_UNITS
    elif len(measured) == w.series:
        # wall time: the median over every invocation, so that a burst of
        # host load does not move the run's figure; ESS(d): the mean over
        # the series of an invocation's summed ESS(d), since the Monte Carlo
        # error of each fit's ESS(d) only averages out over many fits
        wall = statistics.median(x for s in measured for x in s.walls)
        ess = [sum(r["ess"] for r in s.first) for s in measured if s.first]
        metrics = {"wall_s": wall,
                   "ess_d_per_s": statistics.fmean(ess) / wall
                   if len(ess) == w.series else None,
                   "peak_rss_mb": statistics.median(x for s in measured
                                                    for x in s.rss_mb),
                   "setup_s": setup_s}
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, END_TO_END_UNITS
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "units": units,
        "details": {
            "workload": w.name, "seed": seed, "invocations": i,
            "elapsed_s": elapsed, "fail_rate": failed / attempted,
            "series": [{
                "inputs": s.props,
                "reference_d": [r["d"] for r in s.refs],
                "d_error_se": [abs(f["d_mean"] - r["d"]) / r["d_se"]
                               for f, r in zip(s.first, s.refs)] if s.first else None,
                "d_mean": [r["d_mean"] for r in s.first] if s.first else None,
                "d_std": [r["d_std"] for r in s.first] if s.first else None,
                "ess_d": [r["ess"] for r in s.first] if s.first else None,
                "max_rhat": [r["max_rhat"] for r in s.first] if s.first else None,
                "wall_s": s.walls, "peak_rss_mb": s.rss_mb,
                "traced_wall_s": [t[0] for t in s.traced],
            } for s in inputs],
            "environment": environment(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    # on SIGTERM unwind normally, so that the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gainloss" / "cli.py").is_file():
        print(f"error: no gainloss sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    missing = [k for k, v in metrics.items() if v is None]
    if not metrics or missing:
        for line in result["problems"][:20]:
            print(f"# {line}", file=sys.stderr)
        print(f"error: no measurement for {missing or 'any metric'}", file=sys.stderr)
        return 1
    d = result["details"]
    print(f"# workload {d['workload']} seed {d['seed']}: {d['invocations']} "
          f"invocations in {d['elapsed_s']:.1f} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {result['units'][name]}")
    print(f"fail_rate {d['fail_rate']:.6g} failed/attempted fits "
          f"({result['failed']}/{result['attempted']})")
    for line in result["problems"][:20]:
        print(f"# FAIL {line}")
    print(json.dumps({"details": d}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
