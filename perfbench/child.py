"""Run one ``gainloss`` CLI invocation in this fresh process and record its cost.

    python3 child.py RESULT_JSON [--trace] -- CLI_ARGS...

Writes ``{"rc", "wall_s", "maxrss_kb", "layers"}`` to RESULT_JSON. ``wall_s``
covers ``gainloss.cli.main`` only (CSV in, reports written); interpreter
start and the package import are the benchmark's separate ``setup_s``.
Peak RSS is this process's own ``RUSAGE_SELF`` at exit, so one invocation's
peak never leaks into the next.

With ``--trace`` the public functions of each module are wrapped from
outside before ``main`` runs; ``layers`` then holds the per-layer metrics.
The hot leaf calls (``Posterior.value_and_grad`` and
``Posterior.pointwise_loglik``) are only counted and timed into their
parent span, which keeps the tracing cheap.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Spanned functions: (module, name) -> layer. Every module attribute bound
# to the same function object is replaced, so calls through names imported
# into other modules (``from .hitting import hitting_times``) are seen too.
SPANS = {
    ("gainloss.series", "parse_csv"): "series",
    ("gainloss.detrend", "detrend"): "detrend",
    ("gainloss.hitting", "hitting_times"): "hitting",
    ("gainloss.nuts", "run_chains"): "nuts",
    ("gainloss.diagnostics", "effect_size_draws"): "diagnostics",
    ("gainloss.diagnostics", "build_report"): "diagnostics",
    ("gainloss.diagnostics", "waic"): "waic",
    ("gainloss.pipeline", "prepare_sample"): "pipeline",
    ("gainloss.pipeline", "fit_log_sample"): "pipeline",
    ("gainloss.pipeline", "scan_rho"): "pipeline",
}


class _Frame:
    __slots__ = ("child_s", "grad_calls")

    def __init__(self):
        self.child_s = 0.0    # time in nested spans and leaf calls
        self.grad_calls = 0   # value_and_grad calls directly inside


class Tracer:
    """In-memory spans per layer; self time = duration minus nested time."""

    def __init__(self):
        self.root = _Frame()
        self.stack = [self.root]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.hit = defaultdict(int)
        self.nuts = defaultdict(float)
        self.loglik_bytes = 0

    def span(self, layer, fn, name):
        def wrapper(*args, **kwargs):
            frame = _Frame()
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.stack.pop()
                self.stack[-1].child_s += dur
                self.calls[name] += 1
                self.self_s[layer] += dur - frame.child_s
                self.total_s[layer] += dur
                self.max_s[name] = max(self.max_s[name], dur)
            self._observe(name, frame, args, result)
            return result
        return wrapper

    def leaf(self, key, fn):
        def wrapper(target, *args):
            t0 = perf_counter()
            result = fn(target, *args)
            dt = perf_counter() - t0
            frame = self.stack[-1]
            frame.child_s += dt
            if key == "grad":
                frame.grad_calls += 1
                kind = str(getattr(getattr(target, "spec", None), "kind", "other"))
                tag = f"grad.{kind.replace('-', '_')}"
            else:
                tag = key
            self.leaf_calls[tag] += 1
            self.leaf_s[tag] += dt
            return result
        return wrapper

    def _observe(self, name, frame, args, result):
        """Counts read off the values a span returned or was given."""
        if name == "hitting_times":
            h = self.hit
            h["tau"] += result.tau_plus.size + result.tau_minus.size
            h["distinct"] += np.unique(result.tau_plus).size \
                + np.unique(result.tau_minus).size
            h["anchors"] += result.n_anchors
            h["censored_plus"] += result.censored_plus
            h["censored_minus"] += result.censored_minus
        elif name == "run_chains":
            cfg = result.config
            n = self.nuts
            n["grads"] += frame.grad_calls
            n["iters"] += cfg.n_chains * (cfg.n_tune + cfg.n_draw)
            n["depth_sum"] += float(result.tree_depth.sum())
            n["draws"] += result.tree_depth.size
            n["divergences"] += int(result.divergent.sum())
        elif name == "build_report":
            ll = getattr(args[0], "pointwise_loglik", None)
            if ll is not None:
                self.loglik_bytes += ll.nbytes

    def install(self):
        """Wrap the traced functions in every loaded ``gainloss`` module."""
        modules = [m for k, m in sys.modules.items()
                   if k == "gainloss" or k.startswith("gainloss.")]
        for (mod_name, name), layer in SPANS.items():
            orig = getattr(sys.modules[mod_name], name)
            wrapped = self.span(layer, orig, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
        posterior = sys.modules["gainloss.models"].Posterior
        posterior.value_and_grad = self.leaf("grad", posterior.value_and_grad)
        posterior.pointwise_loglik = self.leaf("pointwise", posterior.pointwise_loglik)

    def metrics(self, wall_s: float) -> dict:
        def per_call_us(tag):
            calls = self.leaf_calls[tag]
            return 1e6 * self.leaf_s[tag] / calls if calls else 0.0

        h, n = self.hit, self.nuts
        grad_tags = ("grad.student_t", "grad.inv_gamma", "grad.other")
        grad_s = sum(self.leaf_s[t] for t in grad_tags)
        anchors = h["anchors"] or 1
        return {
            "series.parse_s": self.self_s["series"],
            "detrend.s": self.self_s["detrend"],
            "detrend.calls": self.calls["detrend"],
            "hitting.s": self.self_s["hitting"],
            "hitting.calls": self.calls["hitting_times"],
            "hitting.tau_count": h["tau"],
            "hitting.distinct_share": h["distinct"] / h["tau"] if h["tau"] else 0.0,
            "hitting.censored_share_plus": h["censored_plus"] / anchors,
            "hitting.censored_share_minus": h["censored_minus"] / anchors,
            "models.student_t.grad_calls": self.leaf_calls["grad.student_t"],
            "models.student_t.grad_us": per_call_us("grad.student_t"),
            "models.inv_gamma.grad_calls": self.leaf_calls["grad.inv_gamma"],
            "models.inv_gamma.grad_us": per_call_us("grad.inv_gamma"),
            "models.grad_s": grad_s,
            "models.pointwise_calls": self.leaf_calls["pointwise"],
            "models.pointwise_s": self.leaf_s["pointwise"],
            "nuts.s": self.total_s["nuts"],
            "nuts.self_s": self.self_s["nuts"],
            "nuts.grads_per_iter": n["grads"] / n["iters"] if n["iters"] else 0.0,
            "nuts.mean_tree_depth": n["depth_sum"] / n["draws"] if n["draws"] else 0.0,
            "nuts.divergences": int(n["divergences"]),
            "diagnostics.s": self.self_s["diagnostics"] + self.self_s["waic"],
            "diagnostics.waic_s": self.total_s["waic"],
            "diagnostics.loglik_mb": self.loglik_bytes / 2 ** 20,
            "pipeline.fits": self.calls["fit_log_sample"],
            "pipeline.fit_s_max": self.max_s["fit_log_sample"],
            "pipeline.self_s": self.self_s["pipeline"],
            "cli.self_s": wall_s - self.root.child_s,
            "trace.wall_s": wall_s,
        }


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    cli_args = rest[rest.index("--") + 1:]
    from gainloss.cli import main as cli_main

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        rc = cli_main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    wall = perf_counter() - t0
    record = {
        "rc": rc,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics(wall) if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
