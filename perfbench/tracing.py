"""Outside-in tracing of smoothmpc's layer boundaries.

The tracer wraps public functions of the package from the benchmark's
side; no code under ``src/`` changes. A boundary is patched in every
module namespace that binds it (``experiments`` imports ``solve_barrier``
by name, ``bounds`` imports ``raw_solve_qp``, three modules bind
``linprog`` at module level and two import it inside functions), since a
namespace left unpatched would bypass the wrapper and read zero calls
without warning.

Each call becomes a span ``[name, start, end, parent, run_id, counts, ok]``
kept in memory; counters read from arguments and return values are
stored on the span, and counters that depend on nested calls (LPs made by
a solve, QP fallbacks of a table lookup) are derived from the span tree
afterwards. A span's self time is its duration minus the union of its
direct children's intervals.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

CLOCK = time.perf_counter


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


# --- counters read from arguments and results ---------------------------------

def _count_solve(tracer, args, kwargs, result, counts):
    counts["newton_iters"] = int(result.newton_iters)


def _solve_error(tracer, args, kwargs, err, counts):
    # A raise at a state strictly inside the feasible set is a failed
    # evaluation; outside it, raising is the correct answer.
    x0 = np.asarray(_arg(args, kwargs, 1, "x0"), dtype=float)
    key = "failures" if tracer.strictly_feasible(x0) else "infeasible_states"
    counts[key] = 1


def _count_table(tracer, args, kwargs, result, counts):
    counts["points"] = _rows(_arg(args, kwargs, 1, "X"))
    counts["nan_rows"] = int(np.isnan(result).any(axis=1).sum())


def _count_smoothed_batch(tracer, args, kwargs, result, counts):
    states = _rows(_arg(args, kwargs, 1, "X"))
    counts["states"] = states
    counts["samples"] = states * int(args[0].cfg.n_samples)


def _count_pi_rs(tracer, args, kwargs, result, counts):
    counts["states"] = 1
    counts["samples"] = int(_arg(args, kwargs, 1, "cfg").n_samples)


def _count_projector(tracer, args, kwargs, result, counts):
    X = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "X"), dtype=float))
    counts["points"] = int(X.shape[0])
    counts["projected_points"] = int(np.any(result != X, axis=1).sum())


def _count_jacobian_evals(tracer, args, kwargs, counts):
    jac_fn = args[0]

    def counted(x):
        counts["jacobian_evals"] = counts.get("jacobian_evals", 0) + 1
        return jac_fn(x)

    return (counted,) + tuple(args[1:]), kwargs


def _count_rollout(tracer, args, kwargs, result, counts):
    counts["steps"] = int(result.K)
    counts["truncated"] = int(not result.completed)


def _count_dataset(tracer, args, kwargs, result, counts):
    counts["trajectories"] = int(result.N)


def _count_imitation_error(tracer, args, kwargs, result, counts):
    counts["starts"] = _rows(_arg(args, kwargs, 3, "eval_states"))


def _count_train(tracer, args, kwargs, result, counts):
    counts["steps"] = int(len(result[1]["train"]))


def _count_loss(tracer, args, kwargs, result, counts):
    counts["rows"] = _rows(_arg(args, kwargs, 1, "X"))


def _count_raw_qp(tracer, args, kwargs, result, counts):
    counts["iterations"] = int(result.iterations)


def _count_discovery(tracer, args, kwargs, result, counts):
    counts["grid_points"] = _rows(_arg(args, kwargs, 1, "grid"))
    counts["pieces"] = int(result.n_pieces)


@dataclass(frozen=True)
class Boundary:
    """One traced entry point: ``module.attr`` or ``module.cls.attr``."""

    name: str
    module: str
    attr: str
    cls: str | None = None
    count: Callable | None = None
    on_error: Callable | None = None
    wrap_args: Callable | None = None


def _b(name, count=None, on_error=None, wrap_args=None) -> Boundary:
    parts = name.split(".")
    cls = parts[1] if len(parts) == 3 else None
    return Boundary(name=name, module="smoothmpc." + parts[0], attr=parts[-1], cls=cls,
                    count=count, on_error=on_error, wrap_args=wrap_args)


LINPROG = "linprog"

BOUNDARIES = (
    _b("core.build_condensed"),
    _b("core.feasible_radii"),
    _b("qp.raw_solve_qp", _count_raw_qp),
    _b("qp.farkas_certificate"),
    _b("explicit.solve_qp"),
    _b("explicit.gain_for_sigma"),
    _b("explicit.discover_pieces", _count_discovery),
    _b("explicit.PieceTableEvaluator.eval_batch", _count_table),
    _b("explicit.max_gain_norm"),
    _b("explicit.c_constant"),
    _b("barrier.solve_barrier", _count_solve, on_error=_solve_error),
    _b("barrier.barrier_jacobian"),
    _b("barrier.barrier_hessian"),
    _b("barrier.tensor_spectral_norm"),
    _b("bounds.error_upper"),
    _b("bounds.residual_lower_bound"),
    _b("bounds.first_residual_lower_bound"),
    _b("bounds.quadratic_lipschitz"),
    _b("bounds.normalized_min_residual"),
    _b("bounds.directional_bounds"),
    _b("bounds.hessian_upper_bound"),
    _b("smoothing.pi_rs", _count_pi_rs),
    _b("smoothing.RandomizedPolicy.eval_batch", _count_smoothed_batch),
    _b("simulate.rollout", _count_rollout),
    _b("simulate.sample_dataset", _count_dataset),
    _b("simulate.imitation_error", _count_imitation_error),
    _b("mlp.train_imitator", _count_train),
    _b("mlp.MLPPolicy.loss_and_grads", _count_loss),
    _b("experiments.Workbench.from_config"),
    _b("experiments.feasible_polygon"),
    _b("experiments.PolygonProjector.__call__", _count_projector),
    _b("experiments.slice_smoothness", wrap_args=_count_jacobian_evals),
    _b("experiments.bounds_sweep"),
    _b("experiments.smoothness_sweep"),
    _b("experiments.imitation_run"),
    _b("experiments.imitation_experiment"),
)

# The boundaries whose counters give eval_fail_frac; untraced rounds keep
# only these active, at a cost of microseconds per millisecond-scale call.
EVAL_BOUNDARIES = frozenset({"barrier.solve_barrier", "explicit.PieceTableEvaluator.eval_batch"})
ALL_BOUNDARIES = frozenset(b.name for b in BOUNDARIES) | {LINPROG}


class Tracer:
    """Span recorder with patch/unpatch of the package's boundaries."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active: frozenset = frozenset()
        self.run_id = None
        self.strictly_feasible = lambda x: True
        self._patches: list = []

    # --- span recording ----------------------------------------------------
    def _call(self, b: Boundary, name: str, fn, args, kwargs):
        counts: dict = {}
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id, counts, True]
        idx = len(self.spans)
        self.spans.append(span)
        self.stack.append(idx)
        if b is not None and b.wrap_args is not None:
            args, kwargs = b.wrap_args(self, args, kwargs, counts)
        span[1] = CLOCK()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            span[2] = CLOCK()
            self.stack.pop()
            span[6] = False
            if b is not None and b.on_error is not None and isinstance(err, Exception):
                b.on_error(self, args, kwargs, err, counts)
            raise
        span[2] = CLOCK()
        self.stack.pop()
        if b is not None and b.count is not None:
            b.count(self, args, kwargs, result, counts)
        return result

    def _wrap(self, b: Boundary, fn):
        tracer = self
        name = b.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name not in tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(b, name, fn, args, kwargs)

        return traced

    def _wrap_linprog(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if LINPROG not in tracer.active:
                return fn(*args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__", "")
            mod = caller.split(".")[1] if caller.startswith("smoothmpc.") else "other"
            return tracer._call(None, f"{LINPROG}.{mod}", fn, args, kwargs)

        return traced

    # --- patching ----------------------------------------------------------
    def _rebind(self, orig, replacement, extra_modules=()):
        """Point every smoothmpc namespace binding ``orig`` at ``replacement``."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "smoothmpc" or n.startswith("smoothmpc."))]
        mods += list(extra_modules)
        hits = 0
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, orig))
                    hits += 1
        return hits

    def install(self) -> "Tracer":
        import importlib

        import scipy.optimize

        # Import every module first, so that each binding exists when the
        # namespaces are scanned and is restored by uninstall().
        modules = {b.name: importlib.import_module(b.module) for b in BOUNDARIES}
        for b in BOUNDARIES:
            mod = modules[b.name]
            if b.cls is None:
                orig = getattr(mod, b.attr)
                if self._rebind(orig, self._wrap(b, orig)) == 0:
                    raise RuntimeError(f"boundary {b.name} is bound nowhere")
            else:
                owner = getattr(mod, b.cls)
                raw = owner.__dict__[b.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(b, raw.__func__))
                else:
                    wrapped = self._wrap(b, raw)
                setattr(owner, b.attr, wrapped)
                self._patches.append((owner, b.attr, raw))
        orig = scipy.optimize.linprog
        self._rebind(orig, self._wrap_linprog(orig), extra_modules=[scipy.optimize])
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- phases ------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, run_id, active):
        """Record spans of the ``active`` boundaries under ``run_id``."""
        self.run_id, self.active = run_id, frozenset(active)
        try:
            yield self
        finally:
            self.run_id, self.active = None, frozenset()


# --- analysis ---------------------------------------------------------------

def _base(name: str) -> str:
    return LINPROG if name.startswith(LINPROG + ".") else name


def analyse(spans: list, run_ids) -> dict:
    """Per-boundary calls, total_s, self_s and counters over the given runs.

    Returns ``{boundary: {"calls", "ok_calls", "total_s", "self_s", ...}}``
    with LP calls also keyed per caller module (``linprog.core`` ...), and
    span-tree counters: ``lp_calls`` (descendant LPs), ``qp_fallbacks``
    (descendant ``explicit.solve_qp`` of a table lookup),
    ``solve_barrier_calls`` (descendant solves of a Hessian) and
    ``dropped_samples`` (NaN table rows under a smoothed evaluation).
    """
    run_ids = set(run_ids)
    keep = [i for i, s in enumerate(spans) if s[4] in run_ids]
    keep_set = set(keep)
    children: dict = {}
    for i in keep:
        p = spans[i][3]
        if p in keep_set:
            children.setdefault(p, []).append(i)
    derived: dict = {}
    for i in keep:
        name = spans[i][0]
        p = spans[i][3]
        while p in keep_set:
            d = derived.setdefault(p, {})
            if name.startswith(LINPROG + "."):
                d["lp_calls"] = d.get("lp_calls", 0) + 1
            elif name == "explicit.solve_qp" and spans[p][0].endswith("eval_batch"):
                d["qp_fallbacks"] = d.get("qp_fallbacks", 0) + 1
            elif name == "barrier.solve_barrier":
                d["solve_barrier_calls"] = d.get("solve_barrier_calls", 0) + 1
            elif name == "explicit.PieceTableEvaluator.eval_batch":
                d["dropped_samples"] = d.get("dropped_samples", 0) + spans[i][5].get("nan_rows", 0)
            p = spans[p][3]
    out: dict = {}
    for i in keep:
        name, start, end, _, _, counts, ok = spans[i]
        covered = 0.0
        lo = hi = None
        for c in children.get(i, ()):
            cs, ce = spans[c][1], spans[c][2]
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        for key in {name, _base(name)}:
            agg = out.setdefault(key, {"calls": 0, "ok_calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["ok_calls"] += int(ok)
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - covered
            for k, v in counts.items():
                agg[k] = agg.get(k, 0) + v
            for k, v in derived.get(i, {}).items():
                agg[k] = agg.get(k, 0) + v
    return out


def module_self_time(layers: dict) -> dict:
    """Self time summed per package module (and the LP boundary)."""
    out: dict = {}
    for name, agg in layers.items():
        if name.startswith(LINPROG + "."):
            continue
        mod = name.split(".")[0]
        out[mod] = out.get(mod, 0.0) + agg["self_s"]
    return out


def structure_checks(spans: list, run_ids, n_inputs: int, d_x: int) -> dict:
    """Violations of the LP and solve counts today's code is built on.

    One LP per successful ``solve_barrier``; 2n + 1 per successful
    ``feasible_radii``; 720 per ``feasible_polygon``; 2 d_x successful
    solves per ``barrier_hessian`` whose first step stays feasible. A
    change that alters a count shows up here as a count change.
    """
    run_ids = set(run_ids)
    lp: dict = {}
    solves: dict = {}
    for s in spans:
        if s[4] not in run_ids:
            continue
        p = s[3]
        if s[0].startswith(LINPROG + "."):
            while p >= 0:
                lp[p] = lp.get(p, 0) + 1
                p = spans[p][3]
        elif s[0] == "barrier.solve_barrier" and p >= 0:
            ok, bad = solves.get(p, (0, 0))
            solves[p] = (ok + int(s[6]), bad + int(not s[6]))
    pinned = {
        "lp_per_solve_barrier": ("barrier.solve_barrier", lambda i: lp.get(i, 0) == 1),
        "lp_per_feasible_radii": ("core.feasible_radii",
                                  lambda i: lp.get(i, 0) == 2 * n_inputs + 1),
        "lp_per_feasible_polygon": ("experiments.feasible_polygon",
                                    lambda i: lp.get(i, 0) == 720),
        "solves_per_barrier_hessian": ("barrier.barrier_hessian",
                                       lambda i: solves.get(i, (0, 0))[1] > 0
                                       or solves.get(i, (0, 0))[0] == 2 * d_x),
    }
    out = {}
    for key, (name, holds) in pinned.items():
        checked = [i for i, s in enumerate(spans)
                   if s[4] in run_ids and s[0] == name and s[6]]
        out[key] = {"checked": len(checked),
                    "violations": sum(1 for i in checked if not holds(i))}
    return out
