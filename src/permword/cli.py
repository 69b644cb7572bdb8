"""Command-line interface: seeded, reproducible experiment runs.

Every subcommand takes --seed and derives all randomness from it, so a
(subcommand, params, seed) triple reproduces its payload bit for bit. Output
is a RunRecord envelope (JSON to --json or stdout); sweep instead emits CSV
with one row per run. Sweep rows are striped over the CPUs this process may
use: the caller runs its share and forked helpers send theirs back through
pipes; the CSV bytes do not depend on the worker count. Exit codes: 0
success, 1 retry/budget exhaustion (or a sweep row's unflagged exception),
2 usage errors, including an output path that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import compare as compare_mod
from . import repgap
from . import shrink as shrink_mod
from . import synth as synth_mod
from . import walk as walk_mod
from .errors import PermwordError
from .perm import (
    Permutation,
    format_permutation,
    parse_permutation,
    random_even,
    random_uniform,
)
from .schreier import MAX_VERTICES, TupleGraph, estimate_gap
from .word import expanded_length, node_count, serialize

_BUILD_ID: str | None = None


def build_id() -> str:
    """Stable hex digest of the package sources, a git-style build tag."""
    global _BUILD_ID
    if _BUILD_ID is None:
        root = pathlib.Path(__file__).parent
        sources = sorted(
            (path.relative_to(root).as_posix(), path)
            for path in root.rglob("*.py")
        )
        hasher = hashlib.sha1()
        for rel, path in sources:
            hasher.update(rel.encode())
            hasher.update(path.read_bytes())
        _BUILD_ID = hasher.hexdigest()[:12]
    return _BUILD_ID


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _seeded_pair(n: int, seed: int) -> tuple[Permutation, Permutation, np.random.Generator]:
    rng = np.random.default_rng(seed)
    return random_uniform(n, rng), random_uniform(n, rng), rng


# -- subcommand runners -------------------------------------------------------------


def run_gap_exact(args) -> dict:
    res = repgap.spectral_gap_exact(args.n)
    return {
        "n": res.n,
        "gap": res.gap,
        "second_eigenvalue": res.second_eigenvalue,
        "attained_at": [list(lam) for lam in res.attaining],
    }


def run_gap_brute(args) -> dict:
    eig = repgap.cayley_spectrum_bruteforce(args.n)
    vals = repgap.distinct_values(eig)
    ratios = sorted({r for _, r in repgap.gap_table(args.n)}, reverse=True)
    diff = None
    if len(vals) == len(ratios):
        diff = max(abs(v - float(r)) for v, r in zip(vals, ratios))
    return {
        "n": args.n,
        "distinct_eigenvalues": vals,
        "char_ratios": ratios,
        "max_abs_diff": diff,
    }


def run_schreier_gap(args) -> dict:
    g, h, rng = _seeded_pair(args.n, args.seed)
    graph = TupleGraph(g, h, args.ell)
    est = estimate_gap(graph, iters=args.max_iters, tol=args.tol, rng=rng)
    return {
        "n": args.n,
        "ell": args.ell,
        "num_vertices": graph.num_vertices,
        "lambda1": est.lambda1,
        "gap": est.gap,
        "residual": est.residual,
        "iterations": est.iterations,
        "converged": est.converged,
    }


def _mix_measure(args, group: walk_mod.DenseGroup) -> walk_mod.WalkMeasure:
    n = args.n
    if args.walk == "3cycles":
        if args.group == "sym":
            raise ValueError("3-cycle walk on sym never mixes (parity obstruction)")
        return walk_mod.three_cycle_lazy_measure(n)
    if args.walk == "adjacent":
        if args.group == "alt":
            raise ValueError("adjacent transpositions are odd, not inside alt")
        return walk_mod.adjacent_transposition_lazy_measure(n)
    if args.walk == "transpositions":
        if args.group == "alt":
            raise ValueError("transpositions are odd, not inside alt")
        return walk_mod.transposition_lazy_measure(n)
    if not args.gens:
        raise ValueError("--walk custom needs --gens '(..);(..)'")
    gens = [parse_permutation(s, degree=n) for s in args.gens.split(";")]
    if args.group == "alt" and any(not p.is_even() for p in gens):
        raise ValueError("custom generators must be even inside alt")
    if not walk_mod.generated_mask(gens, group).all():
        raise ValueError("custom generators do not generate the chosen group")
    support: list[Permutation] = []
    for p in gens:
        for q in (p, p.inverse()):
            if q not in support:
                support.append(q)
    return walk_mod.lazy_measure(support)


def run_mix_exact(args) -> dict:
    if args.table_max < 0:
        raise ValueError(f"--table-max must be non-negative, got {args.table_max}")
    group = walk_mod.DenseGroup(args.group, args.n)
    m = _mix_measure(args, group)
    strong = walk_mod.strong_mixing_time(m, group, cap=args.cap)
    u = 1.0 / group.size
    last = min(strong, args.table_max)
    rows = itertools.islice(walk_mod.evolution(m, group), last + 1)
    table = [
        {
            "k": k,
            "l1": walk_mod.lp_norm(dist - u, 1),
            "l2": walk_mod.lp_norm(dist - u, 2),
            "linf": walk_mod.lp_norm(dist - u, math.inf),
        }
        for k, dist in rows
    ]
    payload = {
        "n": args.n,
        "group": args.group,
        "walk": args.walk,
        "strong_mixing_time": strong,
        "k_vs_distance": table,
    }
    if args.eps is not None:
        ok = walk_mod.check_argu(m, group, args.eps, cap=args.cap)
        t2 = walk_mod.mixing_time_lp(m, group, args.eps / group.size, 2, cap=args.cap)
        payload["argu"] = {"eps": args.eps, "t2": t2, "ok": ok}
    return payload


def run_shrink(args) -> dict:
    g, h, rng = _seeded_pair(args.n, args.seed)
    res = shrink_mod.shrink_support(g, h, rng, budget_coefficient=args.budget_c)
    return {
        "n": args.n,
        "seed": args.seed,
        "success": True,
        "support": res.element.support_size(),
        "iterations": res.iterations,
        "support_trace": list(res.support_trace),
        "trial_counts": list(res.trial_counts),
        "expanded_length": expanded_length(res.word),
        "node_count": node_count(res.word),
        "long_cycle_length": res.long_cycle.length,
    }


def run_synth(args) -> dict:
    target = None if args.target == "random-even" else parse_permutation(args.target, degree=args.n)
    g, h, rng = _seeded_pair(args.n, args.seed)
    ctx = synth_mod.prepare_context(g, h, rng)
    if target is None:  # drawn after the context, so seeded payloads keep their rng stream
        target = random_even(args.n, rng)
    word = synth_mod.synthesize(ctx, target)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "target": format_permutation(target),
        "success": True,
        "expanded_length": expanded_length(word),
        "node_count": node_count(word),
    }
    if args.emit_word:
        payload["word"] = serialize(word)
    return payload


def run_compare(args) -> dict:
    g, h, rng = _seeded_pair(args.n, args.seed)
    ctx = None
    if math.perm(args.n, compare_mod.regular_tuple_length(g, h)) > MAX_VERTICES:
        ctx = synth_mod.prepare_context(g, h, rng)
    rep = compare_mod.comparison_report(g, h, ctx, args.mode, rng)
    out = asdict(rep)
    out["gap_lower_bound"] = float(out["gap_lower_bound"])
    return out


RUNNERS = {
    "gap-exact": run_gap_exact,
    "gap-brute": run_gap_brute,
    "schreier-gap": run_schreier_gap,
    "mix-exact": run_mix_exact,
    "shrink": run_shrink,
    "synth": run_synth,
    "compare": run_compare,
}


# -- sweep --------------------------------------------------------------------------


def _sweep_argv(sub: str, n: int, seed: int, params: dict) -> list[str]:
    argv = [sub, "--n", str(n), "--seed", str(seed)]
    for key, val in params.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        else:
            argv.extend([flag, str(val)])
    return argv


def _sweep_one(parser, sub: str, n: int, seed: int, params: dict) -> tuple:
    try:
        args = parser.parse_args(_sweep_argv(sub, n, seed, params))
        payload = RUNNERS[sub](args)
        text = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
        return n, seed, True, "", text
    except SystemExit:
        return n, seed, False, "usage error", ""
    except (PermwordError, ValueError, AssertionError) as exc:
        return n, seed, False, f"{type(exc).__name__}: {exc}", ""


class SweepRowError(RuntimeError):
    """A sweep row raised an exception that its CSV row cannot flag; the
    sweep fails. Args are (n, seed, exception type name, message)."""

    def __str__(self) -> str:
        n, seed, kind, message = self.args
        return f"sweep row n={n}, seed={seed} raised {kind}: {message}"


def _sweep_stripe(parser, sub: str, keys: list, params: dict) -> list[tuple]:
    """One worker's rows, in the order of `keys`."""
    rows = []
    for n, seed in keys:
        try:
            # looked up at call time: the traced benchmark rebinds _sweep_one
            rows.append(_sweep_one(parser, sub, n, seed, params))
        except Exception as exc:
            raise SweepRowError(n, seed, type(exc).__name__, str(exc)) from exc
    return rows


def _sweep_workers(rows: int) -> int:
    """One worker per CPU this process may use, at most one per row; 1
    where fork is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows))


def _sweep_helper(wfd: int, inherited: list[int], parser, sub: str, keys: list,
                  params: dict) -> None:
    """Body of a forked helper: close the read ends it inherited, run the
    stripe, send its rows (or the row that failed) as one JSON document,
    and leave through os._exit, so no atexit handler or inherited stdio
    buffer runs twice. Never returns."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            message = {"rows": _sweep_stripe(parser, sub, keys, params)}
        except SweepRowError as exc:
            message = {"error": list(exc.args)}
        with os.fdopen(wfd, "w", encoding="utf-8") as fh:
            json.dump(message, fh)
        status = 0
    finally:
        os._exit(status)


def _sweep_rows(parser, sub: str, keys: list, params: dict) -> list[tuple]:
    """Rows of `keys` in order. With k workers the caller runs rows 0, k,
    2k, ... and forked helper w runs rows w, w + k, ..., sending them back
    through a pipe; on every path each helper is reaped before this
    returns. On Python 3.12 and later os.fork warns when the process has
    other OS threads (OpenBLAS starts a pool when numpy is imported)."""
    k = _sweep_workers(len(keys))
    helpers: dict[int, int] = {}  # pid -> worker, until reaped
    pipes: dict[int, int] = {}  # worker -> read fd, until read
    try:
        for w in range(1, k):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                _sweep_helper(wfd, [rfd, *pipes.values()], parser, sub, keys[w::k], params)
            os.close(wfd)
            helpers[pid] = w
            pipes[w] = rfd
        rows: list = [None] * len(keys)
        rows[0::k] = _sweep_stripe(parser, sub, keys[0::k], params)
        # read every pipe before reaping: a helper blocks on a full pipe
        sent = {}
        for w in list(pipes):
            with os.fdopen(pipes.pop(w), "rb") as fh:
                sent[w] = fh.read()
        for pid, w in list(helpers.items()):
            _, status = os.waitpid(pid, 0)
            del helpers[pid]
            try:
                message = json.loads(sent[w])
            except ValueError:
                raise RuntimeError(
                    f"sweep helper {w} exited with status {os.waitstatus_to_exitcode(status)} "
                    f"without sending its rows (n, seed) {keys[w::k]}"
                ) from None
            if "error" in message:
                raise SweepRowError(*message["error"])
            rows[w::k] = [tuple(row) for row in message["rows"]]
        return rows
    finally:
        for rfd in pipes.values():
            os.close(rfd)
        if helpers:
            import signal

            for pid in helpers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


SWEEP_SHAPE = (
    "sweep config must be a JSON object {subcommand, n_range: [lo, hi], "
    "seed_range: [lo, hi], params: {flag: value}} with integers lo <= hi"
)


def _sweep_config(path: str) -> tuple[str, list, dict]:
    """(subcommand, (n, seed) keys in n-major order, params) of a sweep
    config; ValueError names what is malformed."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not (isinstance(cfg, dict) and isinstance(cfg.get("params", {}), dict)):
        raise ValueError(SWEEP_SHAPE)
    for key in ("subcommand", "n_range", "seed_range"):
        if key not in cfg:
            raise ValueError(f"{SWEEP_SHAPE}; {key} is missing")
    for key in ("n_range", "seed_range"):
        bounds = cfg[key]
        # a JSON boolean is a Python int, so test the type itself
        if not (
            isinstance(bounds, list)
            and len(bounds) == 2
            and all(type(b) is int for b in bounds)
            and bounds[0] <= bounds[1]
        ):
            raise ValueError(f"{SWEEP_SHAPE}; {key} is {json.dumps(bounds)}")
    params = cfg.get("params", {})
    for key in params:
        # every row sets --n and --seed itself; argparse keeps the last value
        # and also takes a prefix of --seed
        name = str(key).replace("_", "-")
        if name == "n" or (name and "seed".startswith(name)):
            raise ValueError(f"{SWEEP_SHAPE}; params sets {key!r}, which each row takes from a range")
    sub = cfg["subcommand"]
    if not isinstance(sub, str) or sub not in RUNNERS:
        raise ValueError(f"sweep cannot drive subcommand {sub!r}")
    (n_lo, n_hi), (s_lo, s_hi) = cfg["n_range"], cfg["seed_range"]
    keys = [(n, seed) for n in range(n_lo, n_hi + 1) for seed in range(s_lo, s_hi + 1)]
    return sub, keys, params


def run_sweep(args) -> str:
    """Cross-product runner; returns CSV text and, with --out, writes it
    there. The config is checked and --out opened before any row runs.
    Rows are striped over the CPUs this process may use, the caller
    running its own stripe (see `_sweep_rows`), and written in n-major
    order: the bytes do not depend on the worker count. Failed rows are
    flagged and the sweep still exits 0; any other exception in a row
    fails the sweep as a SweepRowError naming the row."""
    sub, keys, params = _sweep_config(args.config)
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext() as sink:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["n", "seed", "ok", "error", "payload"])
        writer.writerows(_sweep_rows(build_parser(), sub, keys, params))
        text = out.getvalue()
        if sink is not None:
            sink.write(text)
    return text


# -- parser and dispatch ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permword",
        description="Random generators of permutation groups: words, walks, gaps.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, **kwargs):
        sp = subs.add_parser(name, **kwargs)
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sp.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="write the RunRecord here instead of stdout")
        return sp

    sp = add(
        "gap-exact",
        help="exact 3-cycle walk gap on Alt(n) from character ratios, "
        f"n <= {repgap.MAX_EXACT_GAP_DEGREE}",
    )
    sp.add_argument("--n", type=int, required=True)

    sp = add("gap-brute", help="dense Cayley spectrum vs character ratios, n <= 6")
    sp.add_argument("--n", type=int, required=True)

    sp = add("schreier-gap", help="estimated tuple-action gap for a seeded pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ell", type=int, default=3)
    sp.add_argument("--max-iters", type=int, default=4000)
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = add("mix-exact", help="exact distribution evolution on a dense group")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--group", choices=("alt", "sym"), default="alt")
    sp.add_argument("--walk", choices=("3cycles", "adjacent", "transpositions", "custom"),
                    default="3cycles")
    sp.add_argument("--gens", default=None,
                    help="semicolon-separated cycle forms for --walk custom")
    sp.add_argument("--eps", type=float, default=None,
                    help="also report the l2-vs-linf mixing comparison at this eps")
    sp.add_argument("--cap", type=int, default=100_000)
    sp.add_argument("--table-max", type=int, default=200,
                    help="cap on rows of the k-vs-distance table")

    sp = add("shrink", help="small-support element for a seeded random pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget-c", type=float, default=shrink_mod.BUDGET_COEFFICIENT,
                    help="word budget coefficient c in ceil(c n log2(n)^3)")

    sp = add("synth", help="synthesize a target permutation as a generator word")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--target", default="random-even",
                    help="'random-even' or an explicit cycle form like '(1 2 3)'")
    sp.add_argument("--emit-word", action="store_true",
                    help="include the serialized word in the payload")

    sp = add("compare", help="comparison constant A and transferred gap bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", default="exact", help="'exact' or 'sample:M'")

    sp = add("sweep", help="cross-product of (n, seed) for one subcommand, CSV out")
    sp.add_argument("--config", required=True,
                    help="JSON: {subcommand, n_range, seed_range, params}")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")

    return parser


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.subcommand == "sweep":
        try:
            text = run_sweep(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.out is None:
            _emit(text, None)
        return 0

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        payload = RUNNERS[args.subcommand](args)
        code = 0
    except PermwordError as exc:
        payload = {"success": False, "error": type(exc).__name__, "message": str(exc)}
        code = 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = {
        k: _jsonable(v)
        for k, v in vars(args).items()
        if k not in ("subcommand", "json_path")
    }
    record = {
        "subcommand": args.subcommand,
        "params": params,
        "seed": args.seed,
        "timestamp": started,
        "build_id": build_id(),
        "wall_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        "payload": _jsonable(payload),
    }
    try:
        _emit(json.dumps(record, indent=2, sort_keys=True), args.json_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
