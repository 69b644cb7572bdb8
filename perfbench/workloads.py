"""The two benchmark workloads and the parts of the second.

Each workload is closed loop with one client: it builds its inputs from the
benchmark seed, sets up its instances (`setup`, returning one construction
time per instance), runs rounds of operations (`run_round`, returning one
`Op` per operation with the latency the caller saw), and verifies every
output afterwards (`check`), outside the timed region. Checks raise nothing
and use no `assert`, so a `python -O` run is verified too. Both `setup` and
`run_round` call `probe` before each instance or operation, outside its
timed region; it samples the host's speed.

Package entry points are looked up on their modules at call time
(`synth_mod.synthesize`, `cli_mod.RUNNERS[...]`), so the traced run's
rebound wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import permword.cli as cli_mod
import permword.perm as perm_mod
import permword.schreier as schreier_mod
import permword.synth as synth_mod
import permword.word as word_mod
from permword.errors import PermwordError

# what a failing operation of the program may raise; assert-based
# invariants inside the package surface as AssertionError
OP_ERRORS = (PermwordError, ValueError, AssertionError)


@dataclass
class Op:
    """One operation: the latency its caller saw, what to check, and which
    kind of operation in the workload's fixed mix it was."""

    latency_s: float
    kind: object
    record: dict = field(default_factory=dict)
    error: str = ""


def _label(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def seeded_pair(n: int, rng: np.random.Generator):
    return perm_mod.random_uniform(n, rng), perm_mod.random_uniform(n, rng)


def generates_primitive(g, h) -> bool:
    """True when <g, h> is transitive and primitive on the n points.

    Transitivity by a search from point 0; primitivity by Atkinson's
    minimal-block closure of {0, b} for every b (Atkinson 1975, Math. Comp.
    29). A pair failing either cannot generate Alt(n) or Sym(n), so no word
    synthesis over it can succeed.
    """
    n = g.degree
    gens = [g.images.tolist(), h.images.tolist()]
    seen = [False] * n
    seen[0] = True
    todo = [0]
    reached = 1
    while todo:
        x = todo.pop()
        for s in gens:
            y = s[x]
            if not seen[y]:
                seen[y] = True
                reached += 1
                todo.append(y)
    if reached < n:
        return False

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in range(1, n):
        parent = list(range(n))
        parent[b] = 0
        classes = n - 1
        queue = [(0, b)]
        while queue and classes > 1:
            x, y = queue.pop()
            for s in gens:
                ru, rv = find(parent, s[x]), find(parent, s[y])
                if ru != rv:
                    parent[rv] = ru
                    classes -= 1
                    queue.append((ru, rv))
        if classes > 1:
            return False
    return True


def image_and_length(word, g, h) -> tuple[np.ndarray, int]:
    """0-based image table and expanded length of a word over (g, h).

    A check independent of the package's `evaluate` and `expanded_length`,
    and one pass instead of their two: an iterative walk over the word's
    DAG, memoized by node identity, composing raw image tables so that the
    left factor applies first.
    """
    gens = {"g": np.asarray(g.images, dtype=np.intp), "h": np.asarray(h.images, dtype=np.intp)}
    ident = np.arange(g.degree, dtype=np.intp)
    memo: dict[int, tuple[np.ndarray, int]] = {}
    stack = [word]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if isinstance(node, word_mod.Gen):
            memo[id(node)] = (gens[node.name], 1)
        elif isinstance(node, (word_mod.Inv, word_mod.Pow)):
            child = memo.get(id(node.child))
            if child is None:
                stack.append(node.child)
                continue
            img, length = child
            if isinstance(node, word_mod.Inv):
                inv = np.empty_like(img)
                inv[img] = ident
                memo[id(node)] = (inv, length)
            else:
                k, out, cur = node.exponent, ident, img
                while k:
                    if k & 1:
                        out = cur[out]
                    k >>= 1
                    cur = cur[cur] if k else cur
                memo[id(node)] = (out, length * node.exponent)
        else:
            pending = [c for c in node.children if id(c) not in memo]
            if pending:
                stack.extend(reversed(pending))
                continue
            out, total = ident, 0
            for c in node.children:
                img, length = memo[id(c)]
                out = img[out]
                total += length
            memo[id(node)] = (out, total)
        stack.pop()
    return memo[id(word)]


class Workload:
    """Defaults for the hooks most workloads leave empty."""

    def check_round(self, ops: list[Op]) -> None:
        """Verify a round right after it ran, outside the timed region, where
        keeping its outputs to the end would grow memory with the run length."""

    def close(self) -> None:
        """Remove files the workload wrote."""


def generating_pair(n: int, rng: np.random.Generator):
    """First seeded pair that is transitive and primitive."""
    while True:
        g, h = seeded_pair(n, rng)
        if generates_primitive(g, h):
            return g, h


# -- synth_stream ---------------------------------------------------------------------


class SynthStream(Workload):
    """Per-pair contexts at n = 300 serving a stream of random even targets.

    The pairs and their contexts are fixed, and the benchmark seed draws
    the targets. Per-target cost depends on the pair and on the context's
    random choices (where kappa lands, which edges the pool covers): with
    those drawn from the seed, median latency moved by a fifth between
    seeds.
    """

    name = "synth_stream"
    n = 300
    pairs = 4
    expected_calls = (
        "synth.prepare_context", "synth.synthesize", "synth.build_3cycle",
        "shrink.shrink_support", "shrink.find_long_cycle_element",
        "walk.sample_walk", "kernels.track_points", "word.evaluate",
        "perm.mul", "perm.is_identity", "perm.three_cycle_factorization",
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.instances: list[dict] = []
        self.setup_ops: list[Op] = []

    def setup(self, probe) -> list[float]:
        times = []
        for i in range(self.pairs):
            rng = np.random.default_rng([self.n, i])
            g, h = generating_pair(self.n, rng)
            targets = np.random.default_rng([self.seed, i])
            # the warm-up target is fixed too, so set-up does the same work on every seed
            target = perm_mod.random_even(self.n, np.random.default_rng([self.n, i, 0]))
            probe()
            t0 = time.perf_counter()
            try:
                ctx = synth_mod.prepare_context(g, h, rng)
                word = synth_mod.synthesize(ctx, target)
            except OP_ERRORS as exc:
                self.setup_ops.append(Op(time.perf_counter() - t0, i, error=_label(exc)))
                continue
            times.append(time.perf_counter() - t0)
            inst = {"g": g, "h": h, "ctx": ctx, "targets": targets}
            self.instances.append(inst)
            self.setup_ops.append(Op(times[-1], i, {"inst": inst, "target": target, "word": word}))
        return times

    def run_round(self, r: int, probe) -> list[Op]:
        ops = []
        for i, inst in enumerate(self.instances):
            target = perm_mod.random_even(self.n, inst["targets"])
            probe()
            t0 = time.perf_counter()
            try:
                word = synth_mod.synthesize(inst["ctx"], target)
            except OP_ERRORS as exc:
                ops.append(Op(time.perf_counter() - t0, i, error=_label(exc)))
                continue
            ops.append(Op(time.perf_counter() - t0, i, {"inst": inst, "target": target, "word": word}))
        return ops

    def check_round(self, ops: list[Op]) -> None:
        """Verify each word and keep only its length."""
        n = self.n
        budget = 10 * n * n * math.log2(n) ** 3
        for op in ops:
            rec = op.record
            if op.error or "word" not in rec:
                continue
            image, rec["length"] = image_and_length(rec.pop("word"), rec["inst"]["g"],
                                                    rec["inst"]["h"])
            if not np.array_equal(image, rec["target"].images):
                op.error = "check: word does not evaluate to its target"
            elif rec["length"] > budget:
                op.error = f"check: expanded length {rec['length']} over budget {budget:.0f}"

    def check(self, ops: list[Op]) -> dict:
        self.check_round(self.setup_ops + ops)
        lengths = [op.record["length"] for op in self.setup_ops + ops if not op.error]
        pools = [len(inst["ctx"].pool_gammas) for inst in self.instances]
        return {
            "word_len_median": (statistics.median(lengths) if lengths else None, "symbols"),
            "pool_size_mean": (statistics.fmean(pools) if pools else None, "walks"),
        }


# -- compare sweep --------------------------------------------------------------------


class CompareSweep(Workload):
    """`sweep` of `compare --mode sample:32` over n 16..19 x seeds 0..2.

    The rows are fixed. The CLI derives each row's pair and randomness from
    the row's seed, so the benchmark seed could only pick other rows, and
    rows differ in cost by up to fivefold: seed-picked rectangles moved the
    sweep's wall time by 16% between benchmark seeds. The rectangle holds
    pairs that do not generate (n = 16, seed 0 is one).
    """

    name = "compare_sweep"
    n_range = (16, 19)
    seed_range = (0, 2)
    mode = "sample:32"
    expected_calls = (
        "cli.dispatch", "cli.run_sweep", "cli._sweep_one",
        "compare.comparison_report", "compare.reference_measure",
        "synth.prepare_context", "synth.synthesize", "shrink.shrink_support",
        "word.expanded_length", "word.generator_counts", "word.evaluate",
        "walk.sample_walk", "kernels.track_points",
    )

    def __init__(self, seed: int, workdir: str):
        stem = os.path.join(workdir, f"compare-{os.getpid()}-{seed}")
        self.config_path = stem + ".json"
        self.csv_path = stem + ".csv"
        self.setup_ops: list[Op] = []

    def setup(self, probe) -> list[float]:
        t0 = time.perf_counter()
        cfg = {
            "subcommand": "compare",
            "n_range": list(self.n_range),
            "seed_range": list(self.seed_range),
            "params": {"mode": self.mode},
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return [time.perf_counter() - t0]

    def run_round(self, r: int, probe) -> list[Op]:
        argv = ["sweep", "--config", self.config_path, "--out", self.csv_path]
        probe()
        t0 = time.perf_counter()
        code = cli_mod.dispatch(argv)
        wall = time.perf_counter() - t0
        rows = []
        if code == 0:
            with open(self.csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        if not rows:
            return [Op(wall, "sweep", error=f"sweep exited {code} with no rows")]
        # a sweep returns its rows together, so each row's latency is its share of the sweep
        return [Op(wall / len(rows), (row["n"], row["seed"]), {"sweep": r, "row": row})
                for row in rows]

    def close(self) -> None:
        for path in (self.config_path, self.csv_path):
            if os.path.exists(path):
                os.remove(path)

    def check(self, ops: list[Op]) -> dict:
        expected = {
            (n, s)
            for n in range(self.n_range[0], self.n_range[1] + 1)
            for s in range(self.seed_range[0], self.seed_range[1] + 1)
        }
        sweeps: dict[int, list[Op]] = {}
        for op in ops:
            if not op.error:
                sweeps.setdefault(op.record["sweep"], []).append(op)
        for sweep in sweeps.values():
            keys = [(int(op.record["row"]["n"]), int(op.record["row"]["seed"])) for op in sweep]
            if len(keys) != len(expected) or set(keys) != expected:
                for op in sweep:
                    op.error = "check: sweep rows do not cover the (n, seed) rectangle once"
        log10_a = []
        error_rows = 0
        labels: dict[str, int] = {}
        for op in ops:
            if op.error:
                continue
            row = op.record["row"]
            n, s = int(row["n"]), int(row["seed"])
            if row["ok"] != "True":
                error_rows += 1
                label = row["error"].split(":", 1)[0]
                labels[label] = labels.get(label, 0) + 1
                # a pair that cannot generate Alt(n) or Sym(n) has no words: failing is the answer
                if generates_primitive(*seeded_pair(n, np.random.default_rng(s))):
                    op.error = f"check: generating pair failed ({row['error']})"
                continue
            payload = json.loads(row["payload"])
            a_value = float(payload["A"])
            if Fraction(payload["gap_reference"]) != Fraction(3, n - 1):
                op.error = f"check: gap_reference {payload['gap_reference']} != 3/{n - 1}"
            elif not a_value > 0 or not math.isfinite(a_value):
                op.error = f"check: A = {a_value} is not a positive number"
            elif payload["words_used"] != int(self.mode.split(":")[1]):
                op.error = f"check: {payload['words_used']} reference words used"
            else:
                log10_a.append(math.log10(a_value))
        return {
            "log10_A_median": (statistics.median(log10_a) if log10_a else None, "log10"),
            "error_rows_frac": (error_rows / len(ops) if ops else None, "ratio"),
            "error_labels": (labels, "rows"),
        }


# -- tuple-graph estimates and the exact battery -------------------------------------


class TupleGap(Workload):
    """Power-iteration gap estimates on 3-tuple Schreier graphs at n = 24 and 40.

    The pairs are fixed and the benchmark seed drives the start vectors. Of
    random pairs, about one in five converges early and the rest run to the
    4,000-iteration cap, so a run of a few seed-drawn pairs would swing
    estimates/s by far more than any regression bound. The two n = 24 pairs
    are one of each kind; the n = 40 pair runs to the cap.
    """

    name = "tuple_gap"
    ell = 3
    pairs = ((24, 1), (24, 2), (40, 1))  # (n, seed of the pair's generator)
    expected_calls = (
        "schreier.TupleGraph.build", "schreier.estimate_gap", "kernels.adjacency_apply",
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.graphs = []
        self.setup_ops: list[Op] = []

    def setup(self, probe) -> list[float]:
        times = []
        for n, pair_seed in self.pairs:
            g, h = seeded_pair(n, np.random.default_rng(pair_seed))
            probe()
            t0 = time.perf_counter()
            graph = schreier_mod.TupleGraph(g, h, self.ell)
            # a first short estimate faults in the kernel's working set
            schreier_mod.estimate_gap(graph, iters=50, rng=np.random.default_rng(0))
            times.append(time.perf_counter() - t0)
            self.graphs.append(graph)
        return times

    def run_round(self, r: int, probe) -> list[Op]:
        ops = []
        for i, graph in enumerate(self.graphs):
            rng = np.random.default_rng([self.seed, r, i])
            probe()
            t0 = time.perf_counter()
            try:
                est = schreier_mod.estimate_gap(graph, rng=rng)
            except OP_ERRORS as exc:
                ops.append(Op(time.perf_counter() - t0, i, error=_label(exc)))
                continue
            ops.append(Op(time.perf_counter() - t0, i, {"graph": i, "est": est}))
        return ops

    def check(self, ops: list[Op]) -> dict:
        refs = self._reference_gaps()
        errs = []
        converged = 0
        for op in ops:
            if op.error:
                continue
            est = op.record["est"]
            converged += bool(est.converged)
            if not (math.isfinite(est.gap) and -1e-12 <= est.gap <= 2.0):
                op.error = f"check: gap {est.gap} outside [0, 2]"
                continue
            if refs is None:
                continue
            err = est.gap - refs[op.record["graph"]]
            errs.append(abs(err))
            # a Rayleigh quotient on the deflated space never exceeds lambda_2
            if err < -1e-9:
                op.error = f"check: gap {est.gap} below the reference by {-err:.3g}"
            elif est.converged and abs(err) > 1e-6:
                op.error = f"check: converged gap off the reference by {err:.3g}"
            elif abs(err) > 1e-2:
                op.error = f"check: gap off the reference by {err:.3g}"
        done = [op for op in ops if not op.error]
        return {
            "converged_frac": (converged / len(done) if done else None, "ratio"),
            "gap_err_max": (max(errs) if errs else None, "abs"),
        }

    def _reference_gaps(self):
        """1 - lambda_2 of each graph from scipy's eigsh; None without scipy."""
        try:
            import scipy.sparse as sparse
            from scipy.sparse.linalg import eigsh
        except ImportError:
            return None
        refs = []
        for graph in self.graphs:
            num = graph.num_vertices
            nbrs = graph.neighbors
            rows = np.repeat(np.arange(num), nbrs.shape[0])
            adj = sparse.csr_matrix(
                (np.full(rows.shape[0], 1.0 / nbrs.shape[0]), (rows, nbrs.T.reshape(-1))),
                shape=(num, num),
            )
            vals = eigsh(adj, k=2, which="LA", tol=1e-12, return_eigenvectors=False,
                         v0=np.random.default_rng(0).standard_normal(num))
            refs.append(1.0 - float(np.sort(vals)[0]))
        return refs


def _check_mix(strong: int, t2: int | None):
    def check(payload) -> str:
        if payload["strong_mixing_time"] != strong:
            return f"strong mixing time {payload['strong_mixing_time']} != {strong}"
        if len(payload["k_vs_distance"]) != strong + 1:
            return "k-vs-distance table has the wrong length"
        if t2 is not None:
            argu = payload.get("argu", {})
            if argu.get("t2") != t2 or argu.get("ok") is not True:
                return f"argu {argu} != t2 {t2}, ok"
        return ""
    return check


def _check_gap(n: int):
    def check(payload) -> str:
        if payload["gap"] != Fraction(3, n - 1):
            return f"gap {payload['gap']} != 3/{n - 1}"
        if payload["second_eigenvalue"] != 1 - Fraction(3, n - 1):
            return "second eigenvalue is not 1 - gap"
        return ""
    return check


class Exact(Workload):
    """Fixed battery of exact requests through `cli.RUNNERS`, in a fixed order.

    The requests take no randomness. A seeded order moved peak RSS by 12%
    between seeds, as the allocator's high-water mark follows the order.
    """

    name = "exact"
    battery = (
        (["mix-exact", "--n", "8", "--group", "alt", "--walk", "3cycles", "--eps", "0.5"],
         _check_mix(21, 12)),
        (["mix-exact", "--n", "8", "--group", "sym", "--walk", "transpositions"],
         _check_mix(31, None)),
        (["gap-exact", "--n", "50"], _check_gap(50)),
    )
    expected_calls = (
        "cli.run_mix_exact", "cli.run_gap_exact", "walk.DenseGroup.build",
        "walk.transition_tables", "walk.strong_mixing_time", "walk.mixing_time_lp",
        "walk.check_argu", "kernels.convolve_steps", "repgap.spectral_gap_exact",
        "repgap.partitions",
    )

    def __init__(self, seed: int, workdir: str):
        self.requests = []
        self.setup_ops: list[Op] = []

    def setup(self, probe) -> list[float]:
        times = []
        parser = cli_mod.build_parser()
        for argv, check in self.battery:
            t0 = time.perf_counter()
            args = parser.parse_args(argv)
            times.append(time.perf_counter() - t0)
            self.requests.append((args, check))
        return times

    def run_round(self, r: int, probe) -> list[Op]:
        ops = []
        for i, (args, check) in enumerate(self.requests):
            probe()
            t0 = time.perf_counter()
            try:
                payload = cli_mod.RUNNERS[args.subcommand](args)
            except OP_ERRORS as exc:
                ops.append(Op(time.perf_counter() - t0, i, error=_label(exc)))
                continue
            ops.append(Op(time.perf_counter() - t0, i, {"check": check, "payload": payload}))
        return ops

    def check(self, ops: list[Op]) -> dict:
        for op in ops:
            if not op.error:
                problem = op.record["check"](op.record["payload"])
                if problem:
                    op.error = "check: " + problem
        return {}


# -- batch ----------------------------------------------------------------------------


class Batch(Workload):
    """The paths `synth_stream` leaves out, as one request per round.

    A round runs the compare sweep (a cold `prepare_context` per row, on the
    sweep's thread pool), then an estimate per tuple graph, then the exact
    battery. The estimates and the battery touch no words and no walk
    sampling: they run the Schreier kernel, dense ranking, transition tables
    and partition arithmetic. One operation is one round, as for a client
    asking for the whole report. With one operation per estimate or request,
    a run held two or three samples of each kind, its median operation fell
    on one or two of them, and that median spread by 17% over ten seeds
    where the round total spread by 7%.
    """

    name = "batch"
    expected_calls = CompareSweep.expected_calls + TupleGap.expected_calls + Exact.expected_calls

    def __init__(self, seed: int, workdir: str):
        self.parts = (CompareSweep(seed, workdir), TupleGap(seed, workdir), Exact(seed, workdir))
        self.setup_ops: list[Op] = []

    def setup(self, probe) -> list[float]:
        """One time per tuple graph. Writing the sweep config and parsing the
        battery take microseconds and are left out."""
        sweep, graphs, battery = self.parts
        sweep.setup(probe)
        times = graphs.setup(probe)
        battery.setup(probe)
        self.setup_ops = sweep.setup_ops + graphs.setup_ops + battery.setup_ops
        return times

    def run_round(self, r: int, probe) -> list[Op]:
        requests = [(part.name, part.run_round(r, probe)) for part in self.parts]
        # the round's latency leaves out the probes between its requests
        latency = sum(req.latency_s for _, reqs in requests for req in reqs)
        return [Op(latency, "round", {"requests": requests}, error=_first_error(requests))]

    def check(self, ops: list[Op]) -> dict:
        extras = {}
        for part in self.parts:
            extras.update(part.check([req for op in ops for name, reqs in op.record["requests"]
                                      if name == part.name for req in reqs]))
        part_s: dict[str, list[float]] = {}
        for op in ops:
            op.error = op.error or _first_error(op.record["requests"])
            for name, reqs in op.record["requests"]:
                part_s.setdefault(name, []).append(sum(req.latency_s for req in reqs))
        extras["part_p50_s"] = ({k: statistics.median(v) for k, v in part_s.items()}, "s")
        return extras

    def close(self) -> None:
        for part in self.parts:
            part.close()


def _first_error(requests) -> str:
    return next((req.error for _, reqs in requests for req in reqs if req.error), "")


WORKLOADS = {w.name: w for w in (SynthStream, Batch)}
