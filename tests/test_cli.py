"""CLI contract: envelope schema, payload determinism, exit codes, sweep CSV."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import permword
from permword import cli
from permword.cli import build_id, dispatch

ENVELOPE_KEYS = {
    "subcommand",
    "params",
    "seed",
    "timestamp",
    "build_id",
    "wall_ms",
    "payload",
}


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def run_record(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_gap_exact_payload_golden(capsys):
    code, rec = run_record(capsys, ["gap-exact", "--n", "5"])
    assert code == 0
    assert set(rec) == ENVELOPE_KEYS
    assert rec["subcommand"] == "gap-exact"
    assert rec["params"]["n"] == 5 and rec["params"]["seed"] == 0
    assert rec["payload"] == {
        "n": 5,
        "gap": "3/4",
        "second_eigenvalue": "1/4",
        "attained_at": [[4, 1], [2, 1, 1, 1]],
    }


def test_build_id_is_stable_hex():
    a, b = build_id(), build_id()
    assert a == b
    assert len(a) == 12
    int(a, 16)


def test_build_id_covers_subpackages(tmp_path):
    import shutil

    src = Path(permword.__file__).resolve().parent
    digests = []
    for name in ("before", "after"):
        pkg = tmp_path / name / "permword"
        shutil.copytree(src, pkg, ignore=shutil.ignore_patterns("__pycache__"))
        if name == "after":
            pure = pkg / "kernels" / "pure.py"
            pure.write_text(pure.read_text() + "# edited\n")
        path = os.pathsep.join(filter(None, [str(pkg.parent), os.environ.get("PYTHONPATH")]))
        code = "import permword.cli as c; print(c.__file__); print(c.build_id())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0, out.stderr
        where, digest = out.stdout.split()
        assert Path(where).resolve().parent == pkg.resolve()
        digests.append(digest)
    assert digests[0] != digests[1]


def test_payloads_are_deterministic(capsys):
    argv = ["synth", "--n", "14", "--seed", "3"]
    _, rec1 = run_record(capsys, argv)
    _, rec2 = run_record(capsys, argv)
    assert rec1["payload"] == rec2["payload"]
    assert rec1["payload"]["success"] is True


# sha1 of json.dumps(payload, sort_keys=True) for seeded runs. A change that
# alters the RNG stream or the words on purpose updates these and says so.
PINNED_PAYLOADS = {
    "synth": (
        ["synth", "--n", "14", "--seed", "3", "--emit-word"],
        "708b6827afd19518e2de16da0c3ead616a701509",
    ),
    "shrink": (
        ["shrink", "--n", "100", "--seed", "7"],
        "be0a2282479257cec80ba8eae2b3b9ed0abdc74a",
    ),
    "compare": (
        ["compare", "--n", "12", "--seed", "1", "--mode", "sample:16"],
        "4488123d6834274a3cb0827681e2aa48a69f98a7",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_PAYLOADS))
def test_seeded_payloads_match_pinned_digests(capsys, name):
    argv, digest = PINNED_PAYLOADS[name]
    code, rec = run_record(capsys, argv)
    assert code == 0
    text = json.dumps(rec["payload"], sort_keys=True)
    assert hashlib.sha1(text.encode()).hexdigest() == digest


def test_json_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run(capsys, ["gap-exact", "--n", "6", "--json", str(path)])
    assert code == 0 and out == ""
    rec = json.loads(path.read_text())
    assert rec["payload"]["gap"] == "3/5"


def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, monkeypatch):
    missing = str(tmp_path / "no-such-dir" / "out")
    assert dispatch(["gap-exact", "--n", "5", "--json", missing + ".json"]) == 2
    assert "error:" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"subcommand": "gap-exact", "n_range": [5, 6], "seed_range": [0, 0], "params": {}}
    ))
    ran = []
    monkeypatch.setattr(cli, "_sweep_one", lambda *a: ran.append(a))
    assert dispatch(["sweep", "--config", str(cfg), "--out", missing + ".csv"]) == 2
    assert "error:" in capsys.readouterr().err
    assert ran == []  # --out is opened before any row runs


def test_usage_errors_exit_2(capsys):
    assert dispatch([]) == 2
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["gap-exact"]) == 2  # missing --n
    assert dispatch(["gap-exact", "--n", "76"]) == 2  # over MAX_EXACT_GAP_DEGREE
    assert dispatch(["shrink", "--n", "10", "--seed", "0"]) == 2  # infeasible degree
    assert dispatch(["mix-exact", "--n", "4", "--group", "sym"]) == 2  # parity
    assert dispatch(["mix-exact", "--n", "4", "--table-max", "-1"]) == 2
    assert dispatch(["mix-exact", "--n", "4", "--cap", "-1"]) == 2
    assert dispatch(["schreier-gap", "--n", "6", "--max-iters", "0"]) == 2
    # a nan or negative tol can never be met; nan is not valid JSON either
    assert dispatch(["schreier-gap", "--n", "8", "--ell", "2", "--tol", "nan"]) == 2
    assert dispatch(["schreier-gap", "--n", "8", "--ell", "2", "--tol", "-1"]) == 2
    assert dispatch(["shrink", "--n", "20", "--seed", "0", "--budget-c", "-1"]) == 2
    # the l2 threshold eps/|G| is unreachable for eps <= 0
    mix = ["mix-exact", "--n", "4", "--group", "alt", "--walk", "3cycles", "--cap", "3000"]
    assert dispatch(mix + ["--eps", "0"]) == 2
    assert dispatch(mix + ["--eps", "-0.5"]) == 2
    # orbits of sizes 15 and 1: the pair generates neither Alt(16) nor Sym(16)
    assert dispatch(["synth", "--n", "16", "--seed", "0"]) == 2
    # no 3-cycles below n = 3, so no reference walk
    assert dispatch(["compare", "--n", "1"]) == 2
    assert dispatch(["compare", "--n", "2"]) == 2
    assert dispatch(["compare", "--n", "5", "--mode", "sample:x"]) == 2
    assert dispatch(["compare", "--n", "5", "--mode", "sample:0"]) == 2
    capsys.readouterr()


def test_compare_checks_its_request_before_building_anything(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built before the request was checked")

    monkeypatch.setattr(cli.synth_mod, "prepare_context", refuse)
    monkeypatch.setattr(cli.compare_mod, "reference_measure", refuse)
    assert dispatch(["compare", "--n", "1000", "--seed", "0", "--mode", "bogus"]) == 2
    assert "mode must be" in capsys.readouterr().err
    # sample mode builds no 3-cycle class, so 4 draws at n = 1000 run
    monkeypatch.undo()
    assert dispatch(["compare", "--n", "1000", "--seed", "0", "--mode", "sample:4"]) == 0
    capsys.readouterr()


def test_usage_error_messages_name_the_fault(capsys):
    assert dispatch(["compare", "--n", "5", "--mode", "sample:x"]) == 2
    assert "'sample:M' with M a positive integer" in capsys.readouterr().err
    # an explicit target is parsed before the pair's orbits are examined
    assert dispatch(["synth", "--n", "16", "--seed", "0", "--target", "(1 17)"]) == 2
    assert "out of range 1..16" in capsys.readouterr().err
    # malformed permutation text names the two forms, not int()'s complaint
    assert dispatch(["synth", "--n", "14", "--seed", "0", "--target", "(1,2)"]) == 2
    err = capsys.readouterr().err
    assert '"(1 2 3)(4 5)"' in err and '"5: 2 3 1 4 5"' in err and "invalid literal" not in err


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    assert dispatch(["synth", "--help"]) == 0
    capsys.readouterr()


def test_retry_class_failures_exit_1(capsys):
    # a word-length budget far below any commutator word: the shrink gives up
    code, rec = run_record(
        capsys, ["shrink", "--n", "60", "--seed", "1", "--budget-c", "0.0001"]
    )
    assert code == 1
    assert rec["payload"]["success"] is False
    assert rec["payload"]["error"] == "BudgetExceededError"
    # no commutator step at all: v^l alone (105 symbols) is over a budget of 2
    code, rec = run_record(
        capsys, ["shrink", "--n", "20", "--seed", "0", "--budget-c", "0.001"]
    )
    assert code == 1
    assert rec["payload"]["error"] == "BudgetExceededError"


def check_tables_built_once(capsys, monkeypatch, walk, group, lane):
    # one gather-table build per (measure, state space): the strong time,
    # the distance table, t2 and both check_argu passes share it
    from permword import walk as walk_mod

    real = walk_mod.transition_tables
    seen = []

    def recording(m, space):
        tables = real(m, space)
        seen.append((m, space, tables))
        return tables

    monkeypatch.setattr(walk_mod, "transition_tables", recording)
    code, rec = run_record(
        capsys, ["mix-exact", "--n", "5", "--group", group, "--walk", walk, "--eps", "0.5"]
    )
    assert code == 0 and "argu" in rec["payload"]
    assert len(seen) == 5
    assert len({(id(m), id(space)) for m, space, _ in seen}) == 1
    m, space, tables = seen[0]
    assert type(space).__name__ == lane
    assert all(t is tables for _, _, t in seen)
    assert list(m._tables) == [space]


def test_mix_exact_builds_tables_once(capsys, monkeypatch):
    # a class walk steps the cycle-type space
    check_tables_built_once(capsys, monkeypatch, "3cycles", "alt", "CycleTypeSpace")


def test_mix_exact_builds_dense_tables_once(capsys, monkeypatch):
    # adjacent transpositions are no whole class, so they step the dense group
    check_tables_built_once(capsys, monkeypatch, "adjacent", "sym", "DenseGroup")


def test_mix_exact_payload_shape(capsys):
    code, rec = run_record(
        capsys,
        ["mix-exact", "--n", "4", "--group", "alt", "--walk", "3cycles", "--eps", "0.5"],
    )
    assert code == 0
    p = rec["payload"]
    assert p["strong_mixing_time"] == 5
    assert p["argu"]["ok"] is True
    ks = [row["k"] for row in p["k_vs_distance"]]
    assert ks == list(range(len(ks)))
    l2s = [row["l2"] for row in p["k_vs_distance"]]
    assert all(a >= b - 1e-15 for a, b in zip(l2s, l2s[1:]))

    # a table cap below the strong mixing time truncates the rows, and each
    # row is the distance of the exactly evolved walk
    from permword import DenseGroup, distance_to_uniform, evolve_exact, three_cycle_lazy_measure

    code, rec = run_record(
        capsys,
        ["mix-exact", "--n", "5", "--group", "alt", "--walk", "3cycles", "--table-max", "3"],
    )
    assert code == 0
    p = rec["payload"]
    assert p["strong_mixing_time"] > 3
    assert len(p["k_vs_distance"]) == min(p["strong_mixing_time"], 3) + 1
    group, m = DenseGroup("alt", 5), three_cycle_lazy_measure(5)
    for row in p["k_vs_distance"]:
        assert row["l2"] == distance_to_uniform(evolve_exact(m, group, row["k"]), 2)


def test_mix_exact_custom_generators(capsys):
    code, rec = run_record(
        capsys,
        [
            "mix-exact",
            "--n",
            "4",
            "--group",
            "sym",
            "--walk",
            "custom",
            "--gens",
            "(1 2);(1 2 3 4)",
        ],
    )
    assert code == 0
    assert rec["payload"]["strong_mixing_time"] > 0


def test_mix_exact_custom_rejects_non_generating(capsys):
    code = dispatch(
        ["mix-exact", "--n", "4", "--group", "sym", "--walk", "custom", "--gens", "(1 2)"]
    )
    assert code == 2
    capsys.readouterr()


def test_synth_explicit_target_and_word(capsys):
    code, rec = run_record(
        capsys,
        ["synth", "--n", "14", "--seed", "0", "--target", "(1 2 3)", "--emit-word"],
    )
    assert code == 0
    p = rec["payload"]
    assert p["target"] == "(1 2 3)"
    assert p["success"] is True
    # the emitted word re-evaluates to the target under the seeded pair
    from conftest import seeded_pair
    from permword import evaluate, parse, parse_permutation

    g, h, _ = seeded_pair(14, 0)
    word = parse(p["word"])
    assert evaluate(word, g, h) == parse_permutation("(1 2 3)", degree=14)


def test_compare_payload(capsys):
    code, rec = run_record(capsys, ["compare", "--n", "5", "--seed", "0"])
    assert code == 0
    p = rec["payload"]
    assert p["mode"] == "exact"
    assert p["gap_reference"] == "3/4"
    assert "/" in p["A"]
    assert set(rec["params"]) == {"n", "seed", "mode"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compare_bound_is_below_dense_gap(capsys, seed):
    from conftest import dense_walk_gap, generated_group, seeded_pair
    from permword import lazy_generator_measure

    code, rec = run_record(capsys, ["compare", "--n", "5", "--seed", str(seed), "--mode", "exact"])
    assert code == 0
    g, h, _ = seeded_pair(5, seed)
    group = generated_group(g, h)
    assert rec["payload"]["gap_lower_bound"] <= dense_walk_gap(lazy_generator_measure(g, h), group)


def test_compare_takes_tree_words_up_to_n_10(capsys):
    # below the tuple graph's vertex cap the words are geodesic, not synthesized
    code, rec = run_record(capsys, ["compare", "--n", "9", "--seed", "0", "--mode", "exact"])
    assert code == 0
    assert Fraction(rec["payload"]["A"]) < 1000


def test_schreier_payload(capsys):
    code, rec = run_record(capsys, ["schreier-gap", "--n", "8", "--ell", "2", "--seed", "4"])
    assert code == 0
    p = rec["payload"]
    assert p["num_vertices"] == 56
    assert 0 <= p["gap"] <= 2
    assert p["iterations"] >= 1
    assert p["converged"] is True
    assert p["residual"] <= 1e-8


def sweep_rows(capsys, cfg, tmp_path, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, ["sweep", "--config", str(path)])
    assert code == 0
    return list(csv.reader(io.StringIO(out)))


def test_sweep_orders_rows_and_embeds_payloads(capsys, tmp_path):
    cfg = {"subcommand": "gap-exact", "n_range": [5, 7], "seed_range": [0, 1], "params": {}}
    rows = sweep_rows(capsys, cfg, tmp_path)
    assert rows[0] == ["n", "seed", "ok", "error", "payload"]
    keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
    assert keys == [(n, s) for n in (5, 6, 7) for s in (0, 1)]
    payload = json.loads(rows[1][4])
    assert payload["gap"] == "3/4"


def test_sweep_rejects_reversed_range(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    for key, reversed_range in (("n_range", [19, 16]), ("seed_range", [2, 0])):
        cfg = {"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": {}}
        cfg[key] = reversed_range
        path.write_text(json.dumps(cfg))
        assert dispatch(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "must be a JSON object" in err and f"{key} is {reversed_range}" in err


@pytest.mark.parametrize("key", ["n", "seed", "se"])
def test_sweep_rejects_params_that_relabel_rows(capsys, tmp_path, key):
    # argparse keeps the last --n/--seed (and reads --se as --seed), so such
    # a param would give every row the same payload under its own label
    path = tmp_path / "cfg.json"
    cfg = {"subcommand": "gap-exact", "n_range": [5, 6], "seed_range": [0, 0],
           "params": {key: 9}}
    path.write_text(json.dumps(cfg))
    assert dispatch(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and f"params sets {key!r}" in err


@pytest.mark.parametrize("key", ["n_range", "seed_range"])
def test_sweep_rejects_boolean_range_bound(capsys, tmp_path, key):
    # a JSON boolean passes isinstance(x, int); [true, 3] is not [1, 3]
    path = tmp_path / "cfg.json"
    cfg = {"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": {}}
    cfg[key] = [True, 3]
    path.write_text(json.dumps(cfg))
    assert dispatch(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and f"{key} is [true, 3]" in err


def test_sweep_flags_failed_rows_but_exits_0(capsys, tmp_path):
    cfg = {"subcommand": "shrink", "n_range": [9, 10], "seed_range": [0, 0], "params": {}}
    rows = sweep_rows(capsys, cfg, tmp_path)
    by_n = {int(r[0]): r for r in rows[1:]}
    assert by_n[9][2] == "True"
    assert by_n[10][2] == "False" and "ValueError" in by_n[10][3]
    assert by_n[10][4] == ""


def test_sweep_out_file(capsys, tmp_path):
    cfg = {"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": {}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    code, out = run(capsys, ["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 2 and rows[1][2] == "True"


def test_sweep_rejects_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subcommand": "sweep", "n_range": [1, 1], "seed_range": [0, 0]}))
    assert dispatch(["sweep", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert dispatch(["sweep", "--config", str(missing)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "cfg, fault",
    [
        ([{"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0]}], ""),
        ({"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": ["n"]}, ""),
        ({"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": "x"}, ""),
        ({"subcommand": "gap-exact", "n_range": 5, "seed_range": [0, 0]}, "n_range is 5"),
        ({"subcommand": "gap-exact", "n_range": [5, 5]}, "seed_range is missing"),
        ({"subcommand": "gap-exact", "n_range": [None, 5], "seed_range": [0, 0]},
         "n_range is [null, 5]"),
        ({"n_range": [5, 5], "seed_range": [0, 0], "params": {}}, "subcommand is missing"),
    ],
    ids=["array", "params-list", "params-string", "n-range-int", "no-seed-range", "null-bound",
         "no-subcommand"],
)
def test_sweep_rejects_malformed_config_shape(capsys, tmp_path, cfg, fault):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and fault in err


def test_sweep_flags_unknown_flag_as_usage_error(capsys, tmp_path):
    cfg = {
        "subcommand": "compare", "n_range": [5, 5], "seed_range": [0, 0],
        "params": {"no_such_flag": True},
    }
    rows = sweep_rows(capsys, cfg, tmp_path)
    assert rows[1][2:] == ["False", "usage error", ""]


# -- striped sweep: the caller and forked helpers ------------------------------------


@pytest.fixture
def sweep_workers(monkeypatch):
    """Force the sweep's worker count through the CPU set it reads, so a
    one-CPU host still forks."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")

    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return force


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (config, error column of each row: "" for a row that ran)
MIXED_SWEEPS = [
    # n = 16, seed 0 does not generate
    ({"subcommand": "compare", "n_range": [15, 16], "seed_range": [0, 1],
      "params": {"mode": "sample:4"}},
     ["", "", "ValueError: <g, h> is intransitive", ""]),
    # n = 10 is below shrink's feasible degree
    ({"subcommand": "shrink", "n_range": [9, 10], "seed_range": [0, 1], "params": {}},
     ["", "", "ValueError", "ValueError"]),
    ({"subcommand": "gap-exact", "n_range": [5, 6], "seed_range": [0, 0],
      "params": {"no_such_flag": True}},
     ["usage error", "usage error"]),
]


def test_sweep_csv_is_identical_for_any_worker_count(capsys, tmp_path, sweep_workers):
    path = tmp_path / "cfg.json"
    for cfg, errors in MIXED_SWEEPS:
        path.write_text(json.dumps(cfg))
        texts = []
        for k in (1, 2, 3):
            sweep_workers(k)
            code, out = run(capsys, ["sweep", "--config", str(path)])
            assert code == 0
            texts.append(out)
            assert_no_child_left()
        assert texts[1] == texts[0] and texts[2] == texts[0]
        rows = list(csv.reader(io.StringIO(texts[0])))[1:]
        assert [r[2] for r in rows] == [str(not e) for e in errors]
        assert all(r[3].startswith(e) for r, e in zip(rows, errors))


@pytest.mark.parametrize("n_bad", [6, 5], ids=["helper", "caller"])
def test_sweep_row_exception_fails_the_sweep(capsys, tmp_path, sweep_workers, monkeypatch,
                                             n_bad):
    # rows (5, 0) and (6, 0) on two workers: the caller runs n = 5, the helper n = 6
    sweep_workers(2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"subcommand": "gap-exact", "n_range": [5, 6], "seed_range": [0, 0], "params": {}}
    ))
    real = cli._sweep_one

    def one(parser, sub, n, seed, params):
        if n == n_bad:
            raise TypeError("boom")
        return real(parser, sub, n, seed, params)

    monkeypatch.setattr(cli, "_sweep_one", one)
    with pytest.raises(cli.SweepRowError, match=f"n={n_bad}, seed=0 raised TypeError: boom"):
        dispatch(["sweep", "--config", str(path)])
    assert_no_child_left()
    capsys.readouterr()


def test_sweep_row_exception_exits_nonzero(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"subcommand": "gap-exact", "n_range": [5, 6], "seed_range": [0, 0], "params": {}}
    ))
    code = f"""
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
from permword import cli
real = cli._sweep_one
def one(parser, sub, n, seed, params):
    if n == 6:
        raise TypeError("boom")
    return real(parser, sub, n, seed, params)
cli._sweep_one = one
sys.argv = ["permword", "sweep", "--config", {str(path)!r}]
cli.main()
"""
    root = str(Path(permword.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_var}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "n=6, seed=0 raised TypeError: boom" in proc.stderr


def test_sweep_names_the_rows_of_a_helper_that_died(capsys, tmp_path, sweep_workers,
                                                     monkeypatch):
    sweep_workers(2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"subcommand": "gap-exact", "n_range": [5, 8], "seed_range": [0, 0], "params": {}}
    ))
    caller = os.getpid()
    real = cli._sweep_one

    def one(parser, sub, n, seed, params):
        if n == 8 and os.getpid() != caller:
            os._exit(3)
        return real(parser, sub, n, seed, params)

    monkeypatch.setattr(cli, "_sweep_one", one)
    rows = r"\[\(6, 0\), \(8, 0\)\]"
    with pytest.raises(RuntimeError, match=r"status 3 without sending its rows .* " + rows):
        dispatch(["sweep", "--config", str(path)])
    assert_no_child_left()
    capsys.readouterr()


def test_sweep_on_one_cpu_forks_nothing(capsys, tmp_path, sweep_workers, monkeypatch):
    sweep_workers(1)

    def no_fork():
        raise AssertionError("a one-CPU sweep forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = {"subcommand": "gap-exact", "n_range": [5, 7], "seed_range": [0, 1], "params": {}}
    rows = sweep_rows(capsys, cfg, tmp_path)
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [(n, s) for n in (5, 6, 7) for s in (0, 1)]
