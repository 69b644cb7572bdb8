"""CLI contract: envelope schema, payload determinism, exit codes, sweep CSV."""

import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

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
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import permword

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
        "d1d60ccc19c866736c1861b9d10800436bb80625",
    ),
    "shrink": (
        ["shrink", "--n", "100", "--seed", "7"],
        "6821aa2068d1a947a9cb972e802f02cf88066919",
    ),
    "compare": (
        ["compare", "--n", "12", "--seed", "1", "--mode", "sample:16"],
        "670841aa5a6f193bdf7bbf3ec2e7b59c412d4b5d",
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


def test_usage_error_messages_name_the_fault(capsys):
    assert dispatch(["compare", "--n", "5", "--mode", "sample:x"]) == 2
    assert "'sample:M' with M a positive integer" in capsys.readouterr().err
    # an explicit target is parsed before the pair's orbits are examined
    assert dispatch(["synth", "--n", "16", "--seed", "0", "--target", "(1 17)"]) == 2
    assert "out of range 1..16" in capsys.readouterr().err


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
    from conftest import generated_group, seeded_pair
    from permword import lazy_generator_measure
    from permword.compare import dense_walk_gap

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
    "cfg",
    [
        [{"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0]}],
        {"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": ["n"]},
        {"subcommand": "gap-exact", "n_range": [5, 5], "seed_range": [0, 0], "params": "x"},
        {"subcommand": "gap-exact", "n_range": 5, "seed_range": [0, 0]},
        {"subcommand": "gap-exact", "n_range": [5, 5]},
        {"subcommand": "gap-exact", "n_range": [None, 5], "seed_range": [0, 0]},
    ],
    ids=["array", "params-list", "params-string", "n-range-int", "no-seed-range", "null-bound"],
)
def test_sweep_rejects_malformed_config_shape(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["sweep", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_sweep_flags_unknown_flag_as_usage_error(capsys, tmp_path):
    cfg = {
        "subcommand": "compare", "n_range": [5, 5], "seed_range": [0, 0],
        "params": {"no_such_flag": True},
    }
    rows = sweep_rows(capsys, cfg, tmp_path)
    assert rows[1][2:] == ["False", "usage error", ""]
