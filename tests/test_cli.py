"""CLI contract: envelope schema, payload determinism, exit codes, sweep CSV."""

import csv
import hashlib
import io
import json

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
        "c7fa814250b7aeb8dbd3c0643ccd96c163ba46ae",
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
    capsys.readouterr()


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


def test_mix_exact_builds_tables_once(capsys, monkeypatch):
    # one gather-table build looks up one row block per atom; the strong
    # time, the distance table, t2 and both check_argu passes share it
    from permword import DenseGroup, three_cycle_lazy_measure

    real = DenseGroup.index_rows
    calls = []

    def counting(self, rows):
        calls.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(DenseGroup, "index_rows", counting)
    code, rec = run_record(
        capsys,
        ["mix-exact", "--n", "5", "--group", "alt", "--walk", "3cycles", "--eps", "0.5"],
    )
    assert code == 0 and "argu" in rec["payload"]
    assert len(calls) == len(three_cycle_lazy_measure(5).atoms)


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
    group, m = DenseGroup.alt(5), three_cycle_lazy_measure(5)
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


def test_sweep_empty_range_header_only(capsys, tmp_path):
    cfg = {"subcommand": "gap-exact", "n_range": [5, 4], "seed_range": [0, 0], "params": {}}
    rows = sweep_rows(capsys, cfg, tmp_path)
    assert rows == [["n", "seed", "ok", "error", "payload"]]


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
