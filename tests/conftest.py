import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import permword
from permword import DenseGroup, Permutation, random_uniform
from permword.walk import gather_matrix, generated_mask, transition_tables

acceptance_lines = []


def record_criterion(ok: bool, label: str) -> bool:
    """Collect one PASS/FAIL line per acceptance criterion; printed in the
    terminal summary so capture does not swallow them."""
    acceptance_lines.append(f"{'PASS' if ok else 'FAIL'}  {label}")
    return ok


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def seeded_pair(n: int, seed: int):
    """The pair every seeded CLI run starts from: two uniform draws."""
    rng = np.random.default_rng(seed)
    return random_uniform(n, rng), random_uniform(n, rng), rng


def generated_group(g, h):
    """The dense group a pair should generate (Alt(n) when both are even,
    else Sym(n)), or None when the reachability mask shows it does not."""
    group = DenseGroup("alt" if g.is_even() and h.is_even() else "sym", g.degree)
    return group if generated_mask([g, h], group).all() else None


def dense_walk_gap(m, group) -> float:
    """Ordering spectral gap 1 - lambda_2 of a symmetric measure's walk,
    by dense eigensolve over an enumerated group (oracle-sized groups)."""
    eig = np.linalg.eigvalsh(gather_matrix(*transition_tables(m, group)))
    return float(1.0 - eig[-2])


def dense_adjacency(graph) -> np.ndarray:
    """A TupleGraph's normalized adjacency as an explicit matrix, for
    oracle-sized graphs only."""
    if graph.num_vertices > 20_000:
        raise ValueError("dense form too large")
    return gather_matrix(graph.neighbors, np.full(4, 0.25))


def dense_block(block) -> np.ndarray:
    """One symmetry block of a TupleGraph's normalized adjacency as an
    explicit matrix, constants kept: a table entry at or past the block's
    size is a step into the negated copy, worth -1/4."""
    flips, cols = np.divmod(block.table, block.size)
    M = np.zeros((block.size, block.size))
    rows = np.broadcast_to(np.arange(block.size), block.table.shape)
    np.add.at(M, (rows, cols), 0.25 - 0.5 * flips)
    return M


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def perm_from_cycles(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def run_python_O(code: str) -> list[str]:
    """stdout words of `code` run in a python -O child (asserts stripped),
    with the permword copy this process imported first."""
    root = str(Path(permword.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()
