import numpy as np
import pytest

from permword import DenseGroup, Permutation, random_uniform
from permword.walk import generated_mask

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def perm_from_cycles(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))
