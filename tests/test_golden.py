"""Golden CLI outputs: every preset and one sweep per swept parameter, byte for byte.

The files under ``tests/golden/`` are written by ``tests/golden/regenerate.py``;
a change that moves output bytes on purpose regenerates them and says so.
"""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

from otdetect import sweep
from test_sweep import assert_no_child_left

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

# The Monte-Carlo columns depend only on numpy's Philox and standard_normal
# streams and on IEEE arithmetic, so they must match exactly.  These columns
# go through scipy.special (erfc, bdtr, gammaln) or libm, which another build
# may round differently in the last place; they are compared to rtol 1e-12.
ANALYTIC_COLUMNS = frozenset({"pe_analytic", "ns_lb", "ns_ub", "dc", "d_star"})


def read_table(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def assert_same_table(got: Path, want: Path) -> None:
    got_rows, want_rows = read_table(got), read_table(want)
    header = want_rows[0]
    assert got_rows[0] == header, got.name
    assert len(got_rows) == len(want_rows), got.name
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        assert len(got_row) == len(header), got.name
        for column, g, w in zip(header, got_row, want_row):
            if column in ANALYTIC_COLUMNS and "NA" not in (g, w):
                assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0), (
                    got.name, column, g, w
                )
            else:
                assert g == w, (got.name, column)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_cli_outputs_match_golden_files(capsys, tmp_path, monkeypatch, workers):
    # As many usable CPUs as workers, so that every count forks even on a
    # one-CPU machine.  With 3 processes a preset's shares cross the
    # boundary between its curves.
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: workers)
    regenerate.write_outputs(tmp_path, workers)
    capsys.readouterr()
    assert_no_child_left()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in GOLDEN_DIR.iterdir() if p.suffix in (".csv", ".json"))
    for name in names:
        if name.endswith(".meta.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
        else:
            assert_same_table(tmp_path / name, GOLDEN_DIR / name)
