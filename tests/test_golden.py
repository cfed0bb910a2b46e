"""Byte-for-byte golden output of the CLI.

``verify --json`` and ``check --json`` for every catalog entry with an
instance file, ``simulate --json`` for two small instances, and four
``search`` runs (n = 4, 5 and 6) must print exactly the bytes stored under
``tests/golden/``.  A run that exits nonzero (the
deliberately invalid ``magic-m16-tilde``) also pins its exit code and
stderr.  To re-record (only when an output change is intended), run
``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from pcgraph import catalog
from pcgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"

SIMULATE_ENTRIES = ("minimal-psi", "minimal-triangle")
SIMULATE_VARIANTS = {
    "state": [],
    "condition-x": ["--condition", "Z1=1", "--observable", "X:2,3"],
    "joint-z": ["--observable", "Z:1,2,3=+1"],
    "shots": ["--shots", "50", "--seed", "3"],
    "y-pair": ["--observable", "Y:1,2"],
    "x-all": ["--observable", "X:1,2,3"],
}
SEARCH_VARIANTS = {
    "n4-e4": ["--n", "4", "--max-edges", "4"],
    "n5-e3-irreducible": ["--n", "5", "--max-edges", "3", "--irreducible-only"],
    "n5-e4-irreducible": ["--n", "5", "--max-edges", "4", "--irreducible-only"],
    "n6-e2": ["--n", "6", "--max-edges", "2"],
}


def _cases() -> list[tuple[str, str | None, list[str]]]:
    """(golden file name, catalog entry id or None, CLI arguments after the file)."""
    cases = [
        (f"{command}-{entry_id}.out", entry_id, [command])
        for command in ("verify", "check")
        for entry_id in catalog.catalog_ids()
        if catalog.get(entry_id).pcg is not None
    ]
    for entry_id in SIMULATE_ENTRIES:
        for variant, extra in SIMULATE_VARIANTS.items():
            cases.append((f"simulate-{entry_id}-{variant}.out", entry_id, ["simulate", *extra]))
    for variant, extra in SEARCH_VARIANTS.items():
        cases.append((f"search-{variant}.out", None, ["search", *extra]))
    return cases


def _render(entry_id: str | None, args: list[str], workdir: Path) -> str:
    """Stdout of one CLI run, followed by exit code and stderr if it failed.

    With an entry id the catalog instance is exported to a file and run
    with ``--json``; without one (``search``) the arguments run as given.
    """
    argv = args
    if entry_id is not None:
        path = workdir / f"{entry_id}.json"
        if not path.exists():
            assert main(["catalog", "export", entry_id, "-o", str(path)]) == 0
        argv = [args[0], str(path), *args[1:], "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        return out.getvalue()
    return f"{out.getvalue()}--- exit {code}, stderr ---\n{err.getvalue()}"


@pytest.mark.parametrize("name,entry_id,args", _cases(), ids=[c[0] for c in _cases()])
def test_cli_json_matches_golden(tmp_path, name, entry_id, args):
    assert _render(entry_id, args, tmp_path) == (GOLDEN / name).read_text()


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, entry_id, args in _cases():
            (GOLDEN / name).write_text(_render(entry_id, args, Path(tmp)))
            print(f"recorded {name}")


if __name__ == "__main__":
    _record()
