"""The CLI's reports on a fixed matrix of commands, against a golden file.

``scripts/cli_outputs.py`` prints one JSON line per command (verdicts,
statistics, counterexamples, DOT exports and errors, every duration
masked), and ``data/cli_outputs.jsonl`` holds those lines as the package
printed them when the file was last written.  A change to any report
fails here, and regenerating the file shows the change in its diff:

    PYTHONPATH=src python scripts/cli_outputs.py > tests/data/cli_outputs.jsonl
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_outputs.jsonl"


def test_cli_outputs_match_the_golden_file(capsys):
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "scripts" / "cli_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    got = capsys.readouterr().out.splitlines()
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    for line, golden in zip(got, expected):
        assert line == golden, json.loads(golden)["argv"]
    assert len(got) == len(expected)
