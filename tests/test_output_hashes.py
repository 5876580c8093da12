"""The determinism contract, checked on every run: `tests/output_hashes.py`
prints the committed `tests/output_hashes.txt` byte for byte. A change that
moves an output's bytes regenerates the file

    python tests/output_hashes.py > tests/output_hashes.txt

and explains each moved line."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_output_hashes_match_the_committed_file():
    proc = subprocess.run([sys.executable, str(HERE / "output_hashes.py")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == (HERE / "output_hashes.txt").read_text(encoding="utf-8")
