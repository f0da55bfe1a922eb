"""Golden transcripts: the stdout of `main(argv)` is pinned byte for byte.

The files under tests/golden/ and the digests below hold the CLI's output,
so any change in what it prints shows up here.  A deliberate output change
regenerates the file and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from k3mukai.cli import main

GOLDEN = Path(__file__).parent / "golden"

TRANSCRIPTS = {
    "verify_paper_g3_n2.txt": ["verify-paper", "--g", "3", "--n", "2"],
    "verify_paper_g3_n2.ndjson": ["verify-paper", "--g", "3", "--n", "2", "--json"],
    "dual_g2_n2.txt": ["dual", "--g", "2", "--n", "2"],
    "dual_g2_n2.ndjson": ["dual", "--g", "2", "--n", "2", "--json"],
    "dual_g3_n4_k6.ndjson": [
        "dual", "--g", "3", "--n", "4", "--k-min", "-6", "--k-max", "6", "--json",
    ],
}

# full 2 <= g, n <= 10 ledger: 7,220 records, 1,144,271 bytes as NDJSON
FULL_GRID_JSON_SHA256 = "af5bc0f8b3589253f909eccdb8bf95cdf8f91f9aa74368362a08725c8202f9b5"
FULL_GRID_TABLE_SHA256 = "34b379d6622056284c7badc3641da4953f2236277274b23e8f318f7e36d5af32"


def stdout_of(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_matches(capsys, name):
    expected = (GOLDEN / name).read_bytes()
    assert stdout_of(capsys, TRANSCRIPTS[name]).encode() == expected


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify-paper", "--json"], FULL_GRID_JSON_SHA256),
        (["verify-paper"], FULL_GRID_TABLE_SHA256),
    ],
    ids=["json", "table"],
)
def test_full_grid_digest(capsys, argv, digest):
    out = stdout_of(capsys, argv).encode()
    assert hashlib.sha256(out).hexdigest() == digest
