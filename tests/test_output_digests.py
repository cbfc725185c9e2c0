"""Byte-identity pins for outputs that the demo digests do not cover.

Each digest is the sha256 of a command's standard output, or of the JSON of
a report, on seeded random cages over Q.  These paths reach exact
elimination at rank-deficient degrees (Hilbert tables of the full grid, the
fubini slices, Cayley-Bacharach and the counterexample's kernels), so a
change to any rank, kernel basis or report shows here.
"""

import hashlib
import json
import random

import pytest

from cagekit import cayley_bacharach_check, random_cage
from cagekit.cli import main
from cagekit.serialize import cage_to_json, report_to_json

# (n, d) -> random_cage seed
CAGES = {(2, 5): 205, (3, 3): 303}

CLI_DIGESTS = {
    ("hilbert", 2, 5):
        "ec1e1cc7f8e874eaa111c1ed3fe91e385a7e4ad759a8231676f9b176e0b03883",
    ("verify", 2, 5):
        "ef3cf794e5ad5d503135f39e37b8285a5d1d1c449c01ffb878efa00e909df622",
    ("hilbert", 3, 3):
        "b7c4baac7a97f28e92a6ead3129da01c95b2ed4b64b42aed0faa776e5bac6258",
    ("verify", 3, 3):
        "365b7cc85237a9c6464c5cc4cb7391e3bba0c4ffa7a3801cabada80a1f02403b",
}

COUNTEREXAMPLE_DIGEST = (
    "d3ba40dac533db6477d44c86b511d436ed6eab93df371369f7f7496c4e4f5f7c")

CAYLEY_BACHARACH_DIGEST = (
    "8c7c38af7bec66c686d1102db739b13c84ded3f17b5e387e1d8d38feb739c3fd")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(capsys, argv):
    assert main(argv) == 0
    return sha256(capsys.readouterr().out)


@pytest.mark.parametrize("command, n, d", sorted(CLI_DIGESTS))
def test_cli_output_is_unchanged(tmp_path, capsys, command, n, d):
    path = tmp_path / "cage.json"
    path.write_text(json.dumps(cage_to_json(random_cage(CAGES[n, d], d, n))))
    if command == "hilbert":
        argv = ["hilbert", "--cage", str(path), "--max-k",
                str(n * (d - 1) + 1), "--selection", "all"]
    else:
        argv = ["verify", "--cage", str(path), "--checks", "all",
                "--no-timestamp"]
    assert cli_digest(capsys, argv) == CLI_DIGESTS[command, n, d]


def test_counterexample_output_is_unchanged(capsys):
    assert cli_digest(capsys, ["counterexample", "--no-timestamp"]) \
        == COUNTEREXAMPLE_DIGEST


def test_cayley_bacharach_reports_are_unchanged():
    # every degree 0..2d-3 of a seeded bipartition of the (2,5) cage
    cage = random_cage(CAGES[2, 5], 5, 2)
    indices = [nd.index for nd in cage.nodes()]
    chosen = set(random.Random(5).sample(indices, 12))
    part = ([i for i in indices if i in chosen],
            [i for i in indices if i not in chosen])
    reports = [report_to_json(cayley_bacharach_check(cage, part, k))
               for k in range(2 * cage.d - 2)]
    assert sha256(json.dumps(reports)) == CAYLEY_BACHARACH_DIGEST
