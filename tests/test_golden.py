"""Byte-for-byte pins on the CLI's build and analyze outputs.

The fixture holds the sha256 of every output for n <= 5, all three coin
constructions and random-field seeds 0 and 1.  A change that alters any of
these bytes on purpose updates the fixture and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coinwalk.cli import main

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden_sha256.json").read_text())["outputs"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("construction", ["naive", "walsh", "linear"])
def test_build_and_analyze_outputs_match_golden_hashes(construction, n, seed, tmp_path, capsys):
    spec, doc, qasm = tmp_path / "spec.json", tmp_path / "c.json", tmp_path / "c.qasm"
    spec.write_text(json.dumps({"n": n, "kind": "k-params", "seed": seed}))
    argv = ["build", "--construction", construction, "--coin", str(spec), "--out", str(doc), "--qasm", str(qasm)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["analyze", "--circuit", str(doc), "--compile"]) == 0
    key = f"{construction}-n{n}-s{seed}"
    got = {
        f"{key}.json": sha256(doc.read_bytes()),
        f"{key}.qasm": sha256(qasm.read_bytes()),
        f"{key}.analyze": sha256(capsys.readouterr().out.encode()),
    }
    assert got == {name: GOLDEN[name] for name in got}
