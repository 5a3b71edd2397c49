"""Golden corpus: the SHA-256 of every output file of a small run matrix.

``tests/golden.json`` pins the bytes that ``masksim simulate`` and
``masksim hil-replay`` write for 40 agents x 60 steps with the agent trace
on: each escrow policy in controller mode, fixed mode, and a controller
run with one agent replayed from a synthesised sensor capture.
``summary.json`` is pinned without its wall-clock ``duration_s``.

Regenerate the corpus only when a change alters output bytes on purpose,
and say which files changed and why:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from masksim.cli import main
from masksim.sensing import synth_stream

GOLDEN = Path(__file__).with_name("golden.json")

BASE = {"version": 1, "seed": 5, "steps": 60,
        "world": {"n_agents": 40, "initial_infected": 2},
        "outputs": {"agent_trace": True}}
POLICIES = ["fixed_penalty", "adaptive", "adaptive_with_return",
            "event_driven"]
CASES = {
    **{f"controller-{p}": {"world": {"mask_mode": "controller"},
                           "escrow": {"policy": p}} for p in POLICIES},
    "fixed": {"world": {"mask_mode": "fixed", "mask_fraction": 0.5}},
    "hil-replay": {"world": {"mask_mode": "controller"},
                   "escrow": {"policy": "adaptive_with_return"}},
}
# worn, off, worn: the detector emits 101 bits, enough for 60 steps
CAPTURE = [(40, True), (30, False), (40, True)]


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        doc = json.loads(data)
        del doc["duration_s"]
        data = json.dumps(doc, indent=1, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, work: Path) -> dict[str, str]:
    """Run one case through the CLI; returns file name -> SHA-256."""
    doc = {**BASE, **CASES[name],
           "world": {**BASE["world"], **CASES[name]["world"]}}
    config = work / f"{name}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = work / name
    if name == "hil-replay":
        replay = work / "capture.csv"
        samples = synth_stream(CAPTURE, np.random.default_rng(8))
        replay.write_text("t,eco2_ppm,tvoc_ppb\n" + "".join(
            f"{s.t},{s.eco2!r},{s.tvoc!r}\n" for s in samples),
            encoding="utf-8")
        argv = ["hil-replay", str(config), str(replay)]
    else:
        argv = ["simulate", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out-dir", str(out)])
    assert code == 0, f"{name}: masksim exited {code}"
    return {p.name: _file_digest(p) for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden_corpus(tmp_path, name):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == want


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {name: run_case(name, Path(tmp)) for name in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}: {sum(map(len, corpus.values()))} digests")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
