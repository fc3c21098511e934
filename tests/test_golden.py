"""Byte-for-byte golden outputs of the command line front end.

Each file in ``tests/golden`` holds a list of records
``{"argv", "exit", "stdout", "stderr"}``.  The test replays every
``argv`` through ``knotslopes.cli.main`` and compares exit code and
both streams exactly.  Every command runs with the bundled sequence
directory as working directory, so ``fit --input`` records name bare
``.seq`` files.

Record the corpus again (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

import knotslopes
from knotslopes.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

NAMED = ["12a_669", "3_1", "8_17", "8_19", "8_20", "8_21", "9_42", "9_43",
         "9_44", "9_45", "9_46", "9_47", "9_48", "9_49", "pretzel_2_3_5_5",
         "pretzel_2_5_3_5"]
SPECS = (["name:" + key for key in NAMED] + ["mirror:name:8_19"]
         + ["torus:2,3", "torus:2,5", "torus:2,7", "torus:3,4", "torus:3,5",
            "torus:4,5", "mirror:torus:2,3", "mirror:torus:3,4"]
         + ["alt:3,0,2,3", "mirror:alt:3,0,2,3", "alt:2,2,3,3",
            "alt:5,0,2,5", "alt:0,5,5,2"]
         + ["pretzel:-2,3,%d" % p for p in range(-15, 20, 2)]
         + ["mirror:pretzel:-2,3,7"])


def _sequence_dir():
    return os.path.join(os.path.dirname(knotslopes.__file__), "data",
                        "sequences")


def corpus():
    """The recorded commands, by golden file name."""
    seqs = sorted(os.listdir(_sequence_dir()))
    return {
        "verify": [["verify", "--all", "--json"], ["verify", "--all"]],
        "specs": [[cmd, spec, "--json"] for spec in SPECS
                  for cmd in ("report", "slopes", "fit")],
        "sequences": [["fit", "--input", name, "--json"] for name in seqs
                      if name.endswith(".seq")],
    }


def run(argv):
    """One CLI invocation as a golden record."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(_sequence_dir())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _path(name):
    return os.path.join(GOLDEN_DIR, name + ".json")


@pytest.mark.parametrize("name", sorted(corpus()))
def test_golden_outputs_match(name):
    with open(_path(name), encoding="utf-8") as fh:
        records = json.load(fh)
    assert [r["argv"] for r in records] == corpus()[name]
    changed = [" ".join(r["argv"]) for r in records if run(r["argv"]) != r]
    assert not changed, "outputs differ from %s.json: %s" % (name, changed)


def record():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, commands in corpus().items():
        records = [run(argv) for argv in commands]
        with open(_path(name), "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("%s: %d commands" % (name, len(records)))


if __name__ == "__main__":
    record()
