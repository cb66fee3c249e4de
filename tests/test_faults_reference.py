"""Frozen fault campaign: byte-identity gate for the bit-exact datapath.

``tests/reference/faults_campaign.json`` is the exact stdout of
``python -m repro faults --count 100 --seed 0 --json``, captured at
``ca49e0e``, before the SRAM model held its rows as words.  Every
injection lands on a seed-addressed write-back or carry-commit event and
is classified against the fault-free oracle, so the file pins both the
SRAM's values and its event stream.  CI's ``fuzz-smoke`` job re-runs that
command (with ``--jobs 2``, which writes the same bytes) and ``cmp``s its
output against the file; this module checks the first 30 injections, one
per (fault model, width) pair, on every Tier-1 run.

Regenerate the file only deliberately, at a commit whose bit-exact path
you trust, and say why in CHANGES.md: run this module as a script
(``PYTHONPATH=src python tests/test_faults_reference.py --write <commit>``)
and update the commit named above.
"""

import contextlib
import json
import os
import sys

from repro.cli import main
from repro.faults.campaign import run_campaign

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference",
                              "faults_campaign.json")

#: The CLI invocation the reference is the stdout of.
COMMAND = ["faults", "--count", "100", "--seed", "0", "--json"]

#: Five fault models round-robined against six widths.
PREFIX = 30


def test_first_injections_match_the_frozen_campaign():
    with open(REFERENCE_PATH) as handle:
        frozen = json.load(handle)
    report = run_campaign(PREFIX, seed=frozen["seed"])
    got = json.loads(json.dumps([o.to_json_dict() for o in report.outcomes]))
    assert got == frozen["outcomes"][:PREFIX]


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_faults_reference.py --write <commit>")
    with open(REFERENCE_PATH, "w") as handle, \
            contextlib.redirect_stdout(handle):
        status = main(COMMAND)
    print(f"captured {REFERENCE_PATH} at {sys.argv[2]}; name that commit "
          "in this module's docstring")
    sys.exit(status)
