"""Golden gate: one sha256 over every document the tool renders.

The digest covers the machine and human renderings of the 13 gallery
fixtures (full, cones-only and filtration-only reports), of 1000 seeded
random configs, and the ``examples --machine`` and
``selftest --machine --trials 5`` CLI output.  It was recorded before the
machine codec was rewritten, so any change to an output byte fails here.
"""

import hashlib
import random

from flagcones import builtin_examples, render_human, render_machine, run, run_cones, run_hn
from flagcones.cli import main
from flagcones.selftest import random_config

GOLDEN_SHA256 = "b661fafb665298c9eb849f700f71dac0c79cdcc1891f50531ce1242876bee194"
SEED = 20230329
RANDOM_CONFIGS = 1000


def _documents():
    for fixture in builtin_examples():
        for runner in (run, run_cones, run_hn):
            yield runner(fixture.config)
    rng = random.Random(SEED)
    for _ in range(RANDOM_CONFIGS):
        yield run(random_config(rng))


def test_output_bytes_unchanged(capsys):
    digest = hashlib.sha256()
    for doc in _documents():
        digest.update(render_machine(doc).encode("utf-8"))
        digest.update(render_human(doc).encode("utf-8"))
    for argv in (["examples", "--machine"], ["selftest", "--machine", "--trials", "5"]):
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_SHA256
