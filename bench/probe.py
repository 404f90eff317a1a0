"""Set-up probe, run in a fresh interpreter by ``run.py``.

``probe.py inprocess`` reads a config from stdin; ``probe.py cli <file>``
takes a config file.  Either way it times the import of the package (or
of ``flagcones.cli``) plus one warm-up item, and prints one JSON line:
the seconds taken and the file the package was imported from.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    mode = argv[0]
    text = sys.stdin.read() if mode == "inprocess" else None
    start = perf_counter()
    if mode == "inprocess":
        from flagcones import config, report

        doc = report.parse_machine(report.render_machine(report.run(config.parse_config(text))))
        report.render_human(doc)
        import flagcones as package
    else:
        from flagcones import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["seshadri", "--machine", argv[1]])
        package = sys.modules["flagcones"]
    elapsed = perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "file": package.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
