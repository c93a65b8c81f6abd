"""Print the CLI's output on a fixed matrix of commands, one JSON line each.

Runs ``orbitmc.cli.run`` in process, with ``StringIO`` streams for
standard output and standard error, on every builtin at n = 2, 3 and 4:

* ``check`` in each mode, text and JSON, with ``AG !bad``, ``EF bad``,
  ``AG (bad -> AF !bad)``, ``EG !bad``, ``AF bad``, ``E[!bad U bad]``
  and ``AG init``;
* ``check --bound 7`` with ``AG !bad`` in each mode;
* ``reach``, ``reach --stop-at-bad`` and ``export-dot`` in each mode;
* ``compare``.

Each line holds ``argv``, ``exit``, ``stdout`` and ``stderr``, with
every ``duration_ms`` value replaced by ``*``, so two versions of the
package that report the same things print the same bytes: diff the
output of two checkouts to see what a change does to the reports.

Usage: PYTHONPATH=src python scripts/cli_outputs.py > outputs.jsonl
"""

import io
import json
import re

from orbitmc.cli import MODES, build_config, run
from orbitmc.parser import BUILTIN_NAMES

SIZES = (2, 3, 4)
PROPS = (
    "AG !bad",
    "EF bad",
    "AG (bad -> AF !bad)",
    "EG !bad",
    "AF bad",
    "E[!bad U bad]",
    "AG init",
)
DURATION = re.compile(r'(duration_ms"?(?:: |=))[^,\s]+')


def commands():
    for name in BUILTIN_NAMES:
        for n in SIZES:
            model = ["--builtin", f"{name}:{n}"]
            for mode in MODES:
                moded = model + ["--mode", mode]
                for prop in PROPS:
                    for fmt in ("text", "json"):
                        yield ["check", *moded, "--prop", prop, "--format", fmt]
                yield ["check", *moded, "--prop", "AG !bad", "--bound", "7"]
                yield ["reach", *moded]
                yield ["reach", *moded, "--stop-at-bad"]
                yield ["export-dot", *moded]
            yield ["compare", *model]


def main():
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        code = run(build_config(argv), out, err)
        line = {
            "argv": argv,
            "exit": code,
            "stdout": DURATION.sub(r"\1*", out.getvalue()),
            "stderr": DURATION.sub(r"\1*", err.getvalue()),
        }
        print(json.dumps(line))


if __name__ == "__main__":
    main()
