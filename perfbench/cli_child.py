"""Run the hdffm CLI as a user does, timing each op at its boundary.

Usage (from a workload, never by hand)::

    python3 perfbench/cli_child.py OPS_FILE FUNCTION hdffm-argv...

``FUNCTION`` is the ``hdffm.cli`` function whose every call is one op
(``_bench_replication`` or ``_forecast_panel``).  It is wrapped before the
CLI runs, so pool workers forked by the CLI inherit the wrapper.  Each op
first runs ``probe()`` on its core, then appends one line ``op_seconds
probe_seconds`` to ``OPS_FILE``; lines are short and the file is opened
for appending, so concurrent workers do not interleave.  Everything else
is ``hdffm.cli.main(argv)`` unchanged.
"""

import functools
import sys
import time

from probe import probe


def main(argv) -> int:
    ops_file, name, cli_argv = argv[0], argv[1], argv[2:]
    from hdffm import cli

    original = getattr(cli, name)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        probe_s = probe()
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        seconds = time.perf_counter() - t0
        with open(ops_file, "a") as fh:
            fh.write(f"{seconds!r} {probe_s!r}\n")
        return result

    setattr(cli, name, timed)  # pickled by name, so pool workers resolve it too
    probe()  # the first call pays one-off page faults; keep them out of the samples
    return cli.main(cli_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
