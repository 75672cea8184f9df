"""Launch ``repro-uhd`` from this checkout, optionally with span wrappers.

Usage: ``python3 perfbench/daemon.py [--trace-dir DIR] -- serve ARGS...``

With ``--trace-dir`` the wrappers of :mod:`spans` are installed before
``repro.cli.main`` runs; forked workers inherit them, and every process
writes ``DIR/spans-<pid>.json`` when it exits.
"""

from __future__ import annotations

import sys

from common import use_checkout_source


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_checkout_source()
    import repro.cli

    if trace_dir is not None:
        from spans import Tracer, install_server

        tracer = Tracer(trace_dir)
        install_server(tracer)
        tracer.write_at_exit()
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
