"""Run one qclifford command with the layer tracer installed.

Usage: python cli_shim.py PREFIX ARGS...

ARGS are what `python -m qclifford` takes.  The shim installs the tracer,
calls qclifford.cli.main(ARGS), writes the spans to PREFIX<pid>.bin and
PREFIX<pid>.json, and exits with main's exit code.
"""

import os
import sys

import tracing

import qclifford.cli


def main():
    prefix, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = qclifford.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump("%s%d" % (prefix, os.getpid()))
    return code


if __name__ == "__main__":
    sys.exit(main())
