"""Traced stand-in for `python -m tropmaps.cli`: installs the trace wrappers,
runs cli.main under one request span and writes the spans out.

  python3 perfbench/cli_shim.py SPANS_FILE|- tropmaps-args...

With "-" as the spans file the wrappers are installed and spans are dropped.
"""

import sys

import tracer as tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from tropmaps import cli
    tracer.on = True
    frame = tracer.start("request", {"label": "request:" + argv[0], "op": argv[0]})
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    tracer.end(frame)
    tracer.on = False
    sys.stdout.flush()
    if spans_path != "-":
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
