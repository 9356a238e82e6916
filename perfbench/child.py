"""One benchmark run in a fresh interpreter.

Times the set-up every CLI call pays (``import hammerline`` and
``load_scenario``), then runs one command through ``hammerline.cli.main``
and times it.  The run's figures go to the JSON file named by --result;
the CLI's own output goes to this process's stdout.

    python3 perfbench/child.py --src SRC --scenario FILE --result OUT.json
        [--setup-only | --trace SPANS.json] -- CLI ARGS...

Set-up ends at a CLOCK_MONOTONIC reading, which the parent compares with
its own reading taken just before it started this process; the clock is
shared by all processes of the machine.
"""

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS_JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import hammerline
    t1 = time.perf_counter()
    hammerline.load_scenario(args.scenario)
    result = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC),
              "import_s": t1 - t0}

    exit_code = 0
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        c0 = time.perf_counter()
        exit_code = hammerline.cli.main(cli_args)
        c1 = time.perf_counter()
        result.update(command_s=c1 - c0, exit_code=exit_code)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.dump(args.trace)
    # ru_maxrss is in kilobytes on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
