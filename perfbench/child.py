"""Run one tfmotion CLI command in this fresh interpreter and time it.

    python3 perfbench/child.py --result R.json [--trace T.json | --probe]
        [--inv K] [--import-only] -- <tfmotion CLI arguments>

Times ``import tfmotion.cli`` and ``tfmotion.cli.main(argv)`` separately and
writes both to R.json; exits with the command's exit code.  With --probe a
speed probe (speed.py) runs as well, and R.json also gets both times in
reference seconds and the child's mean relative speed.  With --trace the
tracer is installed between the two and its report goes to T.json.  A line
``perfbench: import done`` on stderr separates import-time output
(``python -X importtime``) from the command's own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from speed import SpeedProbe


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--inv", type=int, default=0)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--probe", action="store_true")
    opts = ap.parse_args(argv[:sep])
    cli_argv = argv[sep + 1:]

    probe = SpeedProbe() if opts.probe and not opts.trace else None
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    import tfmotion.cli
    t_import = time.perf_counter()
    rec = {"import_s": t_import - t0, "module": tfmotion.cli.__file__}
    print("perfbench: import done", file=sys.stderr, flush=True)
    rc = 0
    if not opts.import_only:
        tracer = None
        if opts.trace:
            import tracing
            tracer = tracing.Tracer(opts.inv)
            tracer.install()
        t1 = time.perf_counter()
        try:
            rc = tfmotion.cli.main(cli_argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        t2 = time.perf_counter()
        rec["main_s"] = t2 - t1
        if tracer is not None and rc == 0:
            with open(opts.trace, "w") as fh:
                json.dump(tracer.report(), fh)
    if probe is not None:
        probe.stop()
        t_end = probe.samples[-1][0]
        rec["import_ref_s"] = probe.ref_seconds(t0, t_import)
        if "main_s" in rec:
            rec["main_ref_s"] = probe.ref_seconds(t1, t2)
        rec["speed"] = probe.ref_seconds(t0, t_end) / (t_end - t0)
        rec["probes"] = len(probe.samples)
    rec["rc"] = rc
    with open(opts.result, "w") as fh:
        json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
