"""Fresh-process helper for the benchmark; not a user entry point.

  child.py trace SPANS -- ARGV...          run `lactdiff ARGV...` under a Tracer
                                           and write its spans and import time
                                           to SPANS
  child.py setup WORKLOAD SEED DIR         build a workload's inputs in DIR
  child.py draw SEED [SPANS]               build gauss_4x4's denoiser, then for
                                           each operation index read from stdin
                                           run it and print its chains and
                                           draw_samples time as one JSON line;
                                           traced, each operation's spans
                                           replace SPANS before the reply

The exit code is lactdiff's, or 0 for setup and draw.
"""

import json
import sys
from time import perf_counter


def draw(seed, spans_path=None):
    import workloads

    wl = workloads.WORKLOADS["gauss_4x4"]
    model, sched = wl.build(seed)
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer().install()
    while line := sys.stdin.readline():
        index = int(line)
        started = perf_counter()
        chains = wl.draw(model, sched, seed, index)
        wall = perf_counter() - started
        if tracer is not None:
            tracer.dump(spans_path)
        print(json.dumps({"wall": wall, "chains": chains.tolist()}), flush=True)
    if tracer is not None:
        tracer.uninstall()


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import workloads

        workloads.WORKLOADS[argv[1]].setup(int(argv[2]), argv[3])
        return 0
    if mode == "draw":
        draw(int(argv[1]), *argv[2:3])
        return 0
    if mode != "trace" or argv[2] != "--":
        raise SystemExit(f"usage: child.py trace SPANS -- ARGV..., got {argv}")
    started = perf_counter()
    import lactdiff.cli

    import_s = perf_counter() - started
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        rc = lactdiff.cli.main(argv[3:])
    finally:
        tracer.uninstall()
    tracer.dump(argv[1], import_s=import_s, rc=rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
