"""One benchmark invocation: a fresh interpreter running `slcc.cli.main` once.

Usage: python3 perfbench/child.py <0|1|setup> <slcc argument>...

Mode 0 runs the CLI untraced, 1 traced, and `setup` only imports `slcc.cli`
and exits, as one more set-up sample.

The program is imported from the repository's `src/`.  The CLI's stdout is
captured in memory; the child then prints a single JSON record on its own
stdout with the CLI's exit code and output, its timestamps and its peak RSS.
Untraced, it also samples the host's speed (see hostspeed.py) over two
windows: set-up (start until `slcc.cli` is imported) and the CLI call.
Traced, it records spans and work counters instead.
"""

import time

T_START = time.time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_BURST = 3


def main() -> int:
    mode = sys.argv[1]
    traced = mode == "1"
    argv = sys.argv[2:]
    sampler = None if traced else hostspeed.Sampler()
    if sampler is not None:
        sampler.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import slcc.cli

    t_imported = time.time()
    record = {"t_start": T_START, "t_imported": t_imported}
    tracer = None
    if sampler is not None:
        # the set-up window holds only a few periodic samples, so add a burst
        # right after it; it falls outside both timed windows
        setup = sampler.samples[: sampler.mark()]
        record["setup_probe_s"] = sum(setup)
        record["setup_factor"] = hostspeed.factor(setup + sampler.burst(SETUP_BURST))
        begin = sampler.mark()
        if mode == "setup":
            sampler.stop()
            record["t_end"] = time.time()
            sys.stdout.write(json.dumps(record))
            return 0
    else:
        import spans

        tracer = spans.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = slcc.cli.main(argv)
        t1 = time.perf_counter()
    record.update(t_end=time.time(), wall_raw_s=t1 - t0)
    if sampler is not None:
        sampler.stop()
        window = sampler.samples[begin:]
        record["main_probe_s"] = sum(window)
        record["main_factor"] = hostspeed.factor(window or sampler.burst(SETUP_BURST))
    record.update(
        exit=code,
        stdout=out.getvalue(),
        maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        record["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
