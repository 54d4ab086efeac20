"""The measured process: set up one workload, then run timed rounds.

Started by `run.py`, never by hand.  It prints one JSON line on stdout.  It
always holds `ready`, the time.monotonic() at which set-up ended, and
`setup_units`, calibration times taken right after set-up (calibrate.py).
With --setup-only it stops there.

Otherwise it starts rounds until --seconds have passed and MIN_ROUNDS have
run, and finishes the last one.  It adds each passing round's wall time and
its time in reference seconds: the sum of its steps, each scaled by the
calibration times taken right before and after it.  It also adds the number
of rounds attempted and failed, whether every completed round passed its
checks, and the peak resident set size.  With --trace it adds the per-layer
figures and writes the spans to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

#: a run holds at least this many rounds, so that its median rests on several
MIN_ROUNDS = 4

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import frontforge  # noqa: F401  (timed as part of set-up)

    import calibrate
    import workloads

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        tracer = workloads.NoTracer()

    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    if args.trace:
        span = tracer.begin("setup")
        wl.setup()
        tracer.end(span)
    else:
        wl.setup()
    ready = time.monotonic()
    result = {"ready": ready, "setup_units": calibrate.sample(2 * calibrate.REPS)}
    if args.setup_only:
        print(json.dumps(result), flush=True)
        return 0

    deadline = ready + args.seconds
    walls: list[float] = []  # wall seconds of each passing round
    scaled: list[float] = []  # the same in reference seconds
    attempted = failed = 0
    correct = True
    while attempted < MIN_ROUNDS or time.monotonic() < deadline:
        inputs = wl.inputs(attempted)
        steps = wl.run(inputs)
        results: list | None = []
        wall = ref = 0.0
        units = calibrate.sample()
        while True:
            span = tracer.begin(attempted) if args.trace else None
            t0 = time.perf_counter()
            try:
                results.append(next(steps))
            except StopIteration:
                break
            except Exception:
                traceback.print_exc()
                results = None
                break
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    tracer.end(span)
            after = calibrate.sample()
            wall += elapsed
            ref += calibrate.scaled(elapsed, units + after)
            units = after
        attempted += 1
        if results is None:
            failed += 1
            continue
        try:
            bad = wl.check(inputs, results)
        except Exception as exc:
            traceback.print_exc()
            bad = [f"check raised {exc!r}"]
        if bad:
            for msg in bad:
                print(f"round {attempted - 1} failed a check: {msg}", file=sys.stderr)
            failed += 1
            correct = False
            continue
        walls.append(wall)
        scaled.append(ref)

    result.update(
        walls=walls,
        scaled=scaled,
        attempted=attempted,
        failed=failed,
        correct=correct,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed, "rounds": attempted})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
