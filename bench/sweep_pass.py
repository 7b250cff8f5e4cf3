"""One pass of the ``sweep`` workload: library calls like a figure script.

Usage:
    python3 bench/sweep_pass.py --setup-only
    python3 bench/sweep_pass.py SPEC_JSON OUT_JSON [SPAN_FILE]

SPEC_JSON lists the (n, p, P, pair) points. Each point calls the float
``expected_spread_table``, ``expected_spread_two_param`` for e0 (both
arms), e2 and e3, and ``expected_spread_conditional`` for both conditions.
Import and one warm-up call on a size the grid never uses come first and
are not timed; ``--setup-only`` stops after them. OUT_JSON receives every
returned value and the wall and CPU time of each call; the caller checks
the values.
With SPAN_FILE the calls run traced.
"""

import json
import sys
import time


def main() -> int:
    import freechoice as fc

    fc.expected_spread_table(5, 0.5)
    if sys.argv[1] == "--setup-only":
        return 0
    spec_path, out_path = sys.argv[1], sys.argv[2]
    recorder = None
    if len(sys.argv) > 3:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    with open(spec_path) as handle:
        points = json.load(handle)

    results = []

    def timed(call, fn, n, *args, **kwargs):
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            value = fn(n, *args, **kwargs)
        except Exception as exc:  # reported to the caller as a failed call
            value, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        results.append({"call": f"{call}.n{n}", "seconds": time.perf_counter() - start,
                        "cpu_s": time.process_time() - start_cpu, "error": error})
        return value

    out = []
    for point in points:
        n, p, P, pair = point["n"], point["p"], point["P"], tuple(point["pair"])
        table = timed("table", fc.expected_spread_table, n, p)
        values = {
            "table": None if table is None else [[q.i, q.j, v] for q, v in table.values.items()]
        }
        for design in ("e0-experimental", "e0-control"):
            values[design] = timed("two_param", fc.expected_spread_two_param, n, p, P, design, pair=pair)
        for design in ("e2", "e3"):
            values[design] = timed("two_param", fc.expected_spread_two_param, n, p, P, design)
        for condition in ("consistent", "reversal"):
            values[condition] = timed(
                "conditional", fc.expected_spread_conditional, n, p, pair, condition
            )
        out.append({"point": point, "values": values})

    if recorder is not None:
        recorder.write(sys.argv[3])
    with open(out_path, "w") as handle:
        json.dump({"calls": results, "points": out}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
