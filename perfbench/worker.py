"""One workload process: import apn20, set up, and in "measure" mode run the
operation list in a closed loop with one caller.

    python3 perfbench/worker.py ROOT < job.json

ROOT is the checkout whose src/apn20 is measured.  The job (JSON on stdin)
holds the operations, the warm-up command lines, the mode ("setup" or
"measure"), whether to trace, and where to write the spans.  The result is
one JSON object on stdout.  Each operation is one apn20 command line run in
this process through apn20.cli.main, with its stdout and stderr captured.
"""

import contextlib
import io
import os
import resource
import sys
import time
import traceback


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
        except Exception:  # a crash fails this operation, as exit 1 would
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def set_up(job, cli):
    """Fields, towers and embeddings, the parsed input list, and one warm-up
    operation per field: the work a caller does before the first verdict."""
    from apn20.fields import TowerField, parse_field_spec
    from apn20.polys import parse_unipoly

    fields = {}
    for op in job["ops"]:
        if "field" in op and op["field"] not in fields:
            fields[op["field"]] = parse_field_spec(op["field"])
    if job["towers"]:
        for K in fields.values():
            TowerField(K)
    for op in job["ops"]:
        if "poly" in op:
            parse_unipoly(op["poly"], fields[op["field"]])
    for argv in job["warmups"]:
        rc, _, err = run_command(cli, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv} exited {rc}: {err.strip()}")


def main():
    sys.path[:0] = [os.path.join(sys.argv[1], "src"), os.path.dirname(__file__)]
    start = time.perf_counter()
    import apn20.cli as cli

    import_s = time.perf_counter() - start
    import json

    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    set_up(job, cli)
    result = {"import_s": import_s, "setup_s": import_s + time.perf_counter() - start}

    if job["mode"] == "measure":
        latencies, outputs = [], []
        loop_start = time.perf_counter()
        for i, op in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = i
            t = time.perf_counter()
            rc, out, err = run_command(cli, op["argv"])
            latencies.append(time.perf_counter() - t)
            outputs.append({"rc": rc, "stdout": out, "stderr": err})
        result.update(loop_s=time.perf_counter() - loop_start,
                      latencies=latencies, outputs=outputs)
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write(job["trace_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
