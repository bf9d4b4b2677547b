"""Child process of the tsakit benchmark; runs ``tsakit.cli.main`` in-process.

    worker.py serve [--trace SPANS]   warm worker: one JSON command per stdin
                                      line, one JSON reply per stdout line
    worker.py once SPANS OP ARGV...   one traced CLI call in a fresh process

Both modes stamp the monotonic clock at start and after ``import tsakit.cli``
(``once`` also just before exit); the clock is shared by all processes, so the
parent can split a process's life into interpreter start, import, the traced
CLI call and interpreter exit.
"""
import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tsakit.cli  # noqa: E402

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import tracer as tracing  # noqa: E402


def _run_op(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = tsakit.cli.main(argv)
        except Exception:  # an escaped exception is a failed op, not a dead worker
            traceback.print_exc()
            rc = -1
    return rc, err.getvalue()


def serve(spans: str | None) -> None:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")  # the CLI's own stdout goes nowhere

    def reply(obj) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    tracer = None
    if spans is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    reply({"t_start": T_START, "t_imported": T_IMPORTED})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "finish":
            break
        if tracer is not None:
            tracer.op_id = cmd["id"]
        rc, err = _run_op(cmd["argv"])
        reply({"rc": rc, "err": err[-2000:]})
    if tracer is not None:
        tracer.write(spans, t_start=T_START, t_imported=T_IMPORTED)
    reply({"done": True})


def once(spans: str, op_id: int, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op_id = op_id
    rc = tsakit.cli.main(argv)
    tracer.write(spans, t_start=T_START, t_imported=T_IMPORTED,
                 t_end=time.clock_gettime(time.CLOCK_MONOTONIC))
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "serve":
        serve(rest[1] if rest[:1] == ["--trace"] else None)
    elif mode == "once":
        sys.exit(once(rest[0], int(rest[1]), rest[2:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
