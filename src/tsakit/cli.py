"""Command-line interface: ``analyze`` runs the full pipeline, ``simulate``
exposes the AR and random-walk generators for scripted experiments.

Exit codes: 0 success, 2 input/validation error, 3 numerical-stage error.
An operating-system error while reading the input or writing the outputs is
an input error: ``error: <message>`` on stderr and exit 2. That covers a
directory given as ``analyze --input`` or ``simulate --out``, an
``analyze --output`` below a file, and a write that fails (a full disk).
A reader that closes stdout early (``tsakit simulate ... | head``) ends the
run quietly with exit 0.
A flag value that ``PipelineConfig`` refuses, such as ``--kpss-lag -1`` or
``--daniell-spans 4``, is an argparse error that names the flag: usage on
stderr and exit 2, before any stage runs.
``analyze`` prints the written paths on stdout. When AIC selects the scan's
bound K itself, it adds one stderr line, ``note: AIC selected the scan's
bound K=<K>; --aic-max-order raises it``: the order may be a bound rather
than a minimum. report.json does not change.
``simulate --out FILE`` writes a temporary file beside FILE and renames it
into place only once it is complete, unless FILE is a symlink, a FIFO or a
device, which are written directly; ``--out -`` writes to stdout's buffer.
``simulate`` makes and writes its series one chunk of samples at a time
(``armodel._CHUNK``, the float-text pass ``_floattext._BLOCK``), so its
memory does not grow with ``--n`` or ``--burn-in``. Each row is
``t,repr(value)``: a chunk's values are formatted in one
``_floattext._float_words`` pass, with ``repr``'s bytes and no ``repr`` call
per value, and written as ``_lines`` builds them, with no further copy.
Every check that can fail on the first chunk runs
before any byte is written. A later chunk that overflows (a random walk with a large
drift) ends the run with exit 2 after the rows before it: on stdout those
rows stay written, while ``--out FILE`` leaves FILE as it was.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import os
import sys

import numpy as np

from ._fileio import staged_files
from ._floattext import _float_words, _int_words, _lines
from .armodel import (_ESTIMATORS, ArModel, RandomWalkSpec, _ar_chunks,
                      _random_walk_chunks)
from .errors import (IngestionError, InsufficientDataError,
                     InvalidArgumentError, PipelineStageError, TsaError)
from .pipeline import PipelineConfig, run_pipeline, write_outputs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _auto_or_int(text: str):
    """argparse type of a flag that takes ``auto`` or an integer."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}") from None


def _parse_spans(text: str) -> tuple[int, ...]:
    """``--daniell-spans``' text as its comma-separated integers."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"spans must be comma-separated integers, got {text!r}") from None


def _config_checked(field: str, parse):
    """argparse type of the ``analyze`` flag of ``field``: the value ``parse``
    reads from the text, if ``PipelineConfig`` accepts it."""
    @functools.wraps(parse)  # argparse names a ValueError after parse
    def checked(text: str):
        value = parse(text)
        try:
            PipelineConfig(input_path="", **{field: value})
        except InvalidArgumentError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return checked


def _parse_phi(text: str) -> tuple[float, ...]:
    """argparse type of ``--phi``: comma-separated real coefficients."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"phi must be comma-separated reals, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsakit",
        description="Monthly time-series analysis: trend regression, "
                    "stationarity diagnostics, AR identification and spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag left out stays unset, so PipelineConfig's field defaults apply.
    analyze = sub.add_parser("analyze", help="run the full analysis pipeline",
                             argument_default=argparse.SUPPRESS)
    analyze.add_argument("--input", required=True, help="input CSV path")
    analyze.add_argument("--output", required=True, help="output directory")
    analyze.add_argument("--date-column")
    analyze.add_argument("--value-column")
    analyze.add_argument("--aic-max-order", type=_config_checked("aic_max_order", _auto_or_int),
                         help="maximum AR order for AIC, or auto = max(1, min(floor(10 "
                              "log10 N), (N - 1) // 2)), N = rows - truncate_head - 1, "
                              "the differenced length")
    analyze.add_argument("--ar-estimator", choices=_ESTIMATORS)
    analyze.add_argument("--daniell-spans", type=_config_checked("daniell_spans", _parse_spans),
                         help="comma-separated odd spans, e.g. 3,3")
    analyze.add_argument("--kpss-lag", type=_config_checked("kpss_lag", _auto_or_int),
                         help="Bartlett truncation lag, or auto")
    analyze.add_argument("--truncate-head", type=_config_checked("truncate_head", int),
                         help="samples to drop before differencing")

    simulate = sub.add_parser("simulate", help="simulate AR or random-walk series")
    sim_sub = simulate.add_subparsers(dest="model", required=True)

    sim_ar = sim_sub.add_parser("ar", help="stationary AR(p) with Gaussian innovations")
    sim_ar.add_argument("--phi", type=_parse_phi, required=True,
                        help="comma-separated coefficients")
    sim_ar.add_argument("--sigma2", type=float, default=1.0)
    sim_ar.add_argument("--mean", type=float, default=0.0)
    sim_ar.add_argument("--n", type=int, required=True)
    sim_ar.add_argument("--seed", type=int, default=0)
    sim_ar.add_argument("--burn-in", type=int, default=None)
    sim_ar.add_argument("--out", default="-", help="output CSV path (default: stdout)")

    sim_rw = sim_sub.add_parser("random-walk", help="random walk with drift")
    sim_rw.add_argument("--drift", type=float, default=0.0)
    sim_rw.add_argument("--sigma2", type=float, default=1.0)
    sim_rw.add_argument("--y0", type=float, default=0.0)
    sim_rw.add_argument("--n", type=int, required=True)
    sim_rw.add_argument("--seed", type=int, default=0)
    sim_rw.add_argument("--out", default="-", help="output CSV path (default: stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def _row_text(values: np.ndarray, start: int) -> bytearray:
    """One ``t,repr(value)`` row per value, t counting from ``start``."""
    t = np.arange(values.size, dtype=np.uint64) + start  # --n has no bound
    return _lines([_int_words(t), _float_words(values)], b"\n")


def _write_rows(fh, chunks) -> None:
    """``t,value`` header, then one ``t,repr(value)`` row per sample, written
    one chunk of the series at a time as each arrives. Neither the series nor
    its text is ever held whole."""
    fh.write(b"t,value\n")
    start = 1
    for chunk in chunks:
        fh.write(_row_text(chunk, start))
        start += len(chunk)


def _emit_series(chunks, destination: str) -> None:
    if destination == "-":
        _write_rows(sys.stdout.buffer, chunks)
        sys.stdout.buffer.flush()  # a closed pipe raises here, not at interpreter exit
        return
    with staged_files() as open_staged, open_staged(destination) as fh:
        _write_rows(fh, chunks)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            fields = {f.name for f in dataclasses.fields(PipelineConfig)}
            report = run_pipeline(PipelineConfig(
                input_path=args.input,
                **{k: v for k, v in vars(args).items() if k in fields}))
            written = write_outputs(report, args.output)
            sys.stdout.write("\n".join(str(p) for p in written) + "\n")
            sys.stdout.flush()
            bound = report.body["decisions"]["aic_max_order"]
            if report.body["difference"]["aic"]["selected_order"] == bound:
                sys.stderr.write(f"note: AIC selected the scan's bound K={bound}; "
                                 "--aic-max-order raises it\n")
            return EXIT_OK
        # The subcommand is required, so anything else is "simulate".
        if args.model == "ar":
            model = ArModel(phi=args.phi, sigma2=args.sigma2, mean=args.mean)
            chunks = _ar_chunks(model, args.n, args.seed, args.burn_in)
        else:
            spec = RandomWalkSpec(drift=args.drift,
                                  innovation_sigma2=args.sigma2, y0=args.y0)
            chunks = _random_walk_chunks(spec, args.n, args.seed)
        # The first chunk, with every argument check, comes before the
        # destination is opened.
        first = next(chunks)
        _emit_series(itertools.chain((first,), chunks), args.out)
        return EXIT_OK
    except PipelineStageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        # Bad input or configuration discovered mid-pipeline is a validation
        # failure; everything else is a numerical-stage failure.
        if isinstance(exc.cause, (IngestionError, InsufficientDataError,
                                  InvalidArgumentError)):
            return EXIT_INPUT
        return EXIT_NUMERICAL
    except ValueError as exc:  # the package's input errors are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except TsaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # Whoever read the output stopped early. Point stdout at /dev/null so
        # the interpreter's final flush cannot fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
