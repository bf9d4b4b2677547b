"""tsakit benchmark: four CLI workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. One client drives a closed loop: the
next op starts only after the previous one has finished, and at most one child
process runs at a time. Each op's input is made and its outputs checked
outside the op's timed interval; ``--seconds`` bounds the summed op time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced (a fresh process with every public tsakit
function wrapped, see tracer.py), checks that tracing leaves every output
byte-identical, and reports the per-layer metrics. Both print a readable
summary first; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 6  # before the ops and again after them
OP_TIMEOUT_S = 60.0

# Per-function metrics of the traced run, "<layer>.<function>.<stat>".
FUNCTION_METRICS = (
    ("cli.main", "self_s"),
    ("pipeline.ingest_csv", "self_s"), ("pipeline.run_pipeline", "self_s"),
    ("pipeline.qq_plot_data", "self_s"), ("pipeline.histogram_data", "self_s"),
    ("pipeline.write_outputs", "self_s"),
    ("special.norm_ppf", "calls"), ("special.norm_ppf", "self_s"),
    ("special.norm_ppf_array", "self_s"),
    ("special.betainc_reg", "calls"), ("special.betainc_reg", "self_s"),
    ("special.gammainc_upper_reg", "calls"), ("special.gammainc_upper_reg", "self_s"),
    ("armodel.characteristic_roots", "calls"),
    ("linalg.polynomial_roots", "calls"), ("linalg.polynomial_roots", "self_s"),
    ("armodel.levinson_durbin", "calls"), ("armodel.levinson_durbin", "self_s"),
    ("armodel.select_order_aic", "self_s"),
    ("correlation.autocovariance", "calls"), ("correlation.autocovariance", "self_s"),
    ("armodel.fit_ar_least_squares", "calls"),
    ("linalg.least_squares", "calls"), ("linalg.least_squares", "self_s"),
    ("armodel.simulate_ar", "self_s"),
    ("rng.normals", "self_s"), ("rng.uniforms", "self_s"),
    ("spectral.periodogram", "self_s"), ("spectral.dft", "self_s"),
    ("spectral.daniell_smooth", "self_s"), ("spectral.ar_psd", "self_s"),
    ("stattests.jarque_bera", "self_s"), ("stattests.shapiro_wilk", "self_s"),
    ("stattests.kpss_level", "self_s"),
    ("regression.fit_linear_trend", "self_s"),
)
UNITS = {"self_s": "s", "calls": "count"}


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed op)."""


def mono() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so child stamps compare with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run with a bytecode cache
    env.pop("TSA_SEED", None)  # the report records the seed; keep the default
    return env


def run_child(cmd: list[str], env: dict) -> tuple[int, str]:
    """Run ``cmd`` to completion; returns (exit code, stderr).

    Waits on the stderr pipe and then blocks in waitpid, because
    ``subprocess``'s timed waits poll with sleeps that quantize short runs.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    chunks = []
    deadline = mono() + OP_TIMEOUT_S
    try:
        while True:
            ready, _, _ = select.select([proc.stderr], [], [], max(0.0, deadline - mono()))
            if not ready:
                raise BenchError(f"{cmd} did not finish within {OP_TIMEOUT_S:g} s")
            chunk = os.read(proc.stderr.fileno(), 65536)
            if not chunk:
                break
            chunks.append(chunk)
        return proc.wait(), b"".join(chunks).decode(errors="replace")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()


def check_import(env: dict) -> None:
    """Import ``tsakit.cli`` once, untimed: proves it comes from this checkout's
    ``src`` and writes the bytecode cache that installed users have."""
    rc, out = run_child([sys.executable, "-c",
                         "import sys, tsakit.cli; sys.stderr.write(tsakit.cli.__file__)"], env)
    if rc != 0 or Path(out.strip()).parent != ROOT / "src" / "tsakit":
        raise BenchError(f"cannot import tsakit.cli from {ROOT / 'src'}: {out.strip()}")


def measure_setup(env: dict, bare: list[float], imports: list[float]) -> None:
    """Append wall times of fresh interpreters: bare, and ``import tsakit.cli``."""
    def timed(code: str) -> float:
        t0 = mono()
        rc, err = run_child([sys.executable, "-c", code], env)
        if rc != 0:
            raise BenchError(f"python -c {code!r} failed: {err.strip()}")
        return mono() - t0

    for _ in range(SETUP_ROUNDS):
        bare.append(timed("pass"))
        imports.append(timed("import tsakit.cli"))


class Worker:
    """The warm worker process that runs ``tsakit.cli.main`` ops in-process."""

    def __init__(self, env: dict, spans: Path | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py"), "serve"]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        t_spawn = mono()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        try:
            ready = self._read()
        except BenchError:
            self.close()
            raise
        self.marks = {"interp_start_s": ready["t_start"] - t_spawn,
                      "import_s": ready["t_imported"] - ready["t_start"]}

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("the worker process stopped answering")
        return json.loads(line)

    def run(self, op: workloads.Op) -> tuple[int, str]:
        self.proc.stdin.write(json.dumps({"cmd": "op", "id": op.index, "argv": op.argv}) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        return reply["rc"], reply["err"]

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "finish"}) + "\n")
                self.proc.stdin.flush()
                self._read()
                t_done = mono()
                # The pipe reaches EOF when the worker exits; then waitpid returns at once.
                if select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)[0]:
                    self.proc.stdout.read()
                    self.proc.wait()
                    self.marks["exit_s"] = mono() - t_done
        except (BenchError, OSError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()


class Fresh:
    """One fresh interpreter per op, as the paper's user runs the CLI."""

    def __init__(self, env: dict, spans_dir: Path | None = None):
        self.env = env
        self.spans_dir = spans_dir

    def spans(self, index: int) -> Path:
        return self.spans_dir / f"spans{index:05d}.npz"

    def run(self, op: workloads.Op) -> tuple[int, str]:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "tsakit.cli", *op.argv]
        else:
            cmd = [sys.executable, str(BENCH / "worker.py"), "once",
                   str(self.spans(op.index)), str(op.index), *op.argv]
        return run_child(cmd, self.env)

    def close(self) -> None:
        pass


def run_phase(wl, runner, seconds: float, work: Path, phase: str,
              deadline: float) -> list[dict]:
    """Op 0 warms up untimed; then ops run until their summed time reaches
    ``seconds``, or no new op starts after ``deadline``."""
    records: list[dict] = []
    clock, index = 0.0, 0
    while index == 0 or (clock < seconds and mono() < deadline):
        op = wl.make_op(index, work)
        t0 = mono()
        rc, err = runner.run(op)
        elapsed = mono() - t0
        if rc != 0:
            outcome = workloads.Outcome(False, f"exit {rc}: {err.strip()[-500:]}")
        else:
            try:
                outcome = wl.check(op)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                outcome = workloads.Outcome(False, f"output check raised {exc!r}")
        if index > 0:
            clock += elapsed
        records.append({"phase": phase, "index": index, "t0": t0, "elapsed": elapsed,
                        "outcome": outcome})
        if op.out.is_dir():
            shutil.rmtree(op.out)
        else:
            op.out.unlink(missing_ok=True)
        if op.input_path is not None:
            op.input_path.unlink(missing_ok=True)
        index += 1
    return records


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # otherwise git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsakit").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit or "n/a (not a git checkout)",
            "source_sha256": source.hexdigest()[:16], "workload_seed": seed,
            "cli": f"{sys.executable} -m tsakit.cli (paper) or tsakit.cli.main in a warm "
                   f"worker of the same interpreter; bytecode cache warmed"}


def input_properties(records: list[dict]) -> str:
    ns = sorted({r["outcome"].n for r in records if r["outcome"].n is not None})
    ps: dict = {}
    for r in records:
        ps[r["outcome"].p] = ps.get(r["outcome"].p, 0) + 1
    dist = ", ".join(f"p={p if p is not None else '?'}: {c}"
                     for p, c in sorted(ps.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)))
    return f"N={ns} over {len(records)} ops; {dist}"


def end_to_end(imports, records) -> tuple[dict, list[str]]:
    timed = [r for r in records if r["index"] > 0]
    times = np.array([r["elapsed"] for r in timed])
    ok = sum(r["outcome"].ok for r in timed)
    attempted = len(records)
    failed = sum(not r["outcome"].ok for r in records)
    p90 = float(np.percentile(times, 90))
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (median(imports), "s", f"median of {len(imports)} fresh imports"),
        "op_s_p50": (float(np.median(times)), "s", f"{times.size} ops"),
        "op_s_p90": (p90, "s", f"{times.size} ops, {int((times > p90).sum())} above"),
        "ops_per_s": (ok / float(times.sum()), "1/s",
                      f"{ok} ok in {times.sum():.3f} s of ops"),
        "peak_rss_mb": (peak_mib, "MiB", "max over child processes"),
        "success_rate": ((attempted - failed) / attempted, "ratio",
                         f"{attempted - failed} of {attempted} ops"),
    }
    lines = [f"{name:<13} {value:<12.6g} {unit:<6} ({note})"
             for name, (value, unit, note) in metrics.items()]
    quantiles = np.percentile(times, [0, 10, 25, 50, 75, 90, 100])
    lines.append("op_s min/p10/p25/p50/p75/p90/max: "
                 + " ".join(f"{q:.4f}" for q in quantiles))
    lines.append(f"{'error_rate':<13} {failed / attempted:<12.6g} {'ratio':<6} "
                 f"({failed} failed of {attempted} attempted)")
    return {k: (v, u) for k, (v, u, _) in metrics.items()}, lines


def per_layer(bare, imports, plain, traced, op_stats, split) -> dict:
    """Per-layer metrics: medians over traced ops (op 0, the warm-up, excluded)."""
    ops = [r for r in traced if r["index"] > 0]
    stats = [op_stats.get(r["index"], {}) for r in ops]

    def med(fn) -> float:
        return median(fn(s) for s in stats)

    def stat(s, fn_name, key):
        return s.get(fn_name, {}).get(key, 0)

    out = {"cli.import_s": (median(imports) - median(bare), "s")}
    for key in ("interp_start_s", "import_s", "run_pipeline_s", "write_outputs_s", "exit_s"):
        out[f"split.{key}"] = (median(m[key] for m in split), "s")
    for fn_name, key in FUNCTION_METRICS:
        out[f"{fn_name}.{key}"] = (med(lambda s: stat(s, fn_name, key)), UNITS[key])
    roots = "armodel.characteristic_roots"
    out[f"{roots}.distinct_ratio"] = (
        med(lambda s: stat(s, roots, "distinct") / max(stat(s, roots, "calls"), 1)), "ratio")
    for module in tracing.LAYERS:
        layer = tracing.layer_name(module)
        mine = lambda s: [v for k, v in s.items() if k.startswith(layer + ".")]  # noqa: E731
        out[f"{layer}.self_s"] = (med(lambda s: sum(v["self_s"] for v in mine(s))), "s")
        out[f"{layer}.raised"] = (
            float(np.mean([sum(v["raised"] for v in mine(s)) for s in stats])) if stats else 0.0,
            "count")
    outcomes = [r["outcome"] for r in ops]
    out["pipeline.write_outputs.bytes"] = (median(o.out_bytes for o in outcomes), "bytes")
    out["armodel.aic_failed_orders"] = (median(o.aic_failed for o in outcomes), "count")
    out["trace.overhead_s"] = (
        median(r["elapsed"] for r in ops)
        - median(r["elapsed"] for r in plain if r["index"] > 0), "s")
    out["trace.spans_per_op"] = (med(lambda s: sum(v["calls"] for v in s.values())), "count")
    everything = [r["outcome"] for r in plain + traced]
    known_p = [o.p for o in everything if o.p is not None]
    out["input.n_p50"] = (median(o.n for o in everything if o.n is not None), "count")
    out["input.p_min"] = (float(min(known_p, default=0)), "count")
    out["input.p_p50"] = (median(known_p), "count")
    out["input.p_max"] = (float(max(known_p, default=0)), "count")
    return out


def traced_phase(wl, env, seconds, work, deadline) -> tuple[list[dict], dict, list[dict]]:
    """Run ``wl`` with every public function wrapped; returns records, per-op
    function stats and the per-process split marks."""
    spans_dir = work / "spans"
    spans_dir.mkdir()
    op_stats: dict = {}
    split: list[dict] = []
    if wl.in_worker:
        spans = spans_dir / "worker.npz"
        worker = Worker(env, spans)
        try:
            records = run_phase(wl, worker, seconds, work, "traced", deadline)
        finally:
            worker.close()
        if not spans.is_file():
            raise BenchError("the traced worker wrote no spans")
        op_stats, _ = tracing.per_op(spans)
        for index, s in op_stats.items():
            if index > 0:
                split.append(dict(worker.marks, **_inclusive(s)))
        return records, op_stats, split
    fresh = Fresh(env, spans_dir)
    records = run_phase(wl, fresh, seconds, work, "traced", deadline)
    for r in records:
        path = fresh.spans(r["index"])
        if not path.is_file():
            continue
        stats, marks = tracing.per_op(path)
        op_stats.update(stats)
        if r["index"] > 0:
            split.append(dict(interp_start_s=marks["t_start"] - r["t0"],
                              import_s=marks["t_imported"] - marks["t_start"],
                              exit_s=r["t0"] + r["elapsed"] - marks["t_end"],
                              **_inclusive(stats.get(r["index"], {}))))
    return records, op_stats, split


def _inclusive(stats: dict) -> dict:
    return {"run_pipeline_s": stats.get("pipeline.run_pipeline", {}).get("incl_s", 0.0),
            "write_outputs_s": stats.get("pipeline.write_outputs", {}).get("incl_s", 0.0)}


def untraced_phase(wl, env, seconds, work, deadline) -> list[dict]:
    runner = Worker(env) if wl.in_worker else Fresh(env)
    try:
        return run_phase(wl, runner, seconds, work, "plain", deadline)
    finally:
        runner.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "tsakit" / "cli.py", ROOT / workloads.PAPER_INPUT):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a tsakit checkout", file=sys.stderr)
            return 2
    env = child_env()
    wl = workloads.make(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        check_import(env)
        print(f"tsakit bench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env: " + json.dumps(environment(args.seed)))
        bare: list[float] = []
        imports: list[float] = []
        measure_setup(env, bare, imports)
        share = 2 if args.trace else 1
        deadline = mono() + 2 * args.seconds + 60  # a safety stop if ops hang or crawl
        plain = untraced_phase(wl, env, args.seconds / share, work, deadline)
        if args.trace:
            traced, op_stats, split = traced_phase(wl, env, args.seconds / share, work,
                                                   deadline)
        measure_setup(env, bare, imports)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        untraced = {r["index"]: r["outcome"].digest for r in plain if r["outcome"].ok}
        for r in traced:
            if r["index"] in untraced and r["outcome"].digest != untraced[r["index"]]:
                r["outcome"].ok = False
                r["outcome"].reason = "traced output differs from the untraced output"
        records = plain + traced
        metrics = per_layer(bare, imports, plain, traced, op_stats, split)
        print("\n".join(f"{name:<44} {value:<12.6g} {unit}"
                        for name, (value, unit) in metrics.items()))
    else:
        records = plain
        metrics, lines = end_to_end(imports, records)
        print("\n".join(lines))
    print("inputs: " + input_properties(records))
    failures = [r for r in records if not r["outcome"].ok]
    for r in failures[:5]:
        print(f"failed op {r['phase']}/{r['index']}: {r['outcome'].reason}")
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
