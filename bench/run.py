"""Benchmark of the qefilters package: end-to-end figures and per-layer self times.

One workload in this process (the form a benchmark driver uses)::

    python3 bench/run.py --workload hsidrive-train --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, untraced and then traced; this form
also rewrites BENCHMARK.json from ``spec.py``::

    python3 bench/run.py --workload all --seed 1

A run repeats the workload's body until ``--seconds`` have passed and reports
medians. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public functions in spans and prints the per-layer metrics instead,
alternating traced and untraced repetitions to measure the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 600


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package():
    """Import qefilters from this checkout's src/, never from elsewhere."""
    package = SRC / "qefilters"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no qefilters source under {SRC}")
    sys.path.insert(0, str(SRC))
    import qefilters

    if Path(qefilters.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qefilters from {qefilters.__file__}, not {package}")


# ---------------------------------------------------------------------------
# Per-layer figures from one traced repetition
# ---------------------------------------------------------------------------

def layer_figures(spans, counts: dict, bank_states: int) -> dict:
    """Self ms and calls per span name, plus the derived counts and rates."""
    from spans import self_times

    self_ms = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_ms[span.name] += own * 1e3
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
    out = {f"{name}.ms": value for name, value in self_ms.items()}
    out.update({f"{name}.calls": value for name, value in calls.items()})
    for name in ("projection.apply_filter_bank", "projection.backward"):
        if total_s[name] > 0:
            # Computed bytes (array sizes) over the calls' wall time.
            out[f"{name}.gb_s"] = counts.get(f"{name}.bytes", 0) / total_s[name] / 1e9
    if total_s["training.train"] > 0:
        out["training.train.wall_ms"] = total_s["training.train"] * 1e3
        out["training.train.span_coverage"] = 1.0 - self_ms["training.train"] / 1e3 / total_s["training.train"]
    if calls["filterbank.evaluate_filter_bank"]:
        out["filterbank.evaluate_filter_bank.useful_frac"] = bank_states / calls["filterbank.evaluate_filter_bank"]
    out["training.train.steps"] = calls["training.AdamW.step"]
    for key in ("training.train.epochs", "training.train.val_miou", "classical.fit_nmf.iterations"):
        out[key] = counts.get(key, 0)
    return out


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def _median(values, default=0.0):
    return statistics.median(values) if values else default


def measure(workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """Set up, repeat the body for ``seconds`` and return every figure measured."""
    import machine
    from spans import Tracer
    from workloads import Runner, StepFailed

    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    tracer = Tracer()
    try:
        runner = Runner(workload, seed, work)
        setup_times, setup_layers = [], {}
        for i in range(SETUP_REPEATS):
            traced = trace and i == SETUP_REPEATS - 1
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                runner.setup()
            finally:
                tracer.uninstall()
            setup_times.append(time.perf_counter() - start)
            if traced:
                setup_layers = layer_figures(*tracer.take())
        copy = machine.copy_bandwidth() if trace else None

        plain, traced_reps = [], []
        start = time.perf_counter()
        while True:
            # Traced runs alternate, starting untraced, so both halves see the same conditions.
            traced = trace and len(plain) > len(traced_reps)
            if traced:
                tracer.install()
            try:
                rep = runner.body()
            except StepFailed:  # already counted
                break
            except Exception as exc:  # a failed operation ends the run; it is counted and reported
                runner.fail(exc)
                break
            finally:
                tracer.uninstall()
            if traced:
                traced_reps.append((rep, layer_figures(*tracer.take())))
            else:
                plain.append(rep)
            if time.perf_counter() - start >= seconds and (traced_reps or not trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "runner": runner,
        "setup_s": _median(setup_times),
        "plain": plain,
        "traced": traced_reps,
        "setup_layers": setup_layers,
        "copy": copy,
    }


def end_to_end(m: dict, import_s: float) -> dict:
    runner, reps = m["runner"], m["plain"]
    w = runner.w
    predict_s = [t for r in reps for t in r.predict_s]
    reduce_s = [r.reduce_s for r in reps if r.reduce_s is not None]
    return {
        "run_s": _median([r.run_s for r in reps]),
        "setup_s": import_s + m["setup_s"],
        "train_mpix_s": _median([runner.train_pixels * w.epochs / r.train_s / 1e6 for r in reps]),
        "hypc_read_mb_s": _median([x for r in reps for x in r.read_mb_s]),
        "hypc_write_mb_s": _median([x for r in reps for x in r.write_mb_s]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "predict_mpix_s": runner.val_pixels / _median(predict_s) / 1e6 if predict_s else None,
        "reduce_s": _median(reduce_s) if reduce_s else None,
        "val_miou": reps[0].val_miou if reps else None,
        "ops_failed_frac": runner.ops.failed / max(runner.ops.attempted, 1),
    }


def per_layer(m: dict) -> dict:
    figures = [f for _, f in m["traced"]]
    copy_gb_s = m["copy"]["copy_gb_s"]
    out = {}
    for metric in spec.PER_LAYER:
        name = metric.name
        if name.startswith("setup."):
            out[name] = m["setup_layers"].get(name.removeprefix("setup."), 0.0)
        elif name.endswith(".roofline_frac"):
            rates = [f.get(name.replace(".roofline_frac", ".gb_s"), 0.0) for f in figures]
            out[name] = _median(rates) / copy_gb_s
        elif name not in ("machine.copy_gb_s", "trace.overhead_frac"):
            out[name] = _median([f.get(name, 0.0) for f in figures])
    out["machine.copy_gb_s"] = copy_gb_s
    plain_s = _median([r.run_s for r in m["plain"]])
    traced_s = _median([r.run_s for r, _ in m["traced"]])
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return out


def run_one(args) -> int:
    _import_package()
    import machine

    import_s = time.perf_counter() - _START
    workload = spec.WORKLOADS[args.workload]
    m = measure(workload, args.seed, args.seconds, bool(args.trace), WORK_ROOT)
    with_units = {metric.name: metric.unit for metric in (*spec.END_TO_END, *spec.REPORTED_ONLY, *spec.PER_LAYER)}
    runner = m["runner"]
    facts = machine.facts()
    if m["copy"]:
        facts["copy"] = m["copy"]
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(facts))
    print(f"repetitions untraced {len(m['plain'])}  traced {len(m['traced'])}")
    if not m["plain"] or (args.trace and not m["traced"]):
        for error in runner.ops.errors:
            print(error, file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    # A traced run reports only per-layer figures: its end-to-end numbers would
    # include the copy measurement's memory and the tracing overhead.
    values = per_layer(m) if args.trace else end_to_end(m, import_s)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<46} {shown:>12} {with_units[name]}")
    print(f"ops attempted {runner.ops.attempted}  failed {runner.ops.failed}")
    for error in runner.ops.errors:
        print(f"failed: {error}", file=sys.stderr)

    chosen = spec.PER_LAYER if args.trace else spec.END_TO_END
    result = {
        "correct": runner.ops.failed == 0,
        "attempted": runner.ops.attempted,
        "failed": runner.ops.failed,
        "metrics": {metric.name: {"value": values[metric.name], "unit": metric.unit} for metric in chosen},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            print(child.stdout, end="", flush=True)
            lines = child.stdout.strip().splitlines()
            try:
                correct = json.loads(lines[-1])["correct"] is True
            except (IndexError, ValueError, KeyError, TypeError):
                correct = False
            if child.returncode != 0 or not correct:
                status = 1
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.definition(), indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    return status


def main(argv=None) -> int:
    # Thread counts must be in the environment before numpy loads its BLAS,
    # so this module imports numpy only inside functions.
    for var in spec.THREAD_VARS:
        os.environ[var] = spec.THREADS
    args = _parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        try:
            WORK_ROOT.rmdir()  # only when empty; concurrent runs may still use it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
