"""Runs one benchmark workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload decode --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy. The process re-executes itself
once with a fixed hash seed and a single BLAS thread, so every run sees the
same interpreter settings. With ``--trace 0`` the run measures the
end-to-end metrics with no tracing. With ``--trace 1`` it measures half of
``--seconds`` untraced and half traced, and reports the per-layer metrics
and the tracing overhead; the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

STEADY_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKLOAD_NAMES = ("train", "decode", "symbolic")
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def ensure_steady_env(argv) -> None:
    """Re-executes the running script once with the fixed hash seed and one BLAS thread."""
    if all(os.environ.get(k) == v for k, v in STEADY_ENV.items()):
        return
    env = {**os.environ, **STEADY_ENV}
    script = os.path.abspath(sys.argv[0])
    os.execve(sys.executable, [sys.executable, script, *argv], env)


def import_program():
    """Imports ``urbanav`` from this checkout's ``src``; exits with an error if it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import urbanav
    except ImportError as err:
        sys.exit(f"perfbench: cannot import the program from {src}: {err}")
    if os.path.dirname(os.path.dirname(os.path.abspath(urbanav.__file__))) != src:
        sys.exit(f"perfbench: urbanav was imported from {urbanav.__file__}, not {src}")


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_untraced(workload, seconds: float):
    from stats import percentile, samples_beyond

    setup_times = timed_setups(workload, SETUP_REPEATS)
    workload.warm_up()
    phase = workload.measure(seconds)
    correct = workload.check(phase)
    lat_ms = [s * 1000.0 for s in phase.latencies_s]
    n = len(lat_ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "sent_per_s": phase.sent_per_s,
        "sent_p50_ms": percentile(lat_ms, 50),
        "sent_p95_ms": percentile(lat_ms, 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: metric(values[name], unit)
               for name, unit in declared_units("end_to_end").items()}
    print(f"# {workload.name}: setup runs {[round(t, 3) for t in setup_times]} s; "
          f"{phase.sentences} sentences in {phase.busy_s:.2f} s; "
          f"latency samples {n}, {samples_beyond(n, 95)} beyond p95; {phase.notes}")
    return correct, [phase], metrics


def run_traced(workload, seconds: float, seed: int):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    workload.warm_up()
    untraced = workload.measure(seconds / 2.0, part=(0, 2))
    tracer.phase = "measure"
    tracer.install()
    try:
        traced = workload.measure(seconds / 2.0, part=(1, 2))
    finally:
        tracer.uninstall()
    untraced_ok = workload.check(untraced)
    traced_ok = workload.check(traced)
    correct = untraced_ok and traced_ok
    values = layer_metrics(tracer, workload, traced, untraced)
    split = tracer.split("measure", traced.busy_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": seed, "seconds": seconds,
                        "metrics": values, "measure_split": split})
    print(f"# {workload.name}: traced layer split of the measured phase (self time):")
    for name, share in split.items():
        print(f"#   {name:32s} {100.0 * share:6.2f}%")
    print(f"# spans written to {os.path.relpath(path, ROOT)}")
    metrics = {name: metric(values[name], unit)
               for name, unit in declared_units("per_layer").items()}
    return correct, [untraced, traced], metrics


def layer_metrics(tracer, workload, traced, untraced) -> dict[str, float]:
    m, s = "measure", "setup"
    per_sentence = lambda name: tracer.calls(m, name) / traced.sentences
    step_calls = tracer.calls(m, "executor.step")
    beams = tracer.calls(m, "model.beam_search")
    trains = tracer.total_s(m, "training.train")
    decoded, gold = [], []
    if workload.name == "decode":
        decoded = [len(actions) for _, _, actions in traced.outputs]
        gold = [len(instr.actions) for instr, _, _ in traced.outputs]
    return {
        "model.sentence_loss.ms": 1e3 * tracer.mean_self_s(m, "model.sentence_loss"),
        "autodiff.backward.ms": 1e3 * tracer.mean_self_s(m, "autodiff.backward"),
        "training.Adam.step.ms": 1e3 * tracer.mean_self_s(m, "training.Adam.step"),
        "training.build_example.ms": 1e3 * tracer.mean_self_s(m, "training.build_example"),
        "autodiff.tensors_per_sentence": tracer.tensors_per_graph_loss(m),
        "training.val_decode_share": (
            tracer.edge_total_s(m, "training.train", "model.beam_search") / trains
            if trains else 0.0),
        "model.encode.ms": 1e3 * tracer.mean_self_s(m, "model.encode"),
        "model.attend.ms": 1e3 * tracer.mean_self_s(m, "model.attend"),
        "model.beam_search.ms": 1e3 * tracer.mean_self_s(m, "model.beam_search"),
        "model.encode.calls_per_sentence": (
            tracer.edge_calls(m, "model.beam_search", "model.encode") / beams if beams else 0.0),
        "decode.actions_per_sentence": sum(decoded) / len(decoded) if decoded else 0.0,
        "decode.gold_actions_per_sentence": sum(gold) / len(gold) if gold else 0.0,
        "executor.step.us": 1e6 * tracer.mean_self_s(m, "executor.step"),
        "executor.step.calls": per_sentence("executor.step"),
        "executor.step.ok_ratio": (
            1.0 - tracer.errors(m, "executor.step") / step_calls if step_calls else 0.0),
        "worldstate.compute.us": 1e6 * tracer.mean_self_s(m, "worldstate.compute"),
        "worldstate.compute.calls": per_sentence("worldstate.compute"),
        "baselines.jump.ms": 1e3 * tracer.mean_self_s(m, "baselines.jump"),
        "evaluator.sentence_success.us": 1e6 * tracer.mean_self_s(m, "evaluator.sentence_success"),
        "synth.generate.s": tracer.mean_self_s(s, "synth.generate"),
        "abstraction.match_entities.us": 1e6 * tracer.mean_self_s(s, "abstraction.match_entities"),
        "executor.route_to_actions.us": 1e6 * tracer.mean_self_s(s, "executor.route_to_actions"),
        "trace.traced_sent_per_s": traced.sent_per_s,
        "trace.untraced_sent_per_s": untraced.sent_per_s,
        "trace.sent_per_s_ratio": traced.sent_per_s / untraced.sent_per_s,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    ensure_steady_env(argv)
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        correct, phases, metrics = run_traced(workload, args.seconds, args.seed)
    else:
        correct, phases, metrics = run_untraced(workload, args.seconds)
    problems = [p for phase in phases for p in phase.problems]
    for line in problems[:20]:
        print(f"# check failed: {line}")
    result = {
        "correct": bool(correct),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    line = json.dumps(result)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        fh.write(line + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
