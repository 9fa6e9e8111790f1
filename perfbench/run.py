"""qrag benchmark: one workload per invocation, result as the last stdout line.

Usage (from the repository root):

    python3 perfbench/run.py --workload query_short --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions and reports the per-layer metrics instead. The
program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import signal
import shutil
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("build", "query_short", "query_long", "serve")

# name -> unit; every run reports all of one list.
END_TO_END = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "recall_at_10": "ratio",
    "index_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "corpus.ingest_filter_s": "s",
    "corpus.chunk_s": "s",
    "tokenizer.train_s": "s",
    "lexical.build_s": "s",
    "semantic.embed_s": "s",
    "engine.save_s": "s",
    "tokenizer.encode_s": "s",
    "tokenizer.encode_calls": "count",
    "tokenizer.encoded_chars": "count",
    "engine.load_s": "s",
    "semantic.scan_s": "s",
    "semantic.rows_scanned": "count",
    "quantum.score_s": "s",
    "quantum.amplitude_encode_calls": "count",
    "quantum.rank_s": "s",
    "lexical.score_s": "s",
    "lexical.rows_touched": "count",
    "engine.context_s": "s",
    "engine.context_tokens_per_budget": "ratio",
    "engine.candidates_per_hit": "ratio",
    "engine.retrieve_self_s": "s",
    "evalkit.evaluate_s": "s",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{f"engine.index_bytes.{name}": "bytes" for name in spans.INDEX_FILES},
    "service.engine_p50_ms": "ms",
    "service.overhead_p50_ms": "ms",
    "loadgen.open_p50_ms": "ms",
    "loadgen.open_p90_ms": "ms",
    "loadgen.lateness_p90_ms": "ms",
    "trace.op_s": "s",
    "trace.spans_per_op": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: Path) -> bool:
    """Import ``qrag`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "qrag" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qrag

    return Path(qrag.__file__).resolve().is_relative_to(src.resolve())


def result_line(run, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    values = run.layer if trace else run.end_to_end
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_one(args: argparse.Namespace, scale=None, work_dir: Path = ROOT) -> tuple[dict, dict]:
    """Run one workload in this process; return (record, result line)."""
    import hostinfo
    import workloads

    run = workloads.Run(
        scale=scale or workloads.FULL,
        seed=args.seed,
        seconds=float(args.seconds),
        src_root=ROOT,
        work_dir=work_dir,
    )
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["env"] = hostinfo.environment()
    record["calibration_before"] = hostinfo.calibrate_ms()
    cpu_before = hostinfo.cpu_times()
    uninstall = None
    if args.trace:
        run.recorder = spans.Recorder()
        uninstall = spans.install(run.recorder)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if uninstall is not None:
            uninstall()
        shutil.rmtree(run.scratch, ignore_errors=True)
    record["cpu_share"] = hostinfo.busy_and_steal(cpu_before, hostinfo.cpu_times())
    record["calibration_after"] = hostinfo.calibrate_ms()
    record["notes"] = run.notes
    record["failures"] = run.failures
    runs_dir = run.build_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.recorder is not None:
        record["missing_trace_points"] = run.recorder.missing
        run.recorder.write(runs_dir / f"{args.workload}.spans.jsonl")
    result = result_line(run, bool(args.trace))
    (runs_dir / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    return record, result


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not import_program(ROOT):
        print(f"error: qrag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    record, result = run_one(args)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
