"""The measured process: set up, code a corpus repeatedly, analyze it.

Started by run.py in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH, after the corpus is on disk, so its peak memory is the
program's and not the generator's. Prints one JSON object on stdout.

    measure.py --setup-only
    measure.py --manifest M --work DIR --jobs N --seconds T --seed S [--spans PATH]

Each round is one coding pass followed by the read-side commands; with
``--spans`` a traced coding pass and traced read-side commands follow,
and report per-layer figures.
"""

import time

_STARTED = time.perf_counter()

import citecode  # noqa: E402  (set-up time counts the import)
from citecode.config import PipelineConfig  # noqa: E402
from citecode.pipeline import load_resources  # noqa: E402

_CONFIG = PipelineConfig()
_CONFIG.validate()
_RESOURCES = load_resources(_CONFIG)
SETUP_S = time.perf_counter() - _STARTED

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from citecode import cli, pipeline  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

# After each coding pass, the read-side commands repeat for this share
# of the pass's wall, so both kinds of pass sample the whole run.
ANALYZE_SHARE = 1 / 3
MIN_ROUNDS = 3
LOOP_REPEATS = 50
# A set-up probe times the loop right after set-up, for about 0.1 s.
SETUP_LOOP_REPEATS = 10


def time_reference_loop(repeats: int = LOOP_REPEATS) -> float:
    """Mean time of a fixed pure-Python loop, the machine-speed probe.

    The loop allocates nothing the garbage collector tracks, so the
    program's heap cannot change its time; only the speed the machine
    gives this process does. Between rounds the repeats span about half
    a second, long enough to average the machine's sub-second flicker
    the way a coding pass does. run.py scales reported times by it.
    """
    started = time.perf_counter()
    for _ in range(repeats):
        total = 0
        for i in range(100_000):
            total += i * i % 7
    return (time.perf_counter() - started) / repeats


def _output_digests(out: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("coded.jsonl", "coauthors.tsv")
    )


def _collect_garbage() -> None:
    """Start each timed pass from a collected heap, as a fresh run would.

    Without this, where the collector's full sweeps fall depends on the
    passes before. Over ten seeds the scaled analyze median then spread
    by 18%; with it, by 10%.
    """
    gc.collect()


def code_once(manifest: Path, out: Path, jobs: int) -> tuple[float, float, object]:
    """One timed pass from manifest to the three written outputs.

    Calls go through the module, so a tracer's wrappers see them.
    """
    _collect_garbage()
    cpu = time.process_time()
    started = time.perf_counter()
    entries = pipeline.read_manifest(manifest)
    result = pipeline.run_pipeline(entries, _CONFIG, _RESOURCES, jobs=jobs)
    pipeline.write_outputs(result, out)
    wall = time.perf_counter() - started
    return wall, time.process_time() - cpu, result


def analyze_once(out: Path, gold: Path) -> float:
    """Both read-side commands over coded.jsonl; raises on a nonzero exit."""
    coded = str(out / "coded.jsonl")
    _collect_garbage()
    started = time.perf_counter()
    status_report = cli.main([
        "report", "--input", coded, "--rows", "D", "--cols", "I",
        "--out", str(out / "report.csv"),
    ])
    status_eval = cli.main([
        "eval", "--input", coded, "--gold", str(gold), "--categories", "I,J",
        "--out", str(out / "eval.csv"),
    ])
    wall = time.perf_counter() - started
    if status_report or status_eval:
        raise RuntimeError(f"report exited {status_report}, eval exited {status_eval}")
    return wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--manifest", type=Path)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S, "loop_s": time_reference_loop(SETUP_LOOP_REPEATS)}))
        return 0

    out = args.work / "out"
    gold = args.work / "gold.jsonl"
    deadline = time.perf_counter() + args.seconds
    digests = set()
    setup_loop_s = time_reference_loop(SETUP_LOOP_REPEATS)
    coding, analysis, traced, loops = [], [], [], []
    while True:
        round_started = time.perf_counter()
        loops.append(time_reference_loop())
        wall, cpu, result = code_once(args.manifest, out, args.jobs)
        docs, citations = len(result.documents), result.summary["citations"]["total"]
        # Free this pass's result before the next, as a single run would.
        del result
        digests.add(_output_digests(out))
        coding.append((wall, cpu))
        if not gold.exists():
            checks.write_gold(out / "coded.jsonl", gold, args.seed)
        analyze_until = time.perf_counter() + wall * ANALYZE_SHARE
        analysis.append(analyze_once(out, gold))
        while time.perf_counter() < analyze_until:
            analysis.append(analyze_once(out, gold))
        if args.spans:
            traced.append(traced_pass(args, out, gold, wall + analysis[-1]))
            digests.add(_output_digests(out))
        round_wall = time.perf_counter() - round_started
        if len(coding) >= MIN_ROUNDS and time.perf_counter() + round_wall > deadline:
            break
    loops.append(time_reference_loop())

    report = {
        "setup_s": SETUP_S,
        "setup_loop_s": setup_loop_s,
        "code_walls": [wall for wall, _ in coding],
        "code_cpus": [cpu for _, cpu in coding],
        "docs": docs,
        "citations": citations,
        "analyze_walls": analysis,
        "loop_s": loops,
        "digests": sorted(digests),
    }
    if args.spans:
        report["trace"] = traced
    self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = (self_usage + child_usage) / 1024.0
    print(json.dumps(report))
    return 0


def traced_pass(args, out: Path, gold: Path, untraced_wall: float) -> dict:
    """One coding pass plus the read-side commands, with tracing on.

    The overhead is taken against the untraced pass just before, which
    saw about the same machine load.
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code_wall = code_once(args.manifest, out, args.jobs)[0]
        analyze_wall = analyze_once(out, gold)
    finally:
        tracer.remove()
    spans = tracer.spans()
    tracing.write_spans(args.spans, spans)
    total, self_time, calls = tracing.span_totals(spans)
    return {
        "code_wall": code_wall,
        "overhead_s": code_wall + analyze_wall - untraced_wall,
        "total": total,
        "self": self_time,
        "calls": dict(calls),
        "counts": dict(tracer.counts()),
        "spans": len(spans),
    }


if __name__ == "__main__":
    sys.exit(main())
