"""promptpipe benchmark: end-to-end and per-layer metrics on generated workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``short_ensemble``, ``long_truncate``, ``replay_bert`` or
``all``. The inputs are generated from N (see ``workloads.py``) before
any timing. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary.

``--trace 0`` measures what a user sees. It spawns
``python -m promptpipe run`` on the full dataset and on a one-example
dataset (set-up time), one child at a time, interleaved, for S seconds,
after one discarded warm-up of each. It reports medians of
``examples_per_s``, ``setup_s`` and ``peak_rss_mb`` (the child's own
peak RSS, from ``os.wait4``). Every output is checked against the
benchmark's oracle; the summary prints ``failed_ratio``.

Times are host-normalized. On a shared host the speed of one core
swings by up to 2x within seconds as co-tenants come and go, and CPU
time swings with it, so raw wall times of the same code spread wider
than any useful bound. The harness and its children are therefore
pinned to one CPU, and just before and after every sample the harness
times a fixed reference process (``probe.py``) that starts like a
promptpipe run and then does the kind of work that dominates the
workload. Each sample's wall time is multiplied by the host's speed
relative to the reference (``PROBE_REF_S`` over the probe's wall time),
averaged over the probes on either side of it. So ``examples_per_s``
is examples per second, and ``setup_s`` seconds, on a host that runs
the probe in ``PROBE_REF_S``. A change to promptpipe moves them as it
moves wall time; a change of host speed mostly does not. The summary
also prints the raw medians.

``--trace 1`` alternates an untraced run with ``traced_run.py``, which
makes the same calls through promptpipe's public functions with a span
around each, and reports per-layer metrics from the spans. The traced
output must equal the untraced output byte for byte.

Children run with ``PROMPT_PIPE_THREADS`` cleared, so the default serial
path is measured, and with a fixed ``PYTHONHASHSEED``. Inputs, outputs
and spans are written under ``.perfbench_work/`` in the checkout and
removed at exit.

The benchmark's own tests: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# The generator seeds from promptpipe's SplitMix64: outside a promptpipe
# checkout this import fails and the benchmark exits without a result.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from workloads import BUILDERS, count_failed, generate  # noqa: E402
from probe import write_logits as write_probe_logits  # noqa: E402

WORKLOADS = tuple(BUILDERS)
LAYERS = ("data", "template", "soft_plan", "tokenization", "wrapping", "verbalizer", "runner")
MIN_FULL_RUNS = 5
PROBE_KIND = {"short_ensemble": "python", "long_truncate": "python", "replay_bert": "json"}
# Seconds of either probe kind on an uncontended core of the 2-core x86
# host the bounds were set on. Only ratios to it matter.
PROBE_REF_S = 0.3
MIN_TRACED_RUNS = 2
CHILD_TIMEOUT_S = 120
SPAN_COLUMNS = ("name", "guid", "parent", "start_ns", "end_ns")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PROMPT_PIPE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one child to exit: (wall seconds, exit code, child peak RSS in MB)."""
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so a sample and the
    probes around it see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostProbe:
    """Times ``probe.py``, a fixed reference process, to track the host's speed.

    The probe does the kind of work that dominates the workload
    (``PROBE_KIND``), because contention slows kinds of work unequally,
    and it starts a process as every sample does.
    """

    def __init__(self, kind: str, work: Path, log: Path):
        self.log = log
        self.argv = [sys.executable, str(HERE / "probe.py"), kind]
        if kind == "json":
            write_probe_logits(work / "probe_logits.jsonl")
            self.argv.append(str(work / "probe_logits.jsonl"))

    def speed(self) -> float:
        """The host's speed relative to the reference: ``PROBE_REF_S`` over
        the probe's wall time."""
        wall, code, _ = spawn(self.argv, self.log)
        if code != 0:
            raise RuntimeError(f"host probe exited with {code}; see {self.log}")
        return PROBE_REF_S / wall


def promptpipe_run(config: Path, output: Path) -> list[str]:
    return [sys.executable, "-m", "promptpipe", "run", "--config", str(config),
            "--output", str(output)]


class Checker:
    """Runs a child, removes stale output first, and counts oracle failures."""

    def __init__(self, work: Path):
        self.log = work / "stderr.log"
        self.attempted = 0
        self.failed = 0

    def run(self, argv, output: Path, oracle, reference: Path | None = None):
        """(wall s, peak RSS MB) of one child; with ``reference``, records
        that differ from that file count as failed too."""
        output.unlink(missing_ok=True)
        wall, code, rss_mb = spawn(argv, self.log)
        failed = oracle.n
        if code == 0:
            failed = count_failed(oracle, output)
            if reference is not None:
                failed = max(failed, differing_lines(reference, output, oracle.n))
        self.attempted += oracle.n
        self.failed += failed
        return wall, rss_mb


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_end_to_end(w, work: Path, seconds: int, check: Checker) -> dict:
    out, setup_out = work / "out.jsonl", work / "setup_out.jsonl"
    full_cmd, setup_cmd = promptpipe_run(w.config, out), promptpipe_run(w.setup_config, setup_out)
    first = w.first()
    check.run(full_cmd, out, w)  # warm-up: .pyc files and file cache
    check.run(setup_cmd, setup_out, first)
    probe = HostProbe(PROBE_KIND[w.name], work, check.log)
    probe.speed()  # warm-up
    rates, rss, setups, raw_rates, raw_setups = [], [], [], [], []
    speeds = [probe.speed()]

    def normalized(argv, output, oracle) -> tuple[float, float, float]:
        """(wall, wall times the host speed probed just before and after, peak RSS)."""
        wall, rss_mb = check.run(argv, output, oracle)
        speeds.append(probe.speed())
        return wall, wall * statistics.fmean(speeds[-2:]), rss_mb

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < MIN_FULL_RUNS:
        wall, scaled, rss_mb = normalized(full_cmd, out, w)
        raw_rates.append(w.n / wall)
        rates.append(w.n / scaled)
        rss.append(rss_mb)
        wall, scaled, _ = normalized(setup_cmd, setup_out, first)
        raw_setups.append(wall)
        setups.append(scaled)
    print(f"# raw medians: examples_per_s {statistics.median(raw_rates):.6g}, "
          f"setup_s {statistics.median(raw_setups):.6g}, "
          f"host slowdown {1 / statistics.median(speeds):.4g}x against the probe reference")
    return {
        "examples_per_s": ("examples/s", rates),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", rss),
    }


def measure_layers(w, work: Path, seconds: int, check: Checker) -> dict:
    out, traced_out, spans = work / "out.jsonl", work / "traced.jsonl", work / "spans.json"
    full_cmd = promptpipe_run(w.config, out)
    check.run(full_cmd, out, w)  # warm-up
    dumps, traced_walls, untraced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(dumps) < MIN_TRACED_RUNS:
        untraced_walls.append(check.run(full_cmd, out, w)[0])
        argv = [sys.executable, str(HERE / "traced_run.py"), str(w.config), str(traced_out),
                str(spans)] + ([] if dumps else ["--count"])
        traced_walls.append(check.run(argv, traced_out, w, reference=out)[0])
        try:
            dumps.append(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        except (OSError, ValueError):  # the traced child died; its failure is counted
            dumps.append({"spans": {k: [] for k in SPAN_COLUMNS}, "failed": {}})
    return layer_metrics(w, dumps, traced_walls, untraced_walls)


def differing_lines(a: Path, b: Path, n: int) -> int:
    """Lines of ``b`` that differ from, or are missing against, ``a``."""
    try:
        left = a.read_bytes().splitlines()
        right = b.read_bytes().splitlines()
    except OSError:
        return n
    differ = sum(x != y for x, y in zip(left, right)) + abs(len(left) - len(right))
    return min(differ, n)


def layer_metrics(w, dumps: list[dict], traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the spans of every traced run.

    Per-call times are self times (span minus child spans); set-up
    calls are summed per run and the median over runs is reported.
    """
    per_call: dict[str, list[int]] = defaultdict(list)
    per_run: dict[str, list[int]] = defaultdict(list)
    example_ns: list[int] = []
    coverage = []
    for dump, wall in zip(dumps, traced_walls):
        spans = dump["spans"]
        rows = list(zip(spans["name"], spans["parent"], spans["start_ns"], spans["end_ns"]))
        children = [0] * len(rows)
        for name, parent, start, end in rows:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        root_ns = 0
        for (name, parent, start, end), child_ns in zip(rows, children):
            per_call[name].append(end - start - child_ns)
            totals[name] += end - start
            if name == "runner.example":
                example_ns.append(end - start)
            if parent < 0:
                root_ns += end - start
        for name in ("data.load", "template.load", "soft_plan.build", "verbalizer.load",
                     "tokenization.vocab_load", "tokenization.build", "runner.scorer_load",
                     "verbalizer.project", "runner.write"):
            per_run[name].append(totals[name])
        coverage.append(root_ns / 1e9 / (wall - dump.get("count_s", 0.0)))

    def run_median(*names: str) -> float:
        return statistics.median(sum(v) for v in zip(*(per_run[n] for n in names)))

    def call_us(name: str, q: float = 50) -> float:
        return _percentile_us(per_call.get(name, []), q)

    n = max(dumps[0].get("n", 0), 1)
    tokens = dumps[0].get("tokens") or {}
    calls = max(tokens.get("calls", 0), 1)
    pieces_in = max(tokens.get("pieces_in", 0), 1)
    scorer_load_s = run_median("runner.scorer_load") / 1e9
    rows_projected = sum(d.get("rows_projected", 0) for d in dumps)
    traced = statistics.median(t - d.get("count_s", 0.0) for t, d in zip(traced_walls, dumps))
    failed = {layer: sum(d["failed"].get(layer, 0) for d in dumps) for layer in LAYERS}
    metrics = {
        "data.load_us_per_ex": (run_median("data.load") / 1e3 / n, "us"),
        "template.load_ms": (run_median("template.load") / 1e6, "ms"),
        "soft_plan.build_ms": (run_median("soft_plan.build") / 1e6, "ms"),
        "verbalizer.load_ms": (run_median("verbalizer.load") / 1e6, "ms"),
        "tokenization.vocab_load_ms": (
            run_median("tokenization.vocab_load", "tokenization.build") / 1e6, "ms"),
        "tokenization.encode_us_p50": (call_us("tokenization.encode"), "us"),
        "tokenization.encode_us_p99": (call_us("tokenization.encode", 99), "us"),
        "tokenization.tokens_in_per_call": (tokens.get("pieces_in", 0) / calls, "tokens"),
        "tokenization.tokens_out_per_call": (tokens.get("pieces_out", 0) / calls, "tokens"),
        "tokenization.kept_ratio": (tokens.get("pieces_out", 0) / pieces_in, "ratio"),
        "tokenization.truncated_ratio": (tokens.get("truncated", 0) / calls, "ratio"),
        "tokenization.unk_ratio": (tokens.get("unk", 0) / pieces_in, "ratio"),
        "wrapping.wrap_us": (call_us("wrapping.wrap"), "us"),
        "wrapping.text_us": (call_us("wrapping.text"), "us"),
        "runner.scorer_load_s": (scorer_load_s, "s"),
        "runner.scorer_load_rows_per_s": (
            w.summary["logits_rows"] / scorer_load_s if w.summary["logits_rows"] else 0.0,
            "rows/s"),
        "runner.scorer_rss_mb": (
            statistics.median(d.get("scorer_rss_kb", 0) for d in dumps) / 1024, "MB"),
        "runner.score_us": (call_us("runner.score"), "us"),
        "verbalizer.project_us_per_row": (
            sum(per_run["verbalizer.project"]) / 1e3 / max(rows_projected, 1), "us"),
        "verbalizer.rows": (rows_projected / len(dumps), "count"),
        "runner.ensemble_us": (call_us("runner.ensemble"), "us"),
        "runner.example_us_p50": (_percentile_us(example_ns, 50), "us"),
        "runner.example_us_p99": (_percentile_us(example_ns, 99), "us"),
        "runner.examples": (len(example_ns), "count"),
        "runner.write_us_per_ex": (run_median("runner.write") / 1e3 / n, "us"),
        **{f"{layer}.failed": (failed[layer], "count") for layer in LAYERS},
        "trace.coverage": (statistics.median(coverage), "ratio"),
        "trace.overhead_ratio": (traced / statistics.median(untraced_walls) - 1, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _percentile_us(values: list[int], q: float) -> float:
    return float(np.percentile(values, q)) / 1e3 if values else 0.0


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    started = time.perf_counter()
    w = generate(name, seed, work)
    print(f"# {name} seed={seed} inputs generated in {time.perf_counter() - started:.1f} s")
    print("# inputs " + json.dumps(w.summary))
    check = Checker(work)
    if trace:
        metrics = measure_layers(w, work, seconds, check)
        for metric, m in metrics.items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    else:
        samples = measure_end_to_end(w, work, seconds, check)
        metrics = {}
        for metric, (unit, values) in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[metric] = {"value": med, "unit": unit}
            print(f"{name} {metric} = {med:.6g} {unit} "
                  f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"{name} failed_ratio = {check.failed / check.attempted:.6g} fraction "
          f"({check.failed} of {check.attempted} examples checked)")
    if check.failed and check.log.exists():
        sys.stderr.write(check.log.read_text(encoding="utf-8", errors="replace")[-2000:])
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    pin_to_one_cpu()
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), work / name)
            for name in names
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
