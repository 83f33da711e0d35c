"""protgo pipeline benchmark.

    python3 perfbench/run.py --workload annotate|train|corpus|all --seed N --seconds S --trace 0|1

One closed-loop caller drives the `protgo` CLI in this process: it runs the
workload's stages one after another, waits for each, and starts the next
cycle when the last one ends. The program is imported from `src/` next to
this directory; inputs are generated from `--seed`. `--workload all` runs the
three workloads one after another, each in a fresh child process.

--trace 0 sets up a fixed number of times, runs one untimed warm-up cycle,
then repeats the timed stages a fixed number of cycles: `--seconds` over the
workload's nominal cycle time on a 2-vCPU host, at least three. These
counts depend only on the workload and `--seconds`, never on how fast the
program is, so `attempted` and `failed` do not change when a stage gets
faster. It reports:

  items_per_s  the workload's headline throughput: valid queries per second
               of `predict` (annotate), real tokens per second over
               `pretrain` + `finetune` (train), records per second of
               `split --kind clustered` (corpus)
  setup_s      time to generate the inputs, preprocess them and, for
               annotate, make the random split and the three checkpoints
  peak_rss_mb  peak resident memory of this process

A throughput is the items of all timed invocations over their total time
(see `stage_work`); `setup_s` is the median set-up. Each set-up's and each
cycle's times are first scaled to the reference speed of reference.py, from
a fixed kernel like the workload's work timed just before and after it, so
that the host's changing speed does not show as a change of the program;
the values as measured are printed beside them.

--trace 1 first runs half of those cycles (at least two) untraced, then
installs the span tracer and runs a traced set-up and the other half (at
least one) traced. It reports the per-layer metrics of
layers.py and `trace.overhead_ratio` (traced over untraced cycle time), and
checks that every expected binding site was patched and hit and that the
self times the layer rows report cover at least 90% of each traced stage's
wall time. A span's self time is reported when a row reads that span's time,
or an inclusive (`.s`, `.fwd_s`, `.bwd_s`) row reads an enclosing span; a
span that only feeds a count row, or none, lowers the share. Stages that
feed no layer row (annotate's set-up split and finetune) are not checked.

The last line of stdout is the result; the line before it holds the
per-stage throughputs (null where no run of a stage succeeded),
failed_ops_ratio, the environment, each cycle and every failure. The same is
written to perfbench/out/<run>/result.json, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CYCLES = 3
# A traced run gives half its cycles, and at least two, to the untraced
# cycles that are the overhead ratio's denominator.
MIN_UNTRACED_CYCLES = 2
# the layer rows' self times must account for this share of each traced
# stage's wall time
COVERAGE_MIN = 0.9
# Conservative peak model: base process plus, per encoder layer, k float64
# tensors of shape B x H x L x L alive at once (4 when a forward pass keeps
# its graph, 8 once backward adds their gradients). It gives 2.2 GiB for both
# annotate (batch 4 x 1002 tokens, measured peak 1.4 GiB) and train (batch 8 x
# 502 tokens, measured 1.5 GiB), and 8.2 GiB for the shape known to be killed
# for lack of memory (train, batch 8 x 1002 tokens).
BASE_BYTES = 300 * 2**20
ATTENTION_TENSORS = {"infer": 4, "train": 8}
MEMORY_SHARE = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads():
    """Lets BLAS use every CPU this process may use, whatever the caller's
    environment says; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
        threads[var] = nproc
    return nproc, threads


def environment(np, nproc, threads):
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # show_config's layout varies across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "nproc": nproc, "os_cpu_count": os.cpu_count()}


def expected_peak_bytes(shapes, config):
    heads, layers = config.num_heads, config.num_layers
    return max((BASE_BYTES + layers * ATTENTION_TENSORS[mode] * b * heads * length * length * 8
                for mode, b, length in shapes), default=BASE_BYTES)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Counts ops (CLI stage invocations and output checks) and their failures."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.phase = "setup"
        self.attempted = 0
        self.failed = 0
        self.failed_checks = 0
        self.failures = []
        self.walls = {}  # run id -> wall seconds of a traced stage invocation
        self._serial = 0

    def stage(self, name, argv):
        """Runs one CLI stage in-process; returns (ok, seconds, captured stderr)."""
        self.attempted += 1
        self._serial += 1
        run_id = f"{self.phase}.{self._serial}.{name}"
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self.tracer.run_id = run_id
        err = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a crashing stage is a failed op, not a crashed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if traced:
            self.walls[run_id] = seconds
        ok = code == 0
        if not ok:
            detail = error or f"exit {code}: {err.getvalue().strip()[-300:]}"
            self._fail(f"{name}: {detail}")
        return ok, seconds, err.getvalue()

    def check(self, name, passes):
        """Runs one output check; a check that raises on a malformed or
        missing output fails like one that returns False."""
        self.attempted += 1
        try:
            ok, detail = bool(passes()), ""
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, detail = False, f": {type(exc).__name__}: {exc}"
        if not ok:
            self.failed_checks += 1
            self._fail(f"check {name} failed{detail}")
        return ok

    def _fail(self, message):
        self.failed += 1
        if message not in self.failures:
            self.failures.append(message)
            print(f"perfbench: {message}", file=sys.stderr)


def cycle_count(workload, seconds):
    return max(MIN_CYCLES, round(seconds / workload.cycle_s))


def run_cycles(workload, run, state, count, speed=None):
    cycles = []
    for _ in range(count):
        t0 = time.perf_counter()
        stages = workload.cycle(run, state)
        cycles.append((time.perf_counter() - t0, stages))
        if speed is not None:
            speed.sample()
    return cycles


def scale_cycles(cycles, factors):
    """Each cycle's times in reference seconds."""
    return [(wall * f, {stage: (secs * f, n) for stage, (secs, n) in stages.items()})
            for (wall, stages), f in zip(cycles, factors)]


def describe(cycles):
    return [{"wall_s": wall, **{stage: {"s": s, "items": items} for stage, (s, items) in stages.items()}}
            for wall, stages in cycles]


def stage_work(cycles):
    """stage -> (items per invocation, mean seconds) over the cycles where
    the stage succeeded. Every invocation of a stage does the same work, so
    their ratio is total items over total time. Other tenants of the host
    slow this code by up to 1.8x in spells from under a second to minutes, so
    a stage's times cluster around two or three speeds; the median jumps
    between those clusters from run to run, the mean moves smoothly."""
    times, items = {}, {}
    for _, stages in cycles:
        for stage, (secs, n) in stages.items():
            times.setdefault(stage, []).append(secs)
            items[stage] = n
    return {stage: (items[stage], statistics.fmean(t)) for stage, t in times.items()}


def setup(workload, run, work):
    state = workload.setup(run, work)
    if not state["ok"]:
        raise SystemExit(f"perfbench: set-up of workload '{workload.name}' failed")
    return state


def untraced(workload, run, work, seconds):
    from reference import HostSpeed

    speed = HostSpeed(workload.reference)
    speed.sample()
    setups, state = [], None
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        fresh = setup(workload, run, work / f"setup{len(setups)}")
        setups.append(time.perf_counter() - start)
        speed.sample()
        if state is not None:
            shutil.rmtree(state["work"])
        state = fresh
    run.phase = "warmup"
    run_cycles(workload, run, state, 1, speed)
    run.phase = "cycle"
    cycles = run_cycles(workload, run, state, cycle_count(workload, seconds), speed)
    factors = speed.factors()
    setups_ref = [s * f for s, f in zip(setups, factors)]
    raw, work_done = stage_work(cycles), stage_work(scale_cycles(cycles, factors[len(setups) + 1:]))
    if any(stage not in work_done for stage in workload.headline_stages):
        raise SystemExit(f"perfbench: workload '{workload.name}' never completed {workload.headline_stages}")

    def headline(done):
        return (sum(done[s][0] for s in workload.headline_stages)
                / sum(done[s][1] for s in workload.headline_stages))

    metrics = {"setup_s": {"value": statistics.median(setups_ref), "unit": "s"},
               "items_per_s": {"value": headline(work_done), "unit": "items/s"},
               "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"}}
    # as measured, before scaling to reference speed
    report = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
              "items_per_s": {"value": headline(raw), "unit": "items/s"}}
    for metric, stage, unit in workload.stage_metrics:
        n, t = raw.get(stage, (None, None))
        report[metric] = {"value": None if n is None else n / t, "unit": unit}
    report["peak_rss_mb"] = metrics["peak_rss_mb"]
    report["failed_ops_ratio"] = {"value": run.failed / run.attempted, "unit": "ratio"}
    return metrics, {"stage_metrics": report, "reference_s": speed.samples, "setups_s": setups,
                     "cycles": describe(cycles)}


def traced(workload, run, work, seconds, protgo):
    import layers
    import tracer as tracing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    if declared != layers.per_layer():
        raise SystemExit("perfbench: BENCHMARK.json per_layer differs from layers.ROWS; "
                         "regenerate it with `python3 perfbench/layers.py`")

    total = cycle_count(workload, seconds)
    untraced_cycles = max(MIN_UNTRACED_CYCLES, total // 2)
    state = setup(workload, run, work / "untraced")
    run.phase = "cycle"
    plain = run_cycles(workload, run, state, untraced_cycles)

    tr = tracing.Tracer()
    modules = tracing.install(tr, protgo)
    run.tracer = tr
    tr.enabled, run.phase = True, "setup"
    state = setup(workload, run, work / "traced")
    run.phase = "cycle"
    cycles = run_cycles(workload, run, state, max(1, total - untraced_cycles))
    tr.enabled = False

    n = len(cycles)

    def weight(run_id):
        """Per-layer values cover one cycle plus the set-up's preprocess runs."""
        if run_id.startswith("cycle."):
            return 1.0 / n
        return 1.0 if run_id.endswith(".preprocess") else 0.0

    stats = tracing.aggregate(tr.spans, weight)
    counts = {}
    for (run_id, name), value in tr.counts.items():
        counts[name] = counts.get(name, 0.0) + weight(run_id) * value
    seq_ms = [1000.0 * (s[4] - s[3]) for s in tr.spans
              if s[2] == "fusion.FusionModel.predict" and s[5].startswith("cycle.")]
    overhead = statistics.fmean(c[0] for c in cycles) / statistics.fmean(c[0] for c in plain)
    metrics = layers.derive(tr, stats, counts, seq_ms, overhead)

    bad = tracing.unpatched_sites(modules, workload.expected_sites)
    missed = [s for s in workload.expected_sites if s in tr.sites and tr.hits[s] == 0]
    run.check(f"tracer.sites_patched_and_hit (unpatched={bad} not hit={missed})", lambda: not bad and not missed)
    covered = tracing.covered_by_run(tr.spans, *layers.covered_spans(tr))
    coverage = {}
    for run_id, wall in run.walls.items():
        if not weight(run_id):
            continue  # annotate's split and checkpoint training feed no layer row
        share = coverage[run_id] = covered.get(run_id, 0.0) / wall
        run.check(f"tracer.coverage[{run_id}] (layer rows cover {share:.3f} of wall)",
                  lambda: share >= COVERAGE_MIN)
    tr.write(work / "spans.tsv")
    return metrics, {"cycles_untraced": describe(plain), "cycles_traced": describe(cycles),
                     "spans": len(tr.spans), "coverage": coverage,
                     "absent_sites": [s for s in workload.expected_sites if s not in tr.sites]}


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    code = 0
    for name in ("annotate", "train", "corpus"):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc, threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import protgo
        from protgo import cli
        from protgo.model import ModelConfig
    except ImportError as exc:
        print(f"perfbench: cannot import protgo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(protgo.__file__).resolve().parent != ROOT / "src" / "protgo":
        print(f"perfbench: protgo was imported from {protgo.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}' (choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    mem_total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    expected = expected_peak_bytes(workload.shapes(), ModelConfig())
    if expected > MEMORY_SHARE * mem_total:
        print(f"perfbench: refusing workload '{workload.name}': expected peak {expected / 2**30:.1f} GiB "
              f"exceeds {MEMORY_SHARE:.0%} of {mem_total / 2**30:.1f} GiB", file=sys.stderr)
        return 3

    work = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(cli)
    if args.trace:
        metrics, detail = traced(workload, run, work, args.seconds, protgo)
    else:
        metrics, detail = untraced(workload, run, work, args.seconds)

    correct = run.failed_checks == 0
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "env": environment(np, nproc, threads), "expected_peak_gib": expected / 2**30,
            "attempted": run.attempted, "failed": run.failed, "failures": run.failures, **detail}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({**info, "result": result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
