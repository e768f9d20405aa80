"""Time-to-verdict benchmark for the excol command line.

    python3 perfbench/run.py --workload projective --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the package under ./src and the
shipped documents under ./fixtures.  With --trace 0 every job is a fresh
`python -m excol <cmd> <doc> --json` process, run one after another (a
closed loop with one client), timed from spawn to exit, and passes over the
workload's jobs repeat until --seconds is used up.  A fixed reference job
(probe.py) runs between jobs, and each job's time is scaled by the probe
times nearest it to the host speed at which the probe takes PROBE_REF_S.
With --trace 1 the same jobs run in this process, alternating an untraced
pass and a pass with spans around each module's public functions
(tracing.py), and the per-layer metrics are reported.  Every job's output
is checked (check.py).  The last line of stdout is one JSON object; the
lines above it name every metric with its unit and sample count.
--workload all runs every workload in turn.

Generated documents, the spans and a record of each run (seed, document
hashes, per-pass values scaled and raw, probe times) are written under
./.perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 5

# The host-speed probe: a job of fixed work, run before a job whenever
# PROBE_GAP_S has passed since the last probe.  A job's time is scaled by
# PROBE_REF_S over the median of the PROBE_NEAREST probe times nearest it.
# On a shared 2-vCPU KVM guest the speed of a core drifted by up to a half
# over minutes, and the probe followed the jobs (pass times correlated with
# it at r = 0.94), so the scaled times stay steady where raw ones do not.  PROBE_REF_S is
# the unit of every timing: keep it, or the baseline moves.
PROBE = os.path.join(HERE, "probe.py")
PROBE_OUTPUT = '{"rank": 11, "pivot": "1"}'
PROBE_REF_S = 0.1
PROBE_GAP_S = 2.0
PROBE_NEAREST = 3

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("validate_s", "s"),
    ("pseudoheight_s", "s"),
    ("e1_s", "s"),
    ("ss_s", "s"),
    ("height_s", "s"),
    ("report_s", "s"),
    ("fullness_s", "s"),
    ("fixture_s", "s"),
    ("startup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# per-layer metrics of the traced run for the JSON line; projective never
# enters qualitative_ph_bounds, so that time would read a constant zero there
# and is printed only, with its call count in the JSON line
PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.import_s", "s"),
    ("model.parse_s", "s"),
    ("model.doc_bytes", "bytes"),
    ("model.validate_s", "s"),
    ("fixtures.document_s", "s"),
    ("pseudoheight.exact_s", "s"),
    ("pseudoheight.exact_calls", "count"),
    ("pseudoheight.qualitative_calls", "count"),
    ("pseudoheight.chains_walked", "count"),
    ("nhh.enumerate_s", "s"),
    ("nhh.terms", "count"),
    ("nhh.live_chain_ratio", "ratio"),
    ("nhh.assemble_s", "s"),
    ("nhh.assemble_calls", "count"),
    ("nhh.complex_dim", "count"),
    ("nhh.nnz", "count"),
    ("nhh.cohomology_s", "s"),
    ("nhh.ss_s", "s"),
    ("nhh.ss_calls", "count"),
    ("exactlin.self_s", "s"),
    ("exactlin.rref_s", "s"),
    ("exactlin.rref_calls", "count"),
    ("exactlin.rref_rows", "count"),
    ("exactlin.rank_yield", "ratio"),
    ("exactlin.subspace_s", "s"),
    ("exactlin.subspace_builds", "count"),
    ("exactlin.kernel_s", "s"),
    ("exactlin.kernel_calls", "count"),
    ("exactlin.apply_s", "s"),
    ("exactlin.apply_calls", "count"),
    ("exactlin.compose_s", "s"),
    ("exactlin.compose_calls", "count"),
    ("heights.self_s", "s"),
    ("heights.height_calls", "count"),
    ("fullness.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
PRINT_ONLY = [
    ("failed_frac", "ratio"),
    ("probe_s", "s"),
    ("pseudoheight.qualitative_s", "s"),
]


class Checkout:
    """The tree under test: ./src/excol and ./fixtures of the working directory."""

    def __init__(self, root):
        self.root = root
        self.src = os.path.join(root, "src")
        self.fixtures = os.path.join(root, "fixtures")
        if not os.path.isfile(os.path.join(self.src, "excol", "__init__.py")):
            raise SystemExit(f"error: no package at {self.src}/excol; run from a checkout root")
        if not os.path.isdir(self.fixtures):
            raise SystemExit(f"error: no shipped fixtures at {self.fixtures}")
        self.env = {k: v for k, v in os.environ.items() if k != "EXCOL_FIXTURES"}
        self.env["PYTHONPATH"] = self.src

    def spawn(self, argv, program=("-m", "excol")):
        """Run one job to exit; returns (exit code, stdout, start, seconds, peak RSS in MB)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *program, *argv],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()
            proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out.decode("utf-8", "replace"), t0, elapsed,
                usage.ru_maxrss / 1024)

    def import_excol(self):
        if self.src not in sys.path:
            sys.path.insert(0, self.src)
        import excol.cli

        where = os.path.dirname(os.path.abspath(excol.cli.__file__))
        if where != os.path.join(self.src, "excol"):
            raise SystemExit(f"error: imported excol from {where}, not from {self.src}")
        return excol.cli


def _median(values):
    return statistics.median(values) if values else 0.0


class HostSpeed:
    """Probe times through a run, and the scaling of job times they give."""

    def __init__(self, co):
        self.co = co
        self.probes = []  # (middle of the probe, seconds)
        self.last = -float("inf")

    def probe(self):
        code, out, t0, elapsed, _ = self.co.spawn([PROBE], program=())
        if code != 0 or out.strip() != PROBE_OUTPUT:
            raise SystemExit(f"error: the host-speed probe failed: {out.strip()!r}")
        self.probes.append((t0 + elapsed / 2, elapsed))
        self.last = time.perf_counter()

    def probe_if_due(self):
        if time.perf_counter() - self.last >= PROBE_GAP_S:
            self.probe()

    def scale(self, start, elapsed):
        """elapsed seconds from start, at the host speed where the probe takes PROBE_REF_S."""
        middle = start + elapsed / 2
        nearest = sorted(self.probes, key=lambda p: abs(p[0] - middle))[:PROBE_NEAREST]
        return elapsed * PROBE_REF_S / _median([s for _, s in nearest])


def setup(co, name, seed, speed):
    """Build the workload SETUP_REPEATS times; returns (workload, scaled times)."""
    workdir = os.path.join(co.root, ".perfbench", f"{name}-{seed}")
    times = []
    speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, co.root, workdir)
        code = co.spawn(["fixture", "--list", "--json"])[0]  # warm-up
        times.append((t0, time.perf_counter() - t0))
        if code != 0:
            raise SystemExit("error: the warm-up job failed")
        speed.probe()
    return wl, [speed.scale(t0, elapsed) for t0, elapsed in times]


def spawned_pass(co, wl, speed):
    """One pass of fresh processes; returns (job timings, results)."""
    timings = []
    results = {}
    for job in wl.jobs:
        speed.probe_if_due()
        code, out, t0, elapsed, rss = co.spawn(job.argv)
        results[job.id] = (code, out)
        timings.append((job, t0, elapsed, rss))
    return timings, results


def pass_values(timings, scale):
    """Per-metric values of one pass, each job's seconds mapped through scale."""
    values = {m: 0.0 for m, _ in END_TO_END if m != "setup_s"}
    startup = []
    for job, t0, elapsed, rss in timings:
        seconds = scale(t0, elapsed)
        values["peak_rss_mb"] = max(values["peak_rss_mb"], rss)
        values["pass_s"] += seconds
        if job.cmd == "startup":
            startup.append(seconds)
        else:
            values[job.metric] += seconds
    values["startup_s"] = _median(startup)
    return values


def in_process_pass(cli, wl, tracer=None):
    """One pass through cli.main in this process; returns (seconds, results)."""
    results = {}
    t0 = time.perf_counter()
    for job in wl.jobs:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job.id
            span = tracer.open("cli.main")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
        if tracer is not None:
            tracer.close(span)
        results[job.id] = (code, out.getvalue())
    return time.perf_counter() - t0, results


def import_seconds(co):
    """Median time of `import excol.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import excol.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=co.root, env=co.env,
                             capture_output=True, text=True, check=True).stdout
        times.append(float(out))
    return _median(times)


def _keep_going(t0, passes, seconds):
    """Whether one more pass of average length still ends within seconds."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / passes <= seconds


class Run:
    """Counts of jobs attempted and failed, with the first failure reasons."""

    def __init__(self, wl, fixture_dir):
        self.wl = wl
        self.fixture_dir = fixture_dir
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, results):
        fails = check.check_pass(self.wl.jobs, results, self.wl.refs, self.fixture_dir)
        self.attempted += len(results)
        self.failed += len(fails.reasons)
        self.reasons += list(fails.reasons.values())[: 10 - len(self.reasons)]


def measure(co, wl, seconds, speed, setup_times):
    run = Run(wl, co.fixtures)
    timings = []
    t0 = time.perf_counter()
    while True:
        pass_timings, results = spawned_pass(co, wl, speed)
        run.check(results)
        timings.append(pass_timings)
        if not _keep_going(t0, len(timings), seconds):
            break
    speed.probe()
    passes = [pass_values(t, speed.scale) for t in timings]
    metrics = {m: (_median([p[m] for p in passes]), len(passes))
               for m, _ in END_TO_END if m != "setup_s"}
    metrics["setup_s"] = (_median(setup_times), len(setup_times))
    metrics["failed_frac"] = (run.failed / run.attempted, run.attempted)
    probes = [s for _, s in speed.probes]
    metrics["probe_s"] = (_median(probes), len(probes))
    raw = [pass_values(t, lambda t0, elapsed: elapsed) for t in timings]
    return run, metrics, {"passes": passes, "raw_passes": raw, "probes": speed.probes}


def measure_traced(co, wl, seconds, speed, setup_times):
    import tracing

    cli = co.import_excol()
    run = Run(wl, co.fixtures)
    plain, traced, layers, spans = [], [], [], []
    t0 = time.perf_counter()
    while True:
        elapsed, results = in_process_pass(cli, wl)
        run.check(results)
        plain.append(elapsed)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            elapsed, results = in_process_pass(cli, wl, tracer)
        finally:
            uninstall()
        run.check(results)
        traced.append(elapsed)
        layers.append(tracer.layer_metrics())
        spans.append(tracer.spans)
        if not _keep_going(t0, len(traced), seconds):
            break
    metrics = {m: (_median([p[m] for p in layers]), len(layers)) for m in layers[0]}
    metrics["cli.import_s"] = (import_seconds(co), IMPORT_REPEATS)
    metrics["trace.overhead_frac"] = (_median(traced) / _median(plain) - 1, len(traced))
    metrics["failed_frac"] = (run.failed / run.attempted, run.attempted)
    return run, metrics, {"plain_pass_s": plain, "traced_pass_s": traced,
                          "layers": layers, "spans": spans}


def run_workload(co, name, seed, seconds, traced):
    speed = HostSpeed(co)
    wl, setup_times = setup(co, name, seed, speed)
    measure_fn = measure_traced if traced else measure
    run, metrics, record = measure_fn(co, wl, seconds, speed, setup_times)
    listed = PER_LAYER if traced else END_TO_END
    for m, unit in listed + PRINT_ONLY:
        if m in metrics:
            value, samples = metrics[m]
            print(f"{name:10s} {m:32s} {value:14.6f} {unit:6s} n={samples}")
    for reason in run.reasons:
        print(f"{name}: FAILED {reason}", file=sys.stderr)
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  documents=wl.docs, setup_s=setup_times, attempted=run.attempted,
                  failed=run.failed, failures=run.reasons,
                  metrics={m: v for m, (v, _) in metrics.items()})
    out = os.path.join(co.root, ".perfbench", f"run-{name}-{seed}-trace{int(traced)}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    result = {m: {"value": metrics[m][0], "unit": unit} for m, unit in listed}
    return run, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    co = Checkout(os.getcwd())
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, result = run_workload(co, name, args.seed, args.seconds, args.trace == 1)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
