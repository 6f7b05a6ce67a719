"""Plumbing shared by the workloads: checkout layout, timing, results."""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from tracing import by_layer, by_name

BENCH_DIR = Path(__file__).resolve().parent

# BLAS and FFT pools pinned to one thread, in this process and its children;
# run.py sets them before numpy can be imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SETUP_PROBES = 5
PROBE_REPEATS = 3
HEAVY_MODULES = ("numpy", "scipy", "scipy.linalg")


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or fixture)."""


class Checkout:
    """Paths of the checkout under test and a scratch directory inside it."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.fixture = self.src / "jetforms" / "fixtures" / "fourth_order_wave.jet"
        self.golden = root / "tests" / "golden"
        for path in (self.src / "jetforms" / "__init__.py", self.fixture):
            if not path.is_file():
                raise SetupError(f"{path} not found: run from the root of a jetforms checkout")
        self.scratch = root / ".bench_tmp" / str(os.getpid())
        self.env = dict(os.environ)
        self.env.pop("JETFORMS_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(self.scratch)

    def __enter__(self):
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.scratch.parent.rmdir()

    def import_jetforms(self):
        """Import the package from this checkout's sources, never another copy."""
        sys.path.insert(0, str(self.src))
        import jetforms

        origin = Path(jetforms.__file__).resolve()
        if self.src.resolve() not in origin.parents:
            raise SetupError(f"imported jetforms from {origin}, not from {self.src}")
        return jetforms

    def python(self, args: list, timeout: float = 170.0):
        """Run the interpreter on ``args``; returns (wall seconds, CompletedProcess)."""
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        return perf_counter() - start, proc


# The reference loop.  The speed of a shared virtual CPU drifts by tens of
# percent over seconds to minutes, so the benchmark samples a fixed reference
# loop throughout each operation and also gives the operation's time in ref
# units: its wall time over the mean time of one ref, REF_CHUNKS_PER_UNIT
# chunks of the loop, sampled while it ran.  In-process work is interrupted
# every REF_INTERVAL_S by a SIGALRM handler that runs one chunk, in the same
# thread; the handler's time is taken out of the operation's.  There a chunk
# is integer arithmetic followed by scattered reads of a buffer 32 times the
# 2 MiB L2 cache: the arithmetic alone tracked the drift of the symbolic and
# numeric work only in part.
# Work in a child process shares the pinned CPU with this process, so there
# the chunks run after each segment instead, for REF_SHARE of the segment's
# duration, and are the arithmetic alone: a child's peak RSS counts the
# parent's memory at the time it was spawned, so the buffer would show in
# it, and the reads did not steady the subprocess timings.
REF_ARITHMETIC = 20_000
REF_READS = 4_000
REF_BUFFER_ITEMS = 8 * 1024 * 1024  # doubles: 64 MiB
REF_CHUNKS_PER_UNIT = 32
REF_INTERVAL_S = 0.04
REF_SHARE = 0.1
REF_MIN_CHUNKS = 5
# setup_s must read in seconds, so its ref units (arithmetic alone) are
# converted at the typical speed of a 2.1 GHz Xeon vCPU
REF_NOMINAL_S = 0.06


def _reference_chunk(buffer, start: int) -> float:
    total = 0
    for i in range(REF_ARITHMETIC):
        total += i * i % 7
    if buffer is not None:
        mask = len(buffer) - 1
        for i in range(start, start + REF_READS):
            total += buffer[(i * 2654435761) & mask]
    return total


class Clock:
    """Wall time and ref units of operations made of timed segments."""

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self._buffer = array("d", [0.0]) * REF_BUFFER_ITEMS if in_process else None
        self.units_s: list = []  # seconds per ref, one per operation
        self._reads = 0
        self._seconds = 0.0
        self._chunks: list = []  # seconds of each reference chunk in this operation
        self._busy = False

    def _chunk(self, *_):
        if self._busy:  # a signal that arrives during a chunk is dropped
            return
        self._busy = True
        start = perf_counter()
        _reference_chunk(self._buffer, self._reads)
        self._chunks.append(perf_counter() - start)
        self._reads += REF_READS
        self._busy = False

    def time(self, fn, *args):
        """(result, wall seconds) of one segment ``fn(*args)``, added to the
        current operation."""
        if self.in_process:
            sampled = len(self._chunks)
            previous = signal.signal(signal.SIGALRM, self._chunk)
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                wall = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = wall - sum(self._chunks[sampled:])
        else:
            start = perf_counter()
            result = fn(*args)
            seconds = perf_counter() - start
            start = perf_counter()
            while perf_counter() - start < REF_SHARE * seconds:
                self._chunk()
        self._seconds += seconds
        return result, seconds

    def op(self):
        """(wall seconds, ref units) of the operation since the last call."""
        while len(self._chunks) < REF_MIN_CHUNKS:
            self._chunk()
        unit_s = statistics.fmean(self._chunks) * REF_CHUNKS_PER_UNIT
        self.units_s.append(unit_s)
        seconds = self._seconds
        self._seconds, self._chunks = 0.0, []
        return seconds, seconds / unit_s

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the work this clock timed: of the largest
        child process, or of this process less the reference buffer."""
        if not self.in_process:
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        buffer_mb = len(self._buffer) * self._buffer.itemsize / 2**20
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - buffer_mb


def measure(seconds: float, op, min_samples: int = 1) -> list:
    """Call ``op``, which returns its own (wall seconds, ref units), until
    ``seconds`` of wall time have passed and at least ``min_samples`` times."""
    samples = []
    start = perf_counter()
    while len(samples) < min_samples or perf_counter() - start < seconds:
        samples.append(op())
    return samples


def setup_samples(checkout, workload: str, seed: int) -> list:
    """(wall seconds, ref units) of SETUP_PROBES fresh processes that each
    start the interpreter, import what the workload needs, make its seeded
    inputs, warm up and exit: the set-up a run pays before its first timed
    operation."""
    clock, samples = Clock(in_process=False), []
    for _ in range(SETUP_PROBES):
        (_, proc), _ = clock.time(
            checkout.python, [str(BENCH_DIR / "setup_probe.py"), workload, str(seed)])
        if proc.returncode != 0:
            raise SetupError(f"set-up of {workload} failed: {proc.stderr.strip()[-500:]}")
        samples.append(clock.op())
    return samples


def run_main(main, argv: list):
    """Call a CLI ``main`` in-process; (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def startup_probes(checkout: Checkout) -> dict:
    """Interpreter start-up, ``import jetforms`` and the heavy modules it loads,
    each measured in fresh subprocesses."""
    interp, imports = [], []
    timed_import = (
        "import time; t = time.perf_counter(); import jetforms; "
        "print(time.perf_counter() - t)"
    )
    for _ in range(PROBE_REPEATS):
        wall, proc = checkout.python(["-c", "pass"])
        interp.append(wall)
        _, proc = checkout.python(["-c", timed_import])
        proc.check_returncode()
        imports.append(float(proc.stdout))
    heavy = (
        "import sys, jetforms.dedonder; "
        f"print(sum(name in sys.modules for name in {HEAVY_MODULES!r}))"
    )
    _, proc = checkout.python(["-c", heavy])
    proc.check_returncode()
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.heavy_imports": int(proc.stdout),
    }


class Results:
    """Operation outcomes, metrics and human-readable notes of one run."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.metrics: dict = {}
        self.notes: list = []

    def op(self, label: str, problems: list):
        """Count one operation; it failed if any of its checks reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def note(self, text: str):
        self.notes.append(text)

    def timing(self, samples: list, clock: Clock, what: str) -> float:
        """Record op_ref, the median in ref units of the (seconds, ref units)
        ``samples``, note both medians with their tails, and return the
        median in seconds."""
        seconds, units = zip(*samples)
        self.metrics["op_ref"] = statistics.median(units)
        self.metrics["machine.ref_unit_s"] = statistics.median(clock.units_s)
        for name, values, unit in (("op_ref", units, "ref"), ("op_s", seconds, "s")):
            self.note(
                f"{name} = {statistics.median(values):.6g} {unit} (median of n={len(values)}, "
                f"max {max(values):.6g}; samples {' '.join(f'{v:.4g}' for v in values)})"
            )
        self.note(f"op = {what}")
        self.note(
            f"machine.ref_unit_s = {self.metrics['machine.ref_unit_s']:.6g} s per ref (median "
            f"over {len(clock.units_s)} operations, min {min(clock.units_s):.4g}, "
            f"max {max(clock.units_s):.4g})"
        )
        return statistics.median(seconds)

    def setup(self, samples: list):
        """Record setup_s, the median of the (seconds, ref units) ``samples``
        in seconds at REF_NOMINAL_S per ref, and note the wall times."""
        seconds, units = zip(*samples)
        nominal = [u * REF_NOMINAL_S for u in units]
        self.metrics["setup_s"] = statistics.median(nominal)
        for name, values in (("setup_s", nominal), ("setup wall time", seconds)):
            self.note(f"{name} = {statistics.median(values):.6g} s (median of n={len(values)}, "
                      f"max {max(values):.6g} s; samples {' '.join(f'{v:.4g}' for v in values)})")

    def trace(self, untraced_s: float, traced_s: float, op_spans: list, all_spans: list):
        """Tracing overhead, self time per layer of the traced operation with
        the remainder no span covers, and per-call self time and call count of
        every declared span name over ``all_spans``."""
        layers = by_layer(op_spans)
        m = self.metrics
        m["trace.op_untraced_s"] = untraced_s
        m["trace.op_traced_s"] = traced_s
        m["trace.overhead_s"] = traced_s - untraced_s
        m["trace.remainder_s"] = traced_s - sum(layers.values())
        self.note(
            f"tracing overhead = {m['trace.overhead_s']:.6g} s "
            f"(traced {traced_s:.6g} s, untraced {untraced_s:.6g} s)"
        )
        for layer, own in layers.items():
            m[f"layer.{layer}_self_s"] = own
            self.note(f"layer {layer:13s} self {own:10.6f} s")
        self.note(f"layer {'(untraced)':13s} self {m['trace.remainder_s']:10.6f} s")
        for name, (own, calls) in sorted(by_name(all_spans).items()):
            if f"{name}_calls" in self.declared:
                m[f"{name}_s"] = own / calls
                m[f"{name}_calls"] = calls
                self.note(f"span {name}: {calls} calls, {own / calls:.6g} s self per call")

    def emit(self, trace: bool):
        """Print notes, then the result line with exactly the metrics
        BENCHMARK.json lists for this mode."""
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        unknown = set(self.metrics) - self.declared
        if unknown:
            raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        metrics = {}
        for m in wanted:
            if m["name"] not in self.metrics and not trace:
                raise KeyError(f"end-to-end metric {m['name']} was not measured")
            # per-layer metrics of layers this workload never calls read 0
            metrics[m["name"]] = {"value": self.metrics.get(m["name"], 0), "unit": m["unit"]}
        for line in self.notes:
            print(line)
        share = self.failed / self.attempted if self.attempted else 1.0
        print(f"failed_op_share = {share:.6g} ({self.failed} of {self.attempted} operations)")
        for problem in self.problems[:20]:
            print(f"FAILED {problem}")
        if len(self.problems) > 20:
            print(f"... {len(self.problems) - 20} more failures")
        result = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
