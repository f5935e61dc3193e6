"""fps-iterate benchmark: one closed-loop client, in one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The seed makes one pass of requests (see ``workloads.py``); the
client repeats that pass for ``--seconds``, checks every answer, and
prints one JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics with tracing off. Their times,
except set-up, are scaled to a nominal host speed (see ``HostSpeed``), so
that the host running faster or slower for minutes at a time does not show
as a change of the package.
``--trace 1`` reports the per-layer metrics instead, from one traced
pass; spans go to ``.perfbench-out/`` in the checkout. A human-readable
report, with the environment, goes to stderr. Exit status is 1 when any
request failed or answered wrong, 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("sweep-rational", "symbolic", "coeff-queries")
SETUP_PROBES = 11
# nominal seconds for one reference() call, about what it took in the fast
# phases of a 2-vCPU VM with Python 3.11.7; request and pass times are scaled to it
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.1
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the pass, say "ready" and exit (set-up timing)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def commit() -> str:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def reference() -> int:
    """Fixed pure-Python work that does not touch the package, in the mix
    the package's hot loops have: int arithmetic with gcds, stdlib Fraction
    arithmetic, and a product of dicts keyed by exponent tuples. The garbage
    collector is off while it runs, so the size of the package's heap does
    not change its time."""
    gc.disable()
    try:
        acc = 1
        for i in range(1, 2001):
            acc = (acc * 1000003 + i) % 998244353
            acc += math.gcd(acc, i * 7919)
        total = Fraction(0)
        for i in range(1, 161):
            total += Fraction(i % 7 - 3, i % 11 + 1)
            total = Fraction(total.numerator % 10007, total.denominator % 10007 or 1)
        poly = {(i, j): 3 * i + j + 1 for i in range(6) for j in range(6)}
        product: dict[tuple[int, int], int] = {}
        for _ in range(2):
            for (i1, j1), c1 in poly.items():
                for (i2, j2), c2 in poly.items():
                    key = (i1 + i2, j1 + j2)
                    product[key] = product.get(key, 0) + c1 * c2
        return acc + total.denominator + len(product)
    finally:
        gc.enable()


class HostSpeed:
    """Times reference() between requests, every SAMPLE_EVERY_S. Over a run,
    the median of these times against REFERENCE_S is how much slower the
    host ran than nominal; ``scale`` undoes it. On the host this benchmark
    was made on, that median ranged from 1.7 to 3.0 ms between runs, in
    phases of seconds to minutes, and CPU time slowed as much as wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self) -> float:
        """Time one reference() call if a sample is due; return the seconds
        it took."""
        start = time.perf_counter()
        if start < self.due:
            return 0.0
        reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.due = end + SAMPLE_EVERY_S
        return end - start

    def scale(self) -> float:
        """Nominal over measured speed: multiply a time by it, divide a rate."""
        return REFERENCE_S / statistics.median(self.samples)


def measure_setup(args) -> float:
    """Median time from spawning a fresh interpreter to its pass being built:
    interpreter start, importing fps_iterate, generating inputs. It is not
    scaled to the nominal host speed: the child may run on another CPU than
    the one the reference is timed on, and scaling made its spread worse."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait() != 0 or line != "ready\n":
                raise RuntimeError("set-up probe failed")
        times.append(ready - start)
    return statistics.median(times)


class Tally:
    """Outcomes of a run, and the latency of each request of the pass on
    every repetition."""

    def __init__(self, p, host: HostSpeed):
        self.host = host
        self.latencies: list[list[float]] = [[] for _ in p.requests]
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.probes_clean = 0
        self.errors: list[str] = []


def run_pass(p, tally: Tally, tracer=None, deadline=None) -> bool:
    """Run the requests of the pass, then its probes. With a deadline, stop
    after the first request that ends past it and return False; the
    latencies taken so far still count, the pass time does not. Host speed
    samples are taken between requests, except in a traced pass, and their
    time is not part of the pass time."""
    start = time.perf_counter()
    sampling_s = 0.0
    for request, latencies in zip(p.requests, tally.latencies):
        if tracer is not None:
            tracer.request += 1
        else:
            sampling_s += tally.host.sample()
        problem = "wrong answer or exit status"
        t0 = time.perf_counter()
        try:
            ok = request.run()
        except Exception as exc:  # a crash is a failed request; keep going
            ok = False
            problem = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            tally.errors.append(f"{request.kind}: {problem}")
        if deadline is not None and t1 >= deadline:
            return False
    for request in p.probes:
        if tracer is not None:
            tracer.request += 1
        tally.probes += 1
        try:
            tally.probes_clean += request.run()
        except Exception:  # a traceback is not a clean refusal
            pass
    tally.pass_s.append(time.perf_counter() - start - sampling_s)
    return True


def repeat_pass(p, seconds: float, host: HostSpeed, min_passes: int = MIN_PASSES) -> Tally:
    """Repeat the pass until ``seconds`` have elapsed, stopping after the
    request in progress, but not before ``min_passes`` complete passes.
    Every pass is timed; the medians taken over them absorb the first,
    colder one."""
    tally = Tally(p, host)
    deadline = time.perf_counter() + seconds
    while run_pass(p, tally, deadline=deadline if len(tally.pass_s) >= min_passes else None):
        pass
    return tally


def end_to_end(args, p) -> tuple[Tally, dict]:
    """Every time but setup_s is scaled to the nominal host speed."""
    setup_s = measure_setup(args)
    host = HostSpeed()
    tally = repeat_pass(p, args.seconds, host)
    scale = host.scale()
    pass_s = statistics.median(tally.pass_s) * scale
    # each request's latency is its median over the repetitions
    latency_ms = [statistics.median(x) * 1000 * scale for x in tally.latencies]
    metrics = {
        "cells_per_s": (sum(r.cells for r in p.requests) / pass_s, "1/s"),
        "requests_per_s": (len(p.requests) / pass_s, "1/s"),
        "request_p50_ms": (statistics.median(latency_ms), "ms"),
        "request_p90_ms": (statistics.quantiles(latency_ms, n=10)[8], "ms"),
        "malformed_clean_ratio": (tally.probes_clean / tally.probes, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def per_layer(args, p) -> tuple[Tally, dict]:
    """Trace one repetition of the pass, so that counts repeat for a seed;
    the untraced repetitions before it give the tracing overhead. They take
    half of ``--seconds``, and the slower traced pass about the other half."""
    import tracing

    tally = repeat_pass(p, args.seconds / 2, HostSpeed(), min_passes=2)
    untraced_s = statistics.median(tally.pass_s)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass(p, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (tally.pass_s.pop() / untraced_s, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
    tracer.write_spans(str(path))
    print(f"spans: {len(tracer.span_id)} in {path.relative_to(ROOT)}", file=sys.stderr)
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fps_iterate" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = os.environ.pop("FPS_ITERATE_THREADS", None)
    import fps_iterate
    import workloads

    if Path(fps_iterate.__file__).resolve().parent != SRC / "fps_iterate":
        print(f"error: fps_iterate imported from {fps_iterate.__file__}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        p = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        tally, metrics = measure(args, p)

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "FPS_ITERATE_THREADS": "unset" if threads is None else f"unset (was {threads!r})",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    report = sys.stderr
    for key, value in env.items():
        print(f"{key}: {value}", file=report)
    print(
        f"requests: {tally.attempted}, complete passes: {len(tally.pass_s)} "
        f"(median {statistics.median(tally.pass_s):.3f} s), failed {tally.failed}, "
        f"malformed probes clean {tally.probes_clean}/{tally.probes}",
        file=report,
    )
    host = tally.host
    print(
        f"host speed: reference() median {statistics.median(host.samples) * 1000:.3f} ms over "
        f"{len(host.samples)} samples, nominal {REFERENCE_S * 1000:.3f} ms"
        + ("" if args.trace else f"; request and pass times scaled by {host.scale():.4f}"),
        file=report,
    )
    for line in tally.errors[:10]:
        print(f"  {line}", file=report)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}", file=report)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
