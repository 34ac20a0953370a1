"""Benchmark for oed: cold ``oed delta`` / ``oed count`` calls, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` as it stands (``PYTHONPATH=src``, ``OED_THREADS`` unset, no
other ``PYTHON*`` variable passed on). Inputs are generated from the seed
(see ``workloads.py``) and every stdout is checked against an oracle
that shares no code with the program (see ``oracle.py``); checking time
is outside every metric.

``--trace 0`` runs each call as a cold process, one at a time, and
repeats passes over the workload's calls for about ``--seconds``. Between
passes it takes cold ``python -c pass`` / ``python -c "import oed.cli"``
samples. It reports the end-to-end metrics:

    setup_s               median cold ``import oed.cli`` process
    wall_s                one pass: the sum over its calls of each call's time
    call_p50_ms           median over the pass's calls of each call's time
    census_subsets_per_s  sum of 2^m - 1 over successful calls with m <= 62,
                          divided by the sum of those calls' times
    peak_rss_mb           largest ru_maxrss of any call process (os.wait4),
                          started from a small launcher (``Launcher``)

A call's time is the median over the run's passes of its scaled wall
time. Every time is scaled to a fixed host speed: a short fixed mix of
pure-Python work (``calibrate``) is timed in this process between every
two measured processes, and a measurement is multiplied by CAL_REF_S
over the median of the six gauge times around it. The host this was
built on changes speed by up to 1.5x for seconds to minutes at a time;
over 20 s windows the raw time of a cold ``delta`` on cube_q3 ranged
86-125 ms while its ratio to a plain arithmetic loop stayed within
3.39-3.79. Raw times are printed in the detail line.

No tail percentile is reported: every metric is reported on every
workload, and only small_batch has the calls for ten samples beyond a
p95.

``--trace 1`` measures the cold interpreter and import, then alternates
untraced and traced in-process passes through ``oed.cli.main(argv)``.
Spans (``spans.py``) give per-call mean self times per layer (median
over traced passes, scaled as above), the work counters, and the tracing
overhead. Spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json``, and a sanity line
gives each layer's share of a modelled cold call.

Known-defect probe: one sparse_wide call needs more than 4300 decimal
digits and exits 2 under the interpreter's default int-to-str limit. It
runs in every pass but is reported on its own line and kept out of
``attempted``, ``failed`` and the timings. Any other call that hits the
limit counts as failed.

Before the result, stdout carries an environment record and, per
metric, the median with quartiles and sample count; the last line is
the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PY = sys.executable
CALL_TIMEOUT_S = 120.0
SETUP_SAMPLES = 2  # cold (bare, import) pairs before every pass
COLD_SAMPLES_TRACE = 7
CAL_REF_S = 0.014  # gauge time that scaled times are expressed at
DIGIT_LIMIT_MESSAGE = "Exceeds the limit"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "census_subsets_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_SPANS = [
    "graph.load_graph", "graph.strip_isolated", "graph.connected_components",
    "graph.induced_subgraph", "delta.engine", "delta.component_census", "delta.poly_mul",
    "covers.reduction", "covers.transform", "cli.serialize", "cli.self",
]

PER_LAYER_UNITS = {
    "interp.bare_ms": "ms",
    "import.oed_cli_ms": "ms",
    **{f"{name}_ms": "ms" for name in LAYER_SPANS},
    "delta.census_subsets_per_s": "1/s",
    "delta.subsets_visited": "subsets",
    "delta.poly_mul_calls": "count",
    "graph.n": "vertices",
    "graph.m": "edges",
    "graph.components": "count",
    "graph.isolated": "vertices",
    "cli.stdout_bytes": "bytes",
    "cli.digit_limit_failures": "count",
    "trace.overhead_frac": "frac",
}

# The layer each workload was built to stress (the trace sanity report
# says so when the measured shares disagree).
EXPECTED_TOP = {
    "dense_sweep": {"delta.engine"},
    "small_batch": {"import", "cli.self"},
    "sparse_wide": {"delta.poly_mul"},
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it will not start)."""


@dataclass
class Outcome:
    seconds: float
    code: int | None  # None: timed out or raised
    stdout: str
    stderr: str
    rss_kb: int = 0


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False  # produced an output that fails the oracle
    known_defect: bool = False
    reason: str = ""


def child_env() -> dict:
    """The caller's environment minus every PYTHON*/OED_* setting.

    Results must not depend on the caller's Python settings. Bytecode
    caching stays on, as for an installed package, with the cache under
    ``perfbench/out`` so ``src/`` is left as checked out.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "OED_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


# Starts one process per request line and answers with its wall time,
# exit code (null when killed at the timeout) and ru_maxrss.
LAUNCHER = """
import json, os, select, signal, sys, time
for line in sys.stdin:
    argv, out, err, timeout = json.loads(line)
    with open(os.devnull, "rb") as fi, open(out, "wb") as fo, open(err, "wb") as fe:
        redirect = [(os.POSIX_SPAWN_DUP2, f.fileno(), n) for n, f in enumerate((fi, fo, fe))]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=redirect)
        fd = os.pidfd_open(pid)
        exited = bool(select.select([fd], [], [], timeout)[0])
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
        os.close(fd)
    code = os.waitstatus_to_exitcode(status) if exited else None
    print(json.dumps([seconds, code, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """A small helper process that starts every measured process.

    Linux carries the spawning process's peak memory over into the
    child's ru_maxrss, so children started from this process would
    report this process's size. The helper stays a few MB.
    """

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([PY, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CALL_TIMEOUT_S)

    def run(self, argv: list[str], tmp: Path) -> Outcome:
        """Run one process to completion; wall time from spawn to reap."""
        out_path, err_path = tmp / "stdout", tmp / "stderr"
        request = [argv, str(out_path), str(err_path), CALL_TIMEOUT_S]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the process launcher exited")
        seconds, code, rss_kb = json.loads(reply)
        return Outcome(seconds, code, out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"), rss_kb)


def judge(call: workloads.Call, res: Outcome, covers: dict) -> Verdict:
    if res.code is None:
        return Verdict(False, reason=f"timed out or raised: {res.stderr.strip()[-200:]}")
    if res.code != 0:
        reason = f"exit {res.code}: {res.stderr.strip()[-200:]}"
        defect = res.code == 2 and DIGIT_LIMIT_MESSAGE in res.stderr
        return Verdict(False, known_defect=defect and call.probe, reason=reason)
    problem = oracle.check(call.command, call.fmt, call.graph, covers[call.graph.name], res.stdout)
    return Verdict(problem is None, wrong=problem is not None, reason=problem or "")


def census_size(call: workloads.Call) -> int:
    m = call.graph.m
    return (1 << m) - 1 if m <= workloads.ENUMERABLE_EDGE_CAP else 0


def summary(values: list[float]) -> dict:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def warm_up(launcher: Launcher, tmp: Path) -> None:
    """Fill the bytecode cache; fail when the program is not there."""
    if not (SRC / "oed" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    res = launcher.run([PY, "-c", "import oed.cli"], tmp)
    if res.code != 0:
        raise BenchError(f"cannot import oed.cli: {res.stderr.strip()[-300:]}")


class Run:
    """One benchmark run: the generated calls, their oracles, and the tallies."""

    def __init__(self, workload: str, seed: int, tmp: Path, launcher: Launcher) -> None:
        self.tmp = tmp
        self.launcher = launcher
        self.calls = workloads.build(workload, seed, tmp)
        self.covers = {c.graph.name: oracle.cover_count(c.graph) for c in self.calls}
        self.attempted = self.failed = self.wrong = 0
        self.probes: dict[str, dict] = {}
        self.failures: list[str] = []

    def cold(self, argv: list[str]) -> Outcome:
        return self.launcher.run(argv, self.tmp)

    def tally(self, call: workloads.Call, res: Outcome) -> Verdict:
        verdict = judge(call, res, self.covers)
        self.wrong += verdict.wrong
        if call.probe:
            probe = self.probes.setdefault(call.graph.name, {
                "argv": call.argv[:1] + call.argv[3:], "runs": 0, "ok": 0, "known_defect": 0,
                "reason": verdict.reason})
            probe["runs"] += 1
            probe["ok"] += verdict.ok
            probe["known_defect"] += verdict.known_defect
            if verdict.ok or verdict.known_defect:
                return verdict
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.failures.append(f"{call.graph.name} {' '.join(call.argv[:1] + call.argv[3:])}: "
                                 f"{verdict.reason}")
        return verdict

    def startup(self, gauge: "Gauge", bare: list[int], setup: list[int]) -> None:
        """One cold ``python -c pass`` and one cold ``import oed.cli``, gauged."""
        for argv, into in (([PY, "-c", "pass"], bare), ([PY, "-c", "import oed.cli"], setup)):
            res = self.cold(argv)
            if res.code != 0:
                raise BenchError(f"cold start failed: {res.stderr.strip()[-300:]}")
            into.append(gauge.take(res.seconds))

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


def calibrate() -> float:
    """Time a fixed mix of pure-Python work in this process: the host-speed gauge.

    Small-int arithmetic, big-int products and dict/str/sort work each
    react differently to a busy host; on the host this was built on their
    sum tracked cold calls of all three workloads better than any one.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i
    big = [(1 << (1000 + 3 * i)) - 7 * i for i in range(40)]
    out = [0] * 80
    for _ in range(3):
        for i, x in enumerate(big):
            for j, y in enumerate(big):
                out[i + j] += x * y
    table = {i * 7919 % 100_003: (i, str(i)) for i in range(10_000)}
    sorted(table.items())
    return time.perf_counter() - t0


class Gauge:
    """Gauge samples interleaved with measurements, to scale each measurement.

    ``take`` records a measurement made since the previous gauge sample,
    then samples the gauge again, so measurement k lies between gauge
    samples k and k + 1. ``scaled(k)`` is measurement k times CAL_REF_S
    over the median of the six gauge samples around it.
    """

    def __init__(self) -> None:
        self.cal = [calibrate()]
        self.raw: list[float] = []

    def take(self, seconds: float) -> int:
        self.raw.append(seconds)
        self.cal.append(calibrate())
        return len(self.raw) - 1

    def factor(self, k: int) -> float:
        return CAL_REF_S / statistics.median(self.cal[max(0, k - 2): k + 4])

    def scaled(self, k: int) -> float:
        return self.raw[k] * self.factor(k)


def measure_cold(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced cold-process passes; returns the metrics and their details."""
    gauge = Gauge()
    bare: list[int] = []
    setup: list[int] = []
    slots: list[list[int]] = [[] for _ in run.calls]  # gauge indices of each call's runs
    ok = [not call.probe for call in run.calls]
    rss = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            run.startup(gauge, bare, setup)
        for i, call in enumerate(run.calls):
            res = run.cold([PY, "-m", "oed", *call.argv])
            k = gauge.take(res.seconds)
            ok[i] = run.tally(call, res).ok and ok[i]
            if not call.probe:
                slots[i].append(k)
                rss = max(rss, res.rss_kb)
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    typical = {i: statistics.median(gauge.scaled(k) for k in ks)
               for i, ks in enumerate(slots) if ks}
    census = {i: census_size(run.calls[i]) for i in typical if ok[i] and census_size(run.calls[i])}
    census_s = sum(typical[i] for i in census)
    passes = list(zip(*(ks for ks in slots if ks)))
    metrics = {
        "setup_s": statistics.median(gauge.scaled(k) for k in setup),
        "wall_s": sum(typical.values()),
        "call_p50_ms": 1000 * statistics.median(typical.values()),
        "census_subsets_per_s": sum(census.values()) / census_s if census_s else 0.0,
        "peak_rss_mb": rss / 1024,
    }
    calls = [k for ks in slots for k in ks]
    detail = {
        "setup_s": summary([gauge.scaled(k) for k in setup]),
        "pass_s": summary([sum(gauge.scaled(k) for k in p) for p in passes]),
        "call_ms": summary([1000 * gauge.scaled(k) for k in calls]),
        "raw_setup_s": summary([gauge.raw[k] for k in setup]),
        "raw_pass_s": summary([sum(gauge.raw[k] for k in p) for p in passes]),
        "raw_call_ms": summary([1000 * gauge.raw[k] for k in calls]),
        "raw_interp.bare_ms": summary([1000 * gauge.raw[k] for k in bare]),
        "raw_gauge_ms": summary([1000 * c for c in gauge.cal]),
    }
    return metrics, detail


def run_inprocess(main, argv: list[str]) -> Outcome:
    """One call through ``oed.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = None
        seconds = time.perf_counter() - t0
    return Outcome(seconds, code, out.getvalue(), err.getvalue())


def measure_traced(run: Run, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Cold start-up samples, then alternating untraced and traced in-process passes."""
    gauge = Gauge()
    bare: list[int] = []
    setup: list[int] = []
    for _ in range(COLD_SAMPLES_TRACE):
        run.startup(gauge, bare, setup)

    sys.path.insert(0, str(SRC))
    import oed.cli  # noqa: F401  (loads oed.covers, oed.delta, oed.graph)

    modules = {name: sys.modules[name] for name in ("oed.cli", "oed.covers", "oed.delta")}
    regular = [i for i, c in enumerate(run.calls) if not c.probe]
    untraced: list[list[int]] = [[] for _ in run.calls]
    traced: list[list[int]] = [[] for _ in run.calls]
    passes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, call in enumerate(run.calls):
            res = run_inprocess(modules["oed.cli"].main, call.argv)
            untraced[i].append(gauge.take(res.seconds))
            run.tally(call, res)

        tracer = spans.Tracer()
        traced_main = tracer.wrap("cli.main", modules["oed.cli"].main)
        outcomes = []
        with tracer.hooks(modules):
            for i, call in enumerate(run.calls):
                tracer.call = i
                outcomes.append(run_inprocess(traced_main, call.argv))
                traced[i].append(gauge.take(outcomes[-1].seconds))
        for call, res in zip(run.calls, outcomes):
            run.tally(call, res)
        passes.append((tracer, outcomes, [ks[-1] for ks in traced]))
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break

    per_pass = [layer_metrics(run.calls, regular, tracer, outcomes, [gauge.factor(k) for k in idx])
                for tracer, outcomes, idx in passes]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    bare_ms = 1000 * statistics.median(gauge.scaled(k) for k in bare)
    metrics["interp.bare_ms"] = bare_ms
    import_ms = 1000 * statistics.median(gauge.scaled(k) for k in setup)
    metrics["import.oed_cli_ms"] = import_ms - bare_ms
    metrics["trace.overhead_frac"] = (
        sum(statistics.median(gauge.scaled(k) for k in traced[i]) for i in regular)
        / sum(statistics.median(gauge.scaled(k) for k in untraced[i]) for i in regular) - 1)
    write_trace(workload, seed, run.calls, passes)
    pass_s = lambda idx, n: sum(gauge.scaled(idx[i][n]) for i in regular)
    detail = {
        "untraced_pass_s": summary([pass_s(untraced, n) for n in range(len(passes))]),
        "traced_pass_s": summary([pass_s(traced, n) for n in range(len(passes))]),
        "raw_interp.bare_ms": summary([1000 * gauge.raw[k] for k in bare]),
        "raw_import_ms": summary([1000 * gauge.raw[k] for k in setup]),
        "raw_gauge_ms": summary([1000 * c for c in gauge.cal]),
        "missing_hooks": sorted(set(passes[0][0].missing)),
        "shares": shares(metrics),
    }
    return metrics, detail


def layer_metrics(calls, regular, tracer: spans.Tracer, outcomes, factors) -> dict[str, float]:
    """Per-call means over the regular calls of one traced pass, times scaled per call."""
    keep = set(regular)
    own = spans.self_times(tracer.spans)
    self_s = dict.fromkeys(LAYER_SPANS, 0.0)
    visited = mul_calls = census = 0
    census_s = 0.0
    for span, t in zip(tracer.spans, own):
        if span.call not in keep:
            continue
        scale = factors[span.call]
        self_s["cli.self" if span.name == "cli.main" else span.name] += t * scale
        if span.name == "delta.poly_mul":
            mul_calls += 1
        enumerates = span.name == "delta.component_census" or (
            span.name == "delta.engine" and span.tag in ("naive", "gray"))
        if enumerates:
            visited += (1 << span.m) - 1
        if span.name == "delta.engine" and span.m <= workloads.ENUMERABLE_EDGE_CAP:
            census += (1 << span.m) - 1
            census_s += (span.end - span.start) * scale
    k = len(regular)
    graphs = [calls[i].graph for i in regular]
    metrics = {f"{name}_ms": 1000 * s / k for name, s in self_s.items()}
    metrics.update({
        "delta.census_subsets_per_s": census / census_s if census_s else 0.0,
        "delta.subsets_visited": visited / k,
        "delta.poly_mul_calls": mul_calls / k,
        "graph.n": sum(g.n for g in graphs) / k,
        "graph.m": sum(g.m for g in graphs) / k,
        "graph.components": sum(len(g.components) for g in graphs) / k,
        "graph.isolated": sum(g.isolated for g in graphs) / k,
        "cli.stdout_bytes": sum(len(outcomes[i].stdout.encode()) for i in regular) / k,
        "cli.digit_limit_failures": sum(
            o.code == 2 and DIGIT_LIMIT_MESSAGE in o.stderr for o in outcomes),
    })
    return metrics


def shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's share of a modelled cold call: start-up plus in-process self times."""
    parts = {"interp": metrics["interp.bare_ms"], "import": metrics["import.oed_cli_ms"]}
    parts.update({name: metrics[f"{name}_ms"] for name in LAYER_SPANS})
    total = sum(parts.values())
    return {name: ms / total for name, ms in sorted(parts.items(), key=lambda kv: -kv[1])}


def sanity_line(workload: str, share: dict[str, float]) -> str:
    expected = EXPECTED_TOP[workload]
    top = [name for name in share if name != "interp"][: len(expected)]
    verdict = "as expected" if set(top) == expected else "CONTRADICTS the expectation"
    listing = ", ".join(f"{name} {100 * s:.1f}%" for name, s in share.items())
    return (f"trace sanity [{workload}]: expected top {sorted(expected)}, "
            f"measured top {top} ({verdict}); shares: {listing}")


def write_trace(workload: str, seed: int, calls, passes) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "calls": [{"id": i, "argv": c.argv, "graph": c.graph.name, "probe": c.probe}
                  for i, c in enumerate(calls)],
        "passes": [[s.to_json() for s in p[0].spans] for p in passes],
    }
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc), encoding="utf-8")


def source_identity() -> dict:
    """Commit when the checkout is a git repository, and a digest of ``src/`` always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # In-process calls must meet the same int-to-str limit as the cold ones,
    # whatever the caller's environment says.
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    load_before = os.getloadavg()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp, \
            Launcher(child_env()) as launcher:
        try:
            warm_up(launcher, Path(tmp))
            run = Run(args.workload, args.seed, Path(tmp), launcher)
            if args.trace:
                metrics, detail = measure_traced(run, args.workload, args.seed, args.seconds)
                units = PER_LAYER_UNITS
            else:
                metrics, detail = measure_cold(run, args.seconds)
                units = END_TO_END_UNITS
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "raw_interp.bare_ms": detail["raw_interp.bare_ms"]["median"],
        "raw_gauge_ms": detail["raw_gauge_ms"]["median"],
        **source_identity(),
    }
    probe_runs = sum(p["runs"] for p in run.probes.values())
    probe_fails = sum(p["runs"] - p["ok"] for p in run.probes.values())
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"probes": run.probes, "failed_frac_with_probes":
                      (run.failed + probe_fails) / (run.attempted + probe_runs)}))
    for line in run.failures[:20]:
        print(f"failed: {line}")
    if args.trace:
        print(sanity_line(args.workload, detail["shares"]))
    print(json.dumps(run.result(metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
