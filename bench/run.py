"""Outside-in benchmark of the landau CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of pipeline, decay, accumulation (see workloads.py and
BENCHMARK.json), or ``all`` for the three in turn.  The benchmark runs the CLI
of the checkout that holds it (``src/`` next to ``bench/``) and writes only
under ``.bench_run/`` in that checkout.

--trace 0  Closed loop with one client: ``landau <subcommand> --threads 1`` on a
           config generated from the seed, one process at a time, for S
           seconds (at least once).  Reports wall_s (median spawn-to-exit time
           of the invocations that passed their checks), setup_s (median of 5
           launches that only import the package with the numpy/scipy modules
           it loads) and peak_rss_mb (median of the same invocations' max
           resident set, from wait4).
--trace 1  One untraced invocation, then one with the layer functions timed by
           traced.py; reports the per-layer metrics of layers.py, the trace
           overhead, the process CPU time and thread count, and the accuracy
           margins of the checks.

Every invocation's output is checked against the acceptance tolerances
(workloads.py) and against the bytes of the first run of the same seed in this
checkout.  fail_frac = failed / attempted, where an invocation fails on a
non-zero exit, a failed check or differing bytes.  Human-readable lines (every
metric with its unit, fail_frac too) and the machine record go to stdout
first; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  fail_frac is not among those metrics: it is 0 on a
healthy run, and attempted and failed carry it.

Two settings of the children's environment make peak RSS repeat.  numpy is
asked not to back its arrays with transparent huge pages
(NUMPY_MADVISE_HUGEPAGE=0): whether the host had huge pages free moved the peak
RSS of identical `dynamics` runs by 12%.  The string hash seed is fixed
(PYTHONHASHSEED=0): the peak RSS of one `all` config was 238 MB under hash
seed 1 and 323 MB under hash seed 0, every time.  Neither changes the output
bytes.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
BENCH = Path(__file__).resolve().parent
THREADS = "1"
SETUP_LAUNCHES = 5
RUN_LIMIT_S = 170.0  # a run is cut (its children killed) past this
SETUP_CODE = "import landau.cli, " + ", ".join(f"landau.{m}" for m in layers.MODULES)
PROBE_CODE = """\
import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROCESS_METRICS = {"trace.overhead_frac": "1", "process.cpu_s": "s",
                   "process.threads": "count"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONHASHSEED"] = "0"
    env.pop("LANDAU_THREADS", None)  # the thread count is passed explicitly
    return env


def spawn(args, log_path, deadline):
    """Run one child to completion, alone.

    Returns its exit code, wall time from spawn to exit, max resident set and
    CPU time (from wait4), and the most OS threads seen in /proc (0 where there
    is no /proc).  A child still running at `deadline` is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    watch = _Watcher(proc, deadline)
    watch.start()
    try:
        # wait for the exit without reaping, so the pid stays valid for the
        # watcher until it has been joined
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        raise
    finally:
        watch.stop.set()
        watch.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime, "threads": watch.threads,
            "killed": watch.killed}


class _Watcher(threading.Thread):
    """Samples a child's OS thread count and kills it at the deadline."""

    def __init__(self, proc, deadline):
        super().__init__(daemon=True)
        self.proc, self.deadline = proc, deadline
        self.stop = threading.Event()
        self.threads, self.killed = 0, False

    def run(self):
        while not self.stop.wait(0.05):
            try:
                self.threads = max(self.threads,
                                   len(os.listdir(f"/proc/{self.proc.pid}/task")))
            except OSError:
                pass
            if time.perf_counter() > self.deadline and not self.killed:
                self.proc.kill()
                self.killed = True


def tree_digest(path):
    """sha256 over the relative names and bytes of every file under `path`."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def machine_record(deadline):
    probe_log = RUN_DIR / "probe.log"
    res = spawn([sys.executable, "-c", PROBE_CODE], probe_log, deadline)
    rec = json.loads(probe_log.read_text().splitlines()[-1]) if res["exit"] == 0 else {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    rec.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "landau").glob("*.py")))).hexdigest(),
    })
    return rec


def verify_output(workload, out, ref):
    """Problems found in one output directory, and the checks' margins.

    `ref` holds the digest of the first output of the same seed; the first
    call writes it.
    """
    try:
        problems, margins = workload.check(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    digest = tree_digest(out)
    if ref.exists():
        if digest != ref.read_text().strip():
            problems.append("output bytes differ from the first run of this seed")
    else:
        ref.parent.mkdir(parents=True, exist_ok=True)
        ref.write_text(digest + "\n")
    return problems, margins


class Runner:
    """Invocations of one workload at one seed, with their checks."""

    def __init__(self, name, seed, tiny, deadline):
        self.workload = workloads.WORKLOADS[name]
        self.deadline = deadline
        tag = f"{name}{'-tiny' if tiny else ''}-seed{seed}"
        self.dir = RUN_DIR / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_text = self.workload.config(seed, tiny)
        self.config = self.dir / "config.cfg"
        self.config.write_text(self.config_text)
        config_id = hashlib.sha256(self.config_text.encode()).hexdigest()[:16]
        self.ref = RUN_DIR / "ref" / f"{tag}-{config_id}.sha256"
        self.count = 0
        self.records = []

    def invoke(self, traced=False):
        """Run the CLI once; returns the record, with the problems found."""
        out = self.dir / f"out{self.count}"
        cli = [self.workload.subcommand, "--config", str(self.config), "--out", str(out),
               "--threads", THREADS]
        if traced:
            spans = self.dir / f"spans{self.count}.json"
            args = [sys.executable, str(BENCH / "traced.py"), str(spans), THREADS] + cli
        else:
            args = [sys.executable, "-m", "landau.cli"] + cli
        rec = spawn(args, self.dir / f"log{self.count}.txt", self.deadline)
        self.count += 1
        rec["traced"] = traced
        rec["problems"], rec["margins"] = self.verify(rec, out)
        if traced and rec["exit"] == 0:
            rec["layers"] = layers.span_metrics(json.loads(spans.read_text())["spans"])
        self.records.append(rec)
        return rec

    def verify(self, rec, out):
        if rec["killed"]:
            return [f"killed after {RUN_LIMIT_S:.0f} s"], {}
        if rec["exit"] != 0:
            return [f"exit code {rec['exit']}"], {}
        return verify_output(self.workload, out, self.ref)


def setup_seconds(runner):
    walls = []
    for i in range(SETUP_LAUNCHES):
        res = spawn([sys.executable, "-c", SETUP_CODE], runner.dir / f"setup{i}.txt",
                    runner.deadline)
        if res["exit"] != 0:
            raise SystemExit(f"bench: importing the package failed, see {runner.dir}")
        walls.append(res["wall_s"])
    return statistics.median(walls)


def run_untraced(runner, seconds):
    setup = setup_seconds(runner)
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(runner.invoke()["wall_s"])
        now = time.perf_counter()
        if now - start + statistics.median(walls) > seconds or now > runner.deadline:
            break
    # a failed invocation may stop early; it counts in fail_frac, not in the
    # timings, unless every invocation failed
    recs = [r for r in runner.records if not r["problems"]] or runner.records
    return {
        "wall_s": statistics.median(r["wall_s"] for r in recs),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in recs),
    }


def run_traced(runner):
    base = runner.invoke()
    traced = runner.invoke(traced=True)
    if base["threads"] != traced["threads"]:
        traced["problems"].append(
            f"traced run used {traced['threads']} threads, untraced {base['threads']}")
    metrics = dict.fromkeys(layers.SPAN_METRICS, 0)
    metrics.update(traced.get("layers", {}))
    metrics.update(dict.fromkeys(workloads.CHECK_METRICS, 0))
    metrics.update(traced["margins"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    metrics["process.cpu_s"] = base["cpu_s"]
    metrics["process.threads"] = base["threads"]
    return metrics


def units(trace):
    if not trace:
        return END_TO_END
    return {**layers.SPAN_METRICS, **PROCESS_METRICS,
            **dict.fromkeys(workloads.CHECK_METRICS, "1")}


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (attempted, failed, {metric: value}, record)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    runner = Runner(name, seed, tiny, deadline)
    machine = machine_record(deadline)
    values = run_traced(runner) if trace else run_untraced(runner, seconds)
    recs = runner.records
    failed = sum(1 for r in recs if r["problems"])
    record = {
        "workload": name, "seed": seed, "trace": trace, "tiny": tiny,
        "subcommand": runner.workload.subcommand, "threads": int(THREADS),
        "machine": machine, "config": runner.config_text,
        "run_dir": str(runner.dir), "output_ref": str(runner.ref),
        "invocations": [{k: v for k, v in r.items() if k != "layers"} for r in recs],
        "attempted": len(recs), "failed": failed, "fail_frac": failed / len(recs),
        "metrics": values,
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{runner.dir.name}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return len(recs), failed, values, record


def report(name, record, unit_of):
    print(f"bench: workload={name} seed={record['seed']} trace={record['trace']} "
          f"subcommand={record['subcommand']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for key, value in record["metrics"].items():
        print(f"bench:   {key} = {value:.6g} {unit_of[key]}")
    print(f"bench:   fail_frac = {record['fail_frac']:.6g} 1")
    for rec in record["invocations"]:
        for problem in rec["problems"]:
            print(f"bench: {name}: FAILED CHECK: {problem}", file=sys.stderr)
    print("bench: machine " + json.dumps(record["machine"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "landau" / "cli.py").is_file():
        print(f"bench: no landau package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unit_of = units(args.trace)
    attempted = failed = 0
    metrics = {}
    for name in names:
        n, f, values, record = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, record, unit_of)
        attempted += n
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": unit_of[k]}
                        for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
