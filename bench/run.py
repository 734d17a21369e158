"""Benchmark of the resrelax CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` into ``.bench_work/`` and every
output is checked against references kept in ``bench/workloads.py``.

``--trace 0`` runs the workload through the real CLI in fresh
subprocesses for ``--seconds`` and reports the end-to-end metrics:
set-up time (one fresh interpreter per invocation importing
``resrelax.cli`` and parsing its INI file, summed; median of the rounds
run between the samples), and per sample the wall time, the CPU time
and the peak RSS of the CLI children (medians).

``--trace 1`` calls ``resrelax.cli.main`` in-process, once untraced to
warm up, then traced, untraced and traced again.  Layer metrics come
from the traced runs, whose counters must repeat exactly; the tracing
overhead is the traced wall time minus the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
pins no CPU, drops no cache and changes no machine setting.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_job, make_job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SHARE = 0.25  # set-up time per gap, as a share of a sample's

# what each invocation pays before computing: interpreter, import, config
_SETUP_CODE = (
    "import sys, resrelax.cli\n"
    "from resrelax.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
    "print(resrelax.cli.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env.pop("RESRELAX_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv, cwd, env, stderr_path):
    """Run a child to completion; returns (exit code, wall s, rusage, stdout)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, out


def _read_outputs(job, invocations):
    out = {}
    for inv in invocations:
        for name in inv.outputs:
            path = job.workdir / name
            if path.exists():
                out[name] = path.read_bytes()
                path.unlink()
    return out


def _digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


class Tally:
    """Invocations attempted and failed, and the worst check deviation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.messages = []
        self.digest = None

    def sample(self, job, n_invocations, n_bad_exit, outputs):
        """Account one sample: its exits, its checks and its bytes."""
        self.attempted += n_invocations
        checks = check_job(job, outputs)
        self.max_rel_err = max(self.max_rel_err, checks.max_rel_err)
        digest = _digest(outputs)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            checks.failures.append("outputs differ from the first sample")
        if n_bad_exit or checks.failures:
            self.failed += n_invocations
            self.messages.extend(checks.failures)

    def reference(self, n_invocations, n_bad_exit):
        """Account the untimed runs whose outputs serve as references."""
        self.attempted += n_invocations
        self.failed += n_bad_exit
        if n_bad_exit:
            self.messages.append("reference run failed")


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)

def _setup_child(ini, job, env):
    """Wall time of one fresh interpreter importing the CLI and parsing ini."""
    errfile = job.workdir / "setup.err"
    rc, wall, _, out = _spawn([sys.executable, "-c", _SETUP_CODE, str(ini)],
                              job.workdir, env, errfile)
    if rc != 0:
        raise BenchError("set-up child failed (exit %d): %s"
                         % (rc, errfile.read_text()[-2000:]))
    if not Path(out.decode().strip()).resolve().is_relative_to(SRC):
        raise BenchError("resrelax was imported from %s, not %s"
                         % (out.decode().strip(), SRC))
    return wall


def _setup_rounds(job, env, min_seconds):
    """Set-up rounds lasting at least min_seconds (at least one round).

    A round is one set-up child per timed invocation, and its time is the
    sum over those children: the set-up one timed sample pays.
    """
    rounds = []
    while not rounds or sum(rounds) < min_seconds:
        rounds.append(sum(_setup_child(ini, job, env) for ini in job.configs))
    return rounds


def _run_cli(job, invocations, env, usage_out=None):
    """Run invocations in fresh subprocesses; returns (bad exits, outputs)."""
    bad = 0
    for k, inv in enumerate(invocations):
        errfile = job.workdir / ("cli-%d.err" % k)
        rc, wall, usage, _ = _spawn(
            [sys.executable, "-m", "resrelax.cli", *inv.argv], job.workdir,
            env, errfile)
        if rc != 0:
            bad += 1
            print("resrelax %s exited %d: %s" % (
                inv.argv[0], rc, errfile.read_text()[-500:].strip()))
        if usage_out is not None:
            usage_out.append((wall, usage))
    return bad, _read_outputs(job, invocations)


def _another_sample(n, elapsed, seconds):
    """Two samples if the first ends in time; then none predicted to end late."""
    if n < 2:
        return elapsed < seconds
    return elapsed * (n + 1) / n <= seconds


def run_timed(job, seconds):
    env = _child_env()
    # byte-compile first so that no timed child pays for it
    compileall.compile_dir(str(SRC / "resrelax"), quiet=1)
    tally = Tally()
    ref_bad, ref_out = _run_cli(job, job.reference, env)
    tally.reference(len(job.reference), ref_bad)
    _setup_child(job.configs[0], job, env)  # warm-up, untimed
    # set-up rounds run before, between and after the timed samples, so
    # that both see the same host speed; a gap after a sample spends a
    # share of that sample's time
    setups, walls, cpus, rss = [], [], [], []
    t0 = time.perf_counter()
    while _another_sample(len(walls), time.perf_counter() - t0, seconds):
        setups += _setup_rounds(job, env, SETUP_SHARE * (walls or [0.0])[-1])
        usage = []
        bad, out = _run_cli(job, job.timed, env, usage)
        walls.append(sum(w for w, _ in usage))
        cpus.append(sum(u.ru_utime + u.ru_stime for _, u in usage))
        rss.append(max(u.ru_maxrss for _, u in usage) / 1024.0)
        tally.sample(job, len(job.timed), bad, {**ref_out, **out})
    setups += _setup_rounds(job, env, SETUP_SHARE * walls[-1])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    info = {
        "samples": (len(walls), "count"),
        "wall_samples": (walls, "s"),
        "setup_samples": (setups, "s"),
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
        "max_rel_err": (tally.max_rel_err, "ratio"),
    }
    return tally, metrics, info


# ---------------------------------------------------------------------------
# traced run (in-process)

def _run_inprocess(cli, job, invocations):
    """cli.main on each invocation; returns (wall s, bad exits, outputs)."""
    bad = 0
    t0 = time.perf_counter()
    for inv in invocations:
        try:
            rc = cli.main(list(inv.argv))
        except Exception as exc:  # a traceback is a failed invocation
            rc = repr(exc)
        if rc != 0:
            bad += 1
            print("resrelax %s returned %s" % (inv.argv[0], rc))
    wall = time.perf_counter() - t0
    return wall, bad, _read_outputs(job, invocations)


def run_traced(job):
    sys.path.insert(0, str(SRC))
    import resrelax.cli as cli
    from tracing import PER_LAYER, STEADY_COUNTERS, Tracer, layer_metrics

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError("resrelax was imported from %s, not %s"
                         % (cli.__file__, SRC))
    tally = Tally()
    _, ref_bad, ref_out = _run_inprocess(cli, job, job.reference)
    tally.reference(len(job.reference), ref_bad)
    tracer = Tracer()
    walls = {"traced": [], "untraced": []}
    per_run = []
    for run, mode in enumerate(("warm-up", "traced", "untraced", "traced")):
        tracer.run = run
        if mode == "traced":
            tracer.install()
        try:
            wall, bad, out = _run_inprocess(cli, job, job.timed)
        finally:
            tracer.uninstall()
        tally.sample(job, len(job.timed), bad, {**ref_out, **out})
        if mode in walls:
            walls[mode].append(wall)
        if mode == "traced":
            m = layer_metrics([s for s in tracer.spans if s.run == run])
            m["cli.output_bytes"] = sum(len(v) for v in out.values())
            per_run.append(m)
    tracer.dump(job.workdir / "spans.jsonl")

    first, second = per_run
    for name in STEADY_COUNTERS:
        if first[name] != second[name]:
            tally.messages.append("counter %s differs across traced runs: "
                                  "%r vs %r" % (name, first[name], second[name]))
    metrics = {name: (first[name] if unit in ("count", "bytes")
                      else 0.5 * (first[name] + second[name]), unit)
               for name, unit, _, _ in PER_LAYER if name in first}
    metrics["trace.overhead_s"] = (
        statistics.mean(walls["traced"]) - walls["untraced"][0], "s")
    metrics["check.max_rel_err"] = (tally.max_rel_err, "ratio")
    info = {"traced_wall_s": (statistics.mean(walls["traced"]), "s"),
            "untraced_wall_s": (walls["untraced"][0], "s")}
    return tally, metrics, info


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "resrelax" / "cli.py").is_file():
            raise BenchError("no resrelax sources under %s" % SRC)
        workdir = WORK / ("%s-seed%d" % (args.workload, args.seed))
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        job = make_job(args.workload, args.seed, workdir)
        print("workload %s seed %d trace %d (inputs in %s)"
              % (args.workload, args.seed, args.trace, workdir))
        if args.trace:
            tally, metrics, info = run_traced(job)
        else:
            tally, metrics, info = run_timed(job, args.seconds)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    for message in tally.messages[:20]:
        print("CHECK FAILED: %s" % message)
    for name, (value, unit) in {**metrics, **info}.items():
        if isinstance(value, list):
            print("%-36s %s %s" % (name, " ".join("%.4g" % v for v in value),
                                   unit))
        else:
            print("%-36s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
