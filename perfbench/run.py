#!/usr/bin/env python3
"""Benchmark of proxmix, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs, each in a process of its own.  The library is
imported from ``src/`` next to this directory.  The workload (see
``workloads.py``) is a fixed list of calls into the public API built from
``--seed``; it runs as a closed loop (one caller, no extra threads, each
call starts when the previous one has returned) in rounds over the same
inputs until ``--seconds`` have passed, and at least three rounds after
the first.  Every result of the first round is checked against an
independent relation outside the timed region, and every later round must
reproduce it exactly.

Times are reported at reference speed: the shared host runs this process
at speeds that differ by up to 1.7x for seconds or minutes, so each call's
time is scaled by the speed that short calibration slices measure around
it (see ``_calibrate``), and medians are taken over the rounds.  Plain
wall times are printed beside them.

``--trace 0`` times the calls with tracing off and prints the end-to-end
metrics.  ``--trace 1`` times untraced rounds for half the time, then runs
two traced rounds (see ``tracer.py``), fails if their counts differ, runs
the non-finite probe, and for cli-jobs the verification registry twice,
and prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS thread: the benchmark is a single caller with no extra threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_ROUNDS = 3             # calibrated rounds, after the first round
CHUNK_S = 0.02             # work between two calibration slices
REF_SLICE_S = 1.5e-3       # time of one calibration slice at reference speed
_CAL_A = np.array([[1.0, 0.2, 0.0], [0.1, 0.9, 0.3], [0.0, 0.2, 1.1]])
_CAL_B = np.array([0.5, -0.3, 0.8])
_CAL_GRID = np.linspace(-1.0, 1.0, 2 * 101 * 101).reshape(-1, 2)
SETUP_SAMPLES = 7          # this process plus six fresh ones
SETUP_SLICES = 5           # calibration slices that time the speed of a set-up
VERIFY_SCALE = "small"
MAX_REPORTED_FAILURES = 20



def _declared(section):
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="default: every workload, one process each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build and warm up, print the set-up time, exit")
    return p.parse_args(argv)


def _run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    code = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None):
    args = _parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    if not os.path.isfile(os.path.join(SRC, "proxmix", "__init__.py")):
        sys.stderr.write(f"perfbench: no proxmix sources in {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import proxmix as pm
    import proxmix.cli  # noqa: F401
    import proxmix.verify  # noqa: F401

    if not os.path.abspath(pm.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: proxmix imported from {pm.__file__}, not {SRC}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        make = WORKLOADS[args.workload]
        extra = (workdir,) if args.workload == "cli-jobs" else ()
        workload = make(pm, args.seed, *extra)
        for op in workload.warmup:
            op.call()
        setup = _setup_time(time.perf_counter() - _T0)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            result = _traced_run(pm, workload, args, workdir)
        else:
            result = _timed_run(workload, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# rounds and checks
# ---------------------------------------------------------------------------


class Raised:
    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def _fingerprint(r):
    """Exactly comparable form of a result (bytes of arrays, repr of floats)."""
    if isinstance(r, np.ndarray):
        if r.dtype == object:
            return ("O", r.shape, tuple(r.ravel().tolist()))
        return (r.dtype.str, r.shape, r.tobytes())
    if isinstance(r, (tuple, list)):
        return tuple(_fingerprint(v) for v in r)
    if is_dataclass(r):
        return tuple(_fingerprint(getattr(r, f.name)) for f in fields(r))
    if isinstance(r, Raised):
        return ("raised", r.text)
    return repr(r)


def _calibrate():
    """Time one fixed slice of small-array and wide-array numpy work.

    The slice calls no proxmix code, so its time moves only with the speed
    the shared host gives this process, which swings by a factor of up to
    1.7 for seconds or minutes at a time.  It mixes the two kinds of work
    the workloads do: a projected-gradient loop on a 3-vector (interpreter
    and per-call overhead, like single-point solves) and a soft-threshold
    sweep over a grid-sized array (like batch solves).
    """
    t0 = time.perf_counter()
    for _ in range(2):
        x = np.zeros(3)
        for _ in range(30):
            x = x - 0.5 * (_CAL_A.T @ (_CAL_A @ x - _CAL_B))
            n = float(np.linalg.norm(x))
            if n > 1.0:
                x = x / n
            x = np.clip(x, -0.9, 0.9)
    y = _CAL_GRID
    for _ in range(3):
        y = np.maximum(np.abs(y) - 0.01, 0.0) * np.sign(y)
        z = y @ _CAL_A[:2, :2]
        np.sqrt(np.sum(z * z, axis=-1))
    return time.perf_counter() - t0


def _chunks(latencies):
    """Consecutive index ranges of about ``CHUNK_S`` of work each."""
    chunks, start, acc = [], 0, 0.0
    for i, t in enumerate(latencies):
        acc += t
        if acc >= CHUNK_S or i == len(latencies) - 1:
            chunks.append((start, i + 1))
            start, acc = i + 1, 0.0
    return chunks


def _one_round(ops, chunks=None):
    """Call every op once, in order, timing each call.

    Returns (sum of the call times, call times, results, call times at
    reference speed).  With ``chunks``, a calibration slice runs before the
    first chunk and after each one; a call's time at reference speed is its
    time scaled by ``REF_SLICE_S`` over the mean of the slices around its
    chunk.  Without, the last list is empty.
    """
    results, latencies, at_ref = [], [], []
    before = _calibrate() if chunks else None
    for lo, hi in chunks or [(0, len(ops))]:
        for op in ops[lo:hi]:
            t0 = time.perf_counter()
            try:
                r = op.call()
            except Exception as exc:  # a raising call is a failed operation
                r = Raised(exc)
            latencies.append(time.perf_counter() - t0)
            results.append(r)
        if chunks:
            after = _calibrate()
            scale = 2.0 * REF_SLICE_S / (before + after)
            at_ref.extend(t * scale for t in latencies[lo:hi])
            before = after
    return sum(latencies), latencies, results, at_ref


def _run_rounds(workload, seconds, min_rounds=MIN_ROUNDS):
    """A first round, then calibrated rounds over the same ops.

    The first round gives the results that are checked, and the chunks
    between calibration slices.  Calibrated rounds follow until ``seconds``
    have passed since the first began, and at least ``min_rounds`` of them.
    Returns (calibrated round walls, their call times at reference speed as
    a rounds x ops array, first-round results, rounds in which each op's
    result differed from the first round).
    """
    start = time.perf_counter()
    _, latencies, first, _ = _one_round(workload.ops)
    chunks = _chunks(latencies)
    prints = [_fingerprint(r) for r in first]
    walls, at_ref = [], []
    mismatched = [0] * len(workload.ops)
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        wall, _, results, ref = _one_round(workload.ops, chunks)
        walls.append(wall)
        at_ref.append(ref)
        for i, r in enumerate(results):
            mismatched[i] += prints[i] != _fingerprint(r)
    return walls, np.array(at_ref), first, mismatched


def _check(workload, results):
    """Indices of the ops whose first-round result fails, with messages."""
    bad, messages = set(), []
    for i, r in enumerate(results):
        if isinstance(r, Raised):
            bad.add(i)
            messages.append(f"op {i} ({workload.ops[i].kind}) raised {r.text}")
    for indices, check in workload.checks:
        if any(i in bad for i in indices):
            continue
        try:
            fails = check(results)
        except Exception as exc:  # a check that cannot run counts as failed
            fails = [f"check of ops {indices} raised {type(exc).__name__}: {exc}"]
        if fails:
            bad.update(indices)
            messages.extend(fails)
    return bad, messages


def _count_failures(workload, walls, first, mismatched):
    bad, messages = _check(workload, first)
    rounds = len(walls) + 1
    failed = sum(rounds if i in bad else m for i, m in enumerate(mismatched))
    for i, m in enumerate(mismatched):
        if m and i not in bad:
            messages.append(f"op {i} ({workload.ops[i].kind}) changed its result "
                            f"in {m} of {rounds - 1} repeated rounds")
    return rounds * len(workload.ops), failed, messages


def _report_failures(messages):
    for msg in messages[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {msg}")
    if len(messages) > MAX_REPORTED_FAILURES:
        print(f"FAILED ... and {len(messages) - MAX_REPORTED_FAILURES} more")


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _machine(args):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "verify_scale": VERIFY_SCALE,
    }


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def _setup_time(plain):
    """Set-up time, plain and at reference speed (calibration slices after it)."""
    slice_s = statistics.median(_calibrate() for _ in range(SETUP_SLICES))
    return {"setup_s": plain * REF_SLICE_S / slice_s, "plain_s": plain}


def _setup_samples(args, n):
    """Set-up times of ``n`` fresh processes (``--setup-only``)."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(n):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _timed_run(workload, args, setup):
    """End-to-end metrics, with times at reference speed (see ``_calibrate``).

    The speed the shared host gives one process swings by a factor of up
    to 1.7, for seconds or for minutes, so plain wall times of the same
    work differ by that much between runs.  Each call's time is scaled by
    the speed measured by calibration slices around it, and the metrics
    take medians over the rounds.  Plain wall times are printed beside them.
    Set-up is timed plainly, half of the fresh set-ups before the rounds
    and half after.
    """
    units_of = _declared("end_to_end")
    fresh = SETUP_SAMPLES - 1
    setups = [setup] + _setup_samples(args, fresh // 2)
    walls, at_ref, first, mismatched = _run_rounds(workload, args.seconds)
    setups += _setup_samples(args, fresh - fresh // 2)
    attempted, failed, messages = _count_failures(workload, walls, first, mismatched)
    per_call = np.median(at_ref, axis=0)
    wall = statistics.median(at_ref.sum(axis=1))
    units = sum(op.units for op in workload.ops)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_ref_s": wall,
        "ops_per_ref_s": units / wall,
        "latency_p50_ref_ms": 1e3 * _percentile(per_call, 50),
        "latency_p90_ref_ms": 1e3 * _percentile(per_call, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("machine " + json.dumps(_machine(args), sort_keys=True))
    rounds, n_ops = at_ref.shape
    print(f"workload {workload.name}: 1 checked round, then {rounds} calibrated rounds "
          f"of {n_ops} calls, {units} ops ({workload.op_unit}s) per round")
    per_call_note = f"per {workload.latency_unit}, median of {rounds} rounds, {n_ops} samples"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: import, seeded inputs, one warm-up "
                   "per op kind",
        "wall_ref_s": f"median of {rounds} rounds, each the same fixed work",
        "ops_per_ref_s": f"{units} {workload.op_unit}s per round / wall_ref_s",
        "latency_p50_ref_ms": per_call_note,
        "latency_p90_ref_ms": per_call_note,
        "peak_rss_mb": "peak resident set size of this process",
    }
    for name, value in metrics.items():
        print(f"  {name:<20} {value:14.6f} {units_of[name]:<4} ({notes[name]})")
    speed = at_ref.sum(axis=1) / np.asarray(walls)
    beyond = int(0.01 * n_ops)
    print(f"  {'latency_p99_ref_ms':<20} {1e3 * _percentile(per_call, 99):14.6f} ms   "
          f"(not gated; {beyond} of {n_ops} samples beyond it)")
    print(f"  {'wall_s':<20} {statistics.median(walls):14.6f} s    "
          f"(not gated; plain median round wall, {min(walls):.3f} to {max(walls):.3f} s; "
          f"host speed {speed.min():.3f} to {speed.max():.3f} of reference)")
    plain_setup = statistics.median(s["plain_s"] for s in setups)
    print(f"  {'plain setup_s':<20} {plain_setup:14.6f} s    (not gated; plain median set-up)")
    print(f"  {'fail_frac':<20} {failed / attempted:14.6f}      "
          f"({failed} failed of {attempted} attempted)")
    _report_failures(messages)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _probe(pm, workdir):
    """Inputs the library mishandles today, kept out of the timed rounds.

    One NaN row through each batch solver (each iterates until its budget
    runs out); the exit codes of ``proxmix eval`` with a NaN point and of
    ``proxmix prox`` with ragged points (the documented code is 2); and
    the norm of a map whose top two singular values nearly coincide.
    """
    spec = pm.CompositionSpec(pm.DenseMap([[0.5, 0.1], [-0.2, 0.4]]), pm.L1Norm(2), 1.0)
    nan_row = np.array([[np.nan, 1.0]])
    iters = 0
    for solve in (pm.eval_cocomposition_batch, pm.eval_composition_batch):
        iters += int(np.sum(solve(spec, nan_row)[2]))
    codes = {}
    jobs = {
        "cli.nonfinite_exit": {"command": "eval", "spec": spec.to_json(),
                               "which": "cocomposition", "points": [[float("nan"), 1.0]]},
        "cli.ragged_exit": {"command": "prox", "spec": spec.to_json(),
                            "points": [[1.0, 2.0], [3.0]]},
    }
    for name, config in jobs.items():
        path = os.path.join(workdir, "probe.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [config["command"], "--config", path, "--out",
                os.path.join(workdir, "probe.out")]
        try:
            codes[name] = pm.cli.main(argv)
        except Exception:  # an uncaught error exits the command-line program with 1
            codes[name] = 1
    # top singular values 0.673919 and 0.673788: the power iteration of
    # DenseMap.operator_norm needs more than its iteration budget
    near_degenerate = pm.DenseMap([[-0.36426265551393977, 0.566966514362111],
                                   [0.5669440696375728, 0.364133821218282]])
    try:
        near_degenerate.operator_norm()
        norm_failed = 0
    except pm.ConvergenceError:
        norm_failed = 1
    return {"compositions.nonfinite_row_iters": iters, **codes,
            "linalg.norm_probe_failed": norm_failed}


def _registry(pm, seed):
    """``verify.run_all`` at the run's seed, with each case's tag recorded."""
    verify = pm.verify
    tags = {}
    digest = verify._digest

    def recording(*parts):
        d = digest(*parts)
        tags[d] = "|".join(str(p) for p in parts)
        return d

    verify._digest = recording
    try:
        reports = verify.run_all(seed=seed, scale=VERIFY_SCALE)
    finally:
        verify._digest = digest
    return reports, tags


def _traced_run(pm, workload, args, workdir):
    from tracer import Tracer

    walls, _, first, mismatched = _run_rounds(workload, args.seconds / 2.0, min_rounds=2)
    attempted, failed, messages = _count_failures(workload, walls, first, mismatched)
    reference = [_fingerprint(r) for r in first]

    tracer = Tracer(pm)
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            tracer.enabled = True
            wall, _, results, _ = _one_round(workload.ops)
            tracer.enabled = False
            passes.append((wall, tracer.snapshot(), tracer.metrics()))
            changed = [i for i, r in enumerate(results) if _fingerprint(r) != reference[i]]
            attempted += len(workload.ops)
            failed += len(changed)
            messages += [f"op {i} ({workload.ops[i].kind}) changed its result when traced"
                         for i in changed]
    finally:
        tracer.uninstall()
    if passes[0][1] != passes[1][1]:
        a, b = passes[0][1], passes[1][1]
        diff = sorted(k for part in ("counts", "spans")
                      for k in set(a[part]) | set(b[part])
                      if a[part].get(k) != b[part].get(k))
        sys.stderr.write(f"perfbench: two traced rounds at seed {args.seed} gave "
                         f"different counts: {diff}\n")
        return None
    metrics = passes[0][2]
    metrics["cli.points"] = sum(op.points for op in workload.ops)
    metrics["trace.overhead_frac"] = (
        statistics.median(p[0] for p in passes) / statistics.median(walls) - 1.0)
    metrics.update(_probe(pm, workdir))

    suite_s = {sid: 0.0 for sid in pm.verify.TOP_LEVEL_SUITES}
    known_failures = []
    metrics["verify.cases"] = metrics["verify.failed_cases"] = 0
    if workload.name == "cli-jobs":
        reports, tags = _registry(pm, args.seed)
        again, _ = _registry(pm, args.seed)
        if [r.digest() for r in reports] != [r.digest() for r in again]:
            sys.stderr.write(f"perfbench: two registry passes at seed {args.seed} "
                             "gave different cases\n")
            return None
        for r in reports:
            suite_s[r.suite_id] = r.elapsed
            known_failures += [
                f"{r.suite_id}:{tags.get(c.digest, c.digest)} expected {c.expected!r} "
                f"got {c.got!r} slack {c.slack!r}"
                for c in r.cases if not c.passed
            ]
        metrics["verify.cases"] = sum(len(r.cases) for r in reports)
        metrics["verify.failed_cases"] = sum(r.n_failed for r in reports)
    metrics.update({f"verify.suite_s.{sid}": t for sid, t in suite_s.items()})

    per_layer = _declared("per_layer")
    missing = set(per_layer) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    print("machine " + json.dumps(_machine(args), sort_keys=True))
    print(f"workload {workload.name} traced: {len(walls)} untraced rounds, "
          f"2 traced rounds with identical counts")
    for name, unit in per_layer.items():
        print(f"  {name:<36} {metrics[name]:>16.6f} {unit}")
    for line in known_failures:
        print(f"verify case failed: {line}")
    _report_failures(messages)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in per_layer.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
