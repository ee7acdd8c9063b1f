"""Repository benchmark: measured ensemble throughput, modeled GH200
time/energy, and an outside-in per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload ensemble-ebe --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  Their
times are in reference seconds (see :mod:`hostspeed`): wall time with
the shared host's drifting speed divided out by a fixed probe run
between time steps; the wall-clock equivalents are printed beside
them.  ``--trace 1`` first measures untraced for half the time, then
repeats the same number of episodes with a span around every layer
entry point, prints the per-layer metrics, the measured-vs-modeled
ledger and the exact counts, and writes the spans to ``.perfbench/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

#: Thread pinning, set before numpy loads its BLAS (which is why numpy
#: and the program are imported inside functions, after
#: :func:`import_program`).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_BACKEND": "numpy",
}


#: Percentiles tried for ``step_ms_tail``, highest first: the tail is
#: the highest one with at least ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

OUT_DIR = ".perfbench"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "case_steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "modeled_s": "s",
    "modeled_energy_j": "J",
}

#: Per-layer metrics: name -> (unit, the end-to-end metric and workload
#: it should move).  Times and counts are per episode.
EBE, CRS, CAMP = "ensemble-ebe", "baseline-crs", "campaign-journal"
PER_LAYER = {
    "workloads.setup.s": ("s", "setup_s on all"),
    "workloads.force.s": ("s", f"case_steps_per_s on {CAMP}"),
    "workloads.force.calls": ("count", f"case_steps_per_s on {CAMP}"),
    "predictor.predict.s": ("s", f"case_steps_per_s/step_ms_p50 on {EBE}; flat on {CRS}"),
    "predictor.predict.calls": ("count", f"case_steps_per_s on {EBE}"),
    "predictor.observe.s": ("s", f"case_steps_per_s on {EBE}"),
    "predictor.modeled_s": ("s", f"modeled_s on {EBE}"),
    "predictor.wall_over_modeled": ("ratio", f"case_steps_per_s on {EBE}"),
    "predictor.s_used_mean": ("count", f"modeled_s on {EBE}"),
    "sparse.ebe.matvec.s": ("s", f"case_steps_per_s on {EBE}"),
    "sparse.ebe.matvec.calls": ("count", f"case_steps_per_s on {EBE}"),
    "sparse.crs.matvec.s": ("s", f"case_steps_per_s on {CRS}"),
    "sparse.crs.matvec.calls": ("count", f"case_steps_per_s on {CRS}"),
    "sparse.crs.matvec.pcg_s": ("s", f"case_steps_per_s on {CRS}"),
    "sparse.crs.matvec.pcg_calls": ("count", f"case_steps_per_s on {CRS}"),
    "sparse.crs.matvec.rhs_s": ("s", f"case_steps_per_s on {CRS}"),
    "sparse.crs.matvec.rhs_calls": ("count", f"case_steps_per_s on {CRS}"),
    "sparse.precond.apply.s": ("s", f"case_steps_per_s on {CRS}; {CAMP} via twogrid"),
    "sparse.precond.apply.calls": ("count", f"case_steps_per_s on {CRS}, {CAMP}"),
    "sparse.pcg.s": ("s", f"case_steps_per_s on {CAMP}"),
    "sparse.pcg.calls": ("count", f"case_steps_per_s on {CAMP}"),
    "sparse.pcg.self_s": ("s", f"case_steps_per_s on {CAMP}"),
    "sparse.cg.iters_per_case_step": ("count", "modeled_s, failed_share, case_steps_per_s on all"),
    "sparse.cg.nonconverged": ("count", "failed_share on all"),
    "sparse.modeled_s": ("s", "modeled_s on all"),
    "sparse.wall_over_modeled": ("ratio", "case_steps_per_s on all"),
    "sparse.modeled_flops": ("flop", "modeled_s on all (computed from the tally)"),
    "sparse.modeled_bytes": ("B", "modeled_s on all (computed from the tally, not measured)"),
    "core.solve.s": ("s", "case_steps_per_s on all"),
    "core.rhs.self_s": ("s", f"case_steps_per_s on {CRS}"),
    "core.driver.self_s": ("s", f"case_steps_per_s on {CAMP}"),
    "fem.newmark.s": ("s", "case_steps_per_s on all (small)"),
    "util.charge.calls": ("count", f"case_steps_per_s on {CAMP}"),
    "util.charge.s": ("s", f"case_steps_per_s on {CAMP}"),
    "cluster.halo_exchange.s": ("s", f"case_steps_per_s on {CAMP}"),
    "cluster.halo_exchange.calls": ("count", f"case_steps_per_s on {CAMP}"),
    "io.checkpoint.s": ("s", f"case_steps_per_s on {CAMP}; zero elsewhere"),
    "io.checkpoint.calls": ("count", f"case_steps_per_s on {CAMP}; zero elsewhere"),
    "io.checkpoint.bytes_per_step": ("B/step", f"case_steps_per_s on {CAMP}"),
    "campaign.cell.s": ("s", f"case_steps_per_s on {CAMP}"),
    "campaign.self_s": ("s", f"case_steps_per_s on {CAMP}"),
    "campaign.store.save.s": ("s", f"case_steps_per_s on {CAMP}"),
    "campaign.store.load.s": ("s", f"case_steps_per_s on {CAMP}"),
    "campaign.cache_hits": ("count", f"case_steps_per_s on {CAMP}"),
    "campaign.cells_failed": ("count", f"failed_share on {CAMP}"),
    "trace.wall_s": ("s", "traced episode wall time"),
    "trace.overhead_s": ("s", "traced minus untraced episode time (reference s)"),
    "trace.overhead_share": ("ratio", "tracing overhead / untraced episode time"),
    "trace.unattributed_share": ("ratio", "core.driver.self_s / traced wall"),
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Pin threads, then import the program from ``src/`` of the
    current directory — never from anywhere else."""
    os.environ.update(PINNED_ENV)
    src = pathlib.Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {src / 'repro'} is missing "
             "(run from the repository root)")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {src}")


def provenance() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinning": {k: os.environ.get(k) for k in PINNED_ENV},
        "jobs": 1,
    }


class Episode:
    """One timed episode: its wall time, the ``run_method`` calls it
    made and the workload's own outcome record."""

    def __init__(self, wall: float, ref: float, runs: list,
                 info: dict) -> None:
        self.wall = wall  # wall seconds, host-speed probes excluded
        self.ref = ref  # reference seconds
        self.runs = runs
        self.info = info


def run_episode(wl, observer, tracer=None) -> Episode:
    host = observer.host
    observer.runs = []
    host.tick(force=True)
    t0 = time.perf_counter()
    idx = tracer.open("bench.episode") if tracer else None
    info = wl.episode()
    if tracer:
        tracer.close(idx)
    t1 = time.perf_counter()
    host.tick(force=True)
    wl.cleanup()
    (wall,), (ref,) = host.convert([t0], [t1])
    return Episode(float(wall), float(ref), observer.runs, info)


def timed_setup(wl, host) -> tuple[float, float]:
    """One set-up of the workload, between two probes; returns its
    ``perf_counter`` interval."""
    host.tick(force=True)
    t0 = time.perf_counter()
    wl.setup()
    t1 = time.perf_counter()
    host.tick(force=True)
    return t0, t1


def measure(wl, observer, seconds: float) -> list[Episode]:
    """Whole episodes until ``seconds`` have elapsed (at least two)."""
    episodes: list[Episode] = []
    t_end = time.perf_counter() + seconds
    while len(episodes) < 2 or time.perf_counter() < t_end:
        episodes.append(run_episode(wl, observer))
    return episodes


def modeled(ep: Episode) -> tuple[float, float]:
    """GH200 time- and energy-to-solution of one episode's runs."""
    return (sum(r.makespan for r in ep.runs), sum(r.energy for r in ep.runs))


def tail(samples: list[float]) -> tuple[float, int]:
    import numpy as np

    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_MIN_BEYOND:
            return float(np.percentile(samples, p)), p
    return float(max(samples)), 100


def end_to_end(episodes: list[Episode], setup_spans: list[tuple],
               peak_mb: float, host) -> tuple[dict, dict]:
    import numpy as np

    runs = [r for ep in episodes for r in ep.runs]
    step_wall, steps = host.convert(
        [s for r in runs for s in r.step_starts],
        [s for r in runs for s in r.step_ends],
    )
    setup_wall, setup_ref = host.convert(*zip(*setup_spans))
    # every episode does the same work, so the median episode rate is
    # the run's throughput with the slowest stretches of host
    # contention left out of the centre
    work = [sum(r.n_cases * len(r.relres) for r in ep.runs) for ep in episodes]
    rates = [w / ep.ref for w, ep in zip(work, episodes)]
    wall_rate = statistics.median(w / ep.wall for w, ep in zip(work, episodes))
    t_tail, p = tail(steps)
    m_s, m_j = modeled(episodes[0])
    values = {
        "case_steps_per_s": statistics.median(rates),
        "step_ms_p50": float(np.median(steps)) * 1e3,
        "step_ms_tail": t_tail * 1e3,
        "setup_s": float(np.median(setup_ref)),
        "peak_mem_mb": peak_mb,
        "modeled_s": m_s,
        "modeled_energy_j": m_j,
    }
    t_wall, _ = tail(list(step_wall))
    notes = {
        "step_ms_tail": f"p{p}, {len(steps)} step samples; wall {t_wall * 1e3:.4g}",
        "step_ms_p50": f"{len(steps)} step samples; wall "
                       f"{float(np.median(step_wall)) * 1e3:.4g}",
        "case_steps_per_s": f"median of {len(episodes)} episodes "
                            f"(min {min(rates):.4g}, max {max(rates):.4g}); "
                            f"wall {wall_rate:.4g}",
        "setup_s": f"median of {len(setup_spans)}; wall "
                   f"{float(np.median(setup_wall)):.4g}",
        "peak_mem_mb": "peak RSS through one set-up, the cross-check and "
                       "the measured episodes",
        "modeled_s": "GH200 makespan of one episode",
        "modeled_energy_j": "GH200 module energy of one episode",
    }
    return values, notes


def score(wl, episodes: list[Episode]) -> tuple[int, int]:
    """``(attempted, failed)`` operations over the episodes."""
    from suite import score_run

    att = fail_ = 0
    for ep in episodes:
        for a, f in [*map(score_run, ep.runs), wl.score_outcomes(ep.info)]:
            att, fail_ = att + a, fail_ + f
    return att, fail_


def repeats_exactly(signatures: list, label: str) -> bool:
    """True when every count signature equals the first one."""
    bad = [i for i, s in enumerate(signatures) if s != signatures[0]]
    for i in bad:
        diff = sorted(k for k in set(signatures[0]) | set(signatures[i])
                      if signatures[0].get(k) != signatures[i].get(k))
        print(f"# COUNT MISMATCH ({label}, #{i} vs #0): {diff[:12]}")
    return not bad


def source_digest() -> str:
    """Digest of the program and benchmark sources, so that counts left
    behind by a run are compared only against the same code."""
    h = hashlib.sha256()
    root = pathlib.Path.cwd()
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("perfbench/*.py")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def per_layer(traced, untraced, setup_span_s):
    """Per-layer metrics (per episode), the measured-vs-modeled ledger
    rows, the first episode's count signature, whether the counts repeat
    exactly across the traced episodes, and the first episode's
    counters."""
    import numpy as np

    from layers import TAG_GROUPS

    sums = [s for _, s, _ in traced]
    cnts = [c for _, _, c in traced]
    eps = [e for e, _, _ in traced]

    def s(name, key="s"):
        return float(np.mean([x.get(name, {}).get(key, 0.0) for x in sums]))

    def n(name, key="calls"):
        return int(sums[0].get(name, {}).get(key, 0))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    pred_modeled = float(np.mean([c.predictor_modeled_s for c in cnts]))
    solv_modeled = float(np.mean([c.solver_modeled_s for c in cnts]))
    solve_wall = s("core.solve") - s("fem.newmark") - s("predictor.observe")
    traced_wall = float(np.mean([e.wall for e in eps]))
    # the overhead compares reference seconds, so host drift between
    # the untraced and the traced half of the run cancels
    traced_ref = float(np.mean([e.ref for e in eps]))
    untraced_ref = sum(e.ref for e in untraced[: len(eps)]) / len(eps)
    unattributed_s = s("core.run", "self_s") + s("bench.episode", "self_s")
    s_used = [r.s_used for e in eps for r in e.runs if r.s_used is not None]
    nt_total = sum(r.nt for r in eps[0].runs)
    info = eps[0].info
    m = {
        "workloads.setup.s": setup_span_s,
        "workloads.force.s": s("workloads.force"),
        "workloads.force.calls": n("workloads.force"),
        "predictor.predict.s": s("predictor.predict"),
        "predictor.predict.calls": n("predictor.predict"),
        "predictor.observe.s": s("predictor.observe"),
        "predictor.modeled_s": pred_modeled,
        "predictor.wall_over_modeled": ratio(s("predictor.predict"), pred_modeled),
        "predictor.s_used_mean": float(np.mean(s_used)) if s_used else 0.0,
        "sparse.ebe.matvec.s": s("sparse.ebe.matvec"),
        "sparse.ebe.matvec.calls": n("sparse.ebe.matvec"),
        "sparse.crs.matvec.s": s("sparse.crs.matvec"),
        "sparse.crs.matvec.calls": n("sparse.crs.matvec"),
        "sparse.crs.matvec.pcg_s": s("sparse.crs.matvec", "pcg_s"),
        "sparse.crs.matvec.pcg_calls": n("sparse.crs.matvec", "pcg_calls"),
        "sparse.crs.matvec.rhs_s": s("sparse.crs.matvec", "other_s"),
        "sparse.crs.matvec.rhs_calls": n("sparse.crs.matvec", "other_calls"),
        "sparse.precond.apply.s": s("sparse.precond.apply"),
        "sparse.precond.apply.calls": n("sparse.precond.apply"),
        "sparse.pcg.s": s("sparse.pcg"),
        "sparse.pcg.calls": n("sparse.pcg"),
        "sparse.pcg.self_s": s("sparse.pcg", "self_s"),
        "sparse.cg.iters_per_case_step": ratio(cnts[0].cg_iterations,
                                               cnts[0].cg_case_solves),
        "sparse.cg.nonconverged": cnts[0].cg_nonconverged,
        "sparse.modeled_s": solv_modeled,
        "sparse.wall_over_modeled": ratio(solve_wall, solv_modeled),
        "sparse.modeled_flops": cnts[0].solve_tally.total_flops(),
        "sparse.modeled_bytes": cnts[0].solve_tally.total_bytes(),
        "core.solve.s": s("core.solve"),
        "core.rhs.self_s": s("core.solve") - s("sparse.pcg") - s("fem.newmark")
                           - s("predictor.observe"),
        "core.driver.self_s": unattributed_s,
        "fem.newmark.s": s("fem.newmark"),
        "util.charge.calls": n("util.charge"),
        "util.charge.s": s("util.charge"),
        "cluster.halo_exchange.s": s("cluster.halo_exchange"),
        "cluster.halo_exchange.calls": n("cluster.halo_exchange"),
        "io.checkpoint.s": s("io.checkpoint"),
        "io.checkpoint.calls": n("io.checkpoint"),
        "io.checkpoint.bytes_per_step": ratio(cnts[0].checkpoint_bytes, nt_total),
        "campaign.cell.s": s("campaign.cell"),
        "campaign.self_s": s("campaign.run", "self_s"),
        "campaign.store.save.s": s("campaign.store.save"),
        "campaign.store.load.s": s("campaign.store.load"),
        "campaign.cache_hits": sum(o.cached for o in info.get("warm", ())),
        "campaign.cells_failed": sum(not o.ok for o in info.get("cold", ()))
                                 + sum(not o.ok for o in info.get("warm", ())),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_ref - untraced_ref,
        "trace.overhead_share": ratio(traced_ref - untraced_ref, untraced_ref),
        "trace.unattributed_share": ratio(unattributed_s, traced_wall),
    }

    groups = {g: float(np.mean([c.group_modeled_s[g] for c in cnts]))
              for g, _ in TAG_GROUPS}
    group_wall = {
        "sparse.ebe.matvec": m["sparse.ebe.matvec.s"],
        "sparse.crs.matvec.pcg": m["sparse.crs.matvec.pcg_s"],
        "sparse.crs.matvec.rhs": m["sparse.crs.matvec.rhs_s"],
        "sparse.precond.apply": m["sparse.precond.apply.s"],
        "sparse.pcg.self": m["sparse.pcg.self_s"],
        "cluster.halo_exchange": m["cluster.halo_exchange.s"],
    }
    ledger = {"predictor (predict)": (m["predictor.predict.s"], pred_modeled),
              "sparse (rhs + pcg)": (solve_wall, solv_modeled)}
    ledger.update({f"  {g}": (group_wall[g], groups[g]) for g in group_wall})

    # the ledger converts tallies with the run's own device models, so
    # its solver total must equal what run_method recorded per step
    recorded = sum(r.t_solver for e in eps for r in e.runs) / len(eps)
    ledger_ok = abs(recorded - solv_modeled) <= 1e-9 * max(recorded, 1e-300)
    if not ledger_ok:
        print(f"# LEDGER MISMATCH: recorded solver {recorded!r} s vs "
              f"converted {solv_modeled!r} s")

    sigs = []
    for e, sm, c in traced:
        sig = {f"calls:{k}": (v["calls"], v["pcg_calls"], v["other_calls"])
               for k, v in sm.items()}
        sig.update(c.tag_counts())
        sig.update({
            "cg_iterations": c.cg_iterations,
            "cg_nonconverged": c.cg_nonconverged,
            "checkpoint_bytes": c.checkpoint_bytes,
            "modeled": modeled(e),
            "cache_hits": sum(o.cached for o in e.info.get("warm", ())),
        })
        sigs.append(sig)
    repeat_ok = repeats_exactly(sigs, "traced episodes")
    return m, ledger, sigs[0], repeat_ok and ledger_ok, cnts[0]


def print_table(rows, header) -> None:
    print("# " + header)
    for row in rows:
        print("# " + row)


def traced_run(wl, observer, episodes, out_dir: str, seed: int):
    """Repeat the untraced episode count with every layer spanned;
    returns ``(attempted, failed, per-layer values, counts_ok)``."""
    from layers import EpisodeCounters, install_tracing
    from tracer import Tracer

    tracer = Tracer()
    counters: list = []
    # probe around traced episodes only, never inside their spans
    observer.host.interval = float("inf")
    install_tracing(tracer, observer, lambda: counters[-1])
    try:
        idx = tracer.open("workloads.setup")
        wl.setup()
        tracer.close(idx)
        setup_span_s = tracer.end[idx] - tracer.start[idx]
        traced = []
        for _ in range(len(episodes)):
            counters.append(EpisodeCounters())
            lo = len(tracer.name)
            ep = run_episode(wl, observer, tracer)
            traced.append((ep, tracer.summarize(lo, len(tracer.name)),
                           counters[-1]))
    finally:
        tracer.uninstall()
    att, failed = score(wl, [e for e, _, _ in traced])
    values, ledger, sig, counts_ok, c0 = per_layer(traced, episodes, setup_span_s)

    # counts must also repeat across processes: compare with the counts
    # an earlier traced run of the same code at this seed left behind
    counts_path = os.path.join(
        out_dir, f"counts-{wl.name}-seed{seed}-{source_digest()}.json")
    sig = json.loads(json.dumps(sig))
    if os.path.exists(counts_path):
        with open(counts_path) as fh:
            earlier = json.load(fh)
        counts_ok = repeats_exactly([earlier, sig], "earlier run") and counts_ok
    with open(counts_path, "w") as fh:
        json.dump(sig, fh, indent=0, sort_keys=True)

    print(f"# per-layer metrics, per episode ({len(traced)} traced "
          f"episodes after {len(episodes)} untraced)")
    print_table(
        [f"{k:<32} {values[k]:>14.6g} {u:<6} -> {moves}"
         for k, (u, moves) in PER_LAYER.items()],
        f"{'metric':<32} {'value':>14} {'unit':<6} -> moves",
    )
    print_table(
        [f"{k:<26} {w:>12.6g} {md:>12.6g} "
         f"{(w / md if md > 0 else float('nan')):>12.1f}"
         for k, (w, md) in ledger.items()],
        f"{'ledger (per episode)':<26} {'measured s':>12} "
        f"{'modeled s':>12} {'wall/model':>12}",
    )
    print_table(
        [f"{k:<40} {calls:>8d} {fl:>16.0f} {by:>16.0f}"
         for k, (calls, fl, by) in c0.tag_counts().items()],
        f"{'tally tag (computed, per episode)':<40} {'calls':>8} "
        f"{'flops':>16} {'bytes':>16}",
    )
    spans = tracer.write(os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.npz"))
    print(f"# spans: {len(tracer.name)} written to {os.path.relpath(spans)}")
    print(f"# trace overhead {values['trace.overhead_s']:.4g} s per episode "
          f"({values['trace.overhead_share']:.1%}); unattributed "
          f"{values['trace.unattributed_share']:.1%} of traced wall; "
          f"counts repeat exactly: {counts_ok}")
    return att, failed, values, counts_ok


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> dict:
    """Set up, cross-check and measure one workload; returns the result
    object of the output contract."""
    from hostspeed import HostSpeed
    from layers import RunObserver
    from suite import make_workload

    wl = make_workload(name, seed, out_dir)
    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    host = HostSpeed()
    observer = RunObserver(host)
    observer.install()
    try:
        setup_spans = [timed_setup(wl, host)]
        print(f"# workload: {wl.describe()}")
        att, failed, note = wl.check()
        if note:
            print(f"# cross-check: {note}")

        episodes = measure(wl, observer, seconds / 2 if trace else seconds)
        # read before the set-up repeats below, which would otherwise
        # add their allocator churn to the workload's peak
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e_att, e_failed = score(wl, episodes)
        att, failed = att + e_att, failed + e_failed
        correct = repeats_exactly(
            [{"modeled": modeled(ep)} for ep in episodes], "untraced episodes"
        )
        if trace:
            t_att, t_failed, values, counts_ok = traced_run(
                wl, observer, episodes, out_dir, seed
            )
            att, failed = att + t_att, failed + t_failed
            correct = correct and counts_ok
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            for _ in range(wl.setup_reps - 1):
                setup_spans.append(timed_setup(wl, host))
            values, notes = end_to_end(episodes, setup_spans, peak_mb, host)
            units = END_TO_END
            print(f"# host speed: {len(host.took)} probes, median "
                  f"{host.slowdown():.3f}x the reference probe time")
            print_table(
                [f"{k:<18} {values[k]:>14.6g} {u:<4} {notes.get(k, '')}"
                 for k, u in units.items()],
                f"{'metric':<18} {'value':>14} unit",
            )
    finally:
        observer.uninstall()
    correct = correct and failed == 0
    print(f"# failed_share {failed / max(att, 1):.6g} ({failed}/{att} "
          f"operations); correct: {str(correct).lower()}")
    return {"correct": bool(correct), "attempted": int(att),
            "failed": int(failed),
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for the three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from suite import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{WORKLOADS} or 'all'")
    out_dir = os.path.join(os.getcwd(), OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    print("# provenance: " + json.dumps(provenance()))

    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                               out_dir) for n in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        # one process ran every workload: peak_mem_mb of a later
        # workload includes the earlier ones
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
