"""The layer entry points the benchmark wraps, and what it counts there.

:class:`RunObserver` is installed in every run, traced or not: it
wraps :func:`repro.core.methods.run_method` (as looked up by its
callers, the benchmark itself and the campaign executor) so that each
run gets a :class:`StepClock` as its public ``record_log`` argument,
and it keeps a :class:`Run` digest of each run's
:class:`~repro.core.results.RunResult`.

:func:`install_tracing` is installed only in the traced run: it puts a
span around one public entry point per layer and feeds
:class:`EpisodeCounters` from the values those entry points return
(the ``KernelTally`` of every ``CaseSet.predict``/``solve``, every
``CGResult``, every checkpoint append).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

#: Tally-tag prefixes of the solver work, by the layer whose spans
#: measure that work.  The modeled seconds of a group come from the
#: case set's own ``solver_time`` hook applied to the group's records.
TAG_GROUPS = (
    ("sparse.ebe.matvec", ("spmv.ebe",)),
    ("sparse.crs.matvec.pcg", ("spmv.crs",)),
    ("sparse.crs.matvec.rhs", ("rhs.spmv",)),
    ("sparse.precond.apply", ("cg.precond", "twogrid")),
    ("sparse.pcg.self", ("cg.vec",)),
    ("cluster.halo_exchange", ("halo.exchange",)),
)


class StepClock(list):
    """A per-step record list that timestamps every ``append``: passed
    as ``run_method(record_log=...)``, it yields the wall time of each
    time step without touching the time-stepping code.  Between two
    steps it lets the host-speed probe run when one is due, outside
    both steps' intervals."""

    def __init__(self, host) -> None:
        super().__init__()
        self.host = host
        self.starts = [time.perf_counter()]
        self.ends: list[float] = []

    def append(self, record) -> None:
        super().append(record)
        self.ends.append(time.perf_counter())
        self.host.tick()
        self.starts.append(time.perf_counter())


@dataclass
class Run:
    """What the benchmark keeps of one ``run_method`` call.  The
    ``RunResult`` itself is dropped, so a run's peak memory does not
    grow with the number of episodes it completes."""

    method: str
    n_cases: int
    nt: int
    step_starts: list[float]  # perf_counter interval of each time step
    step_ends: list[float]
    relres: list[float]  # worst final relative residual per step
    finite: list[bool]  # per case: final state all finite
    makespan: float  # modeled GH200 time-to-solution
    energy: float  # modeled GH200 module energy
    t_solver: float  # modeled solver seconds run_method recorded
    s_used: float | None  # mean consumed predictor history length

    @classmethod
    def of(cls, method: str, n_cases: int, nt: int, result, clock) -> "Run":
        return cls(
            method, n_cases, nt,
            step_starts=clock.starts[: len(clock.ends)],
            step_ends=clock.ends,
            relres=[rec.relres for rec in result.records],
            finite=[all(np.isfinite(x).all() for x in (st.u, st.v, st.a))
                    for st in result.final_states],
            makespan=result.timeline.makespan,
            energy=result.power.get("energy", 0.0),
            t_solver=sum(rec.t_solver for rec in result.records),
            s_used=result.predictor_s_used(),
        )


def device_models(method: str, module, cpu_threads: int | None = None):
    """``(predictor, solver)`` device models of a run, built the way
    ``run_method`` builds them: the baselines time both on their one
    device; the CPU-GPU pipeline times the predictor on the 36-thread
    CPU share and the solver on the power-capped GPU."""
    from repro.core.methods import cpu_share_factors
    from repro.hardware.power import PowerModel
    from repro.hardware.roofline import DeviceModel

    if method in ("crs-cg@cpu", "crs-cg@gpu"):
        dev = DeviceModel(module.cpu if method.endswith("@cpu") else module.gpu)
        return dev, dev
    flop_f, bw_f = cpu_share_factors(cpu_threads)
    cpu = DeviceModel(module.cpu, flop_factor=flop_f, bw_factor=bw_f)
    threads = 36 if cpu_threads is None else cpu_threads
    pm = PowerModel(module, cpu_load=threads / module.cpu.n_cores, gpu_load=1.0)
    gpu = DeviceModel(module.gpu).throttled(
        pm.gpu_throttle_factor(cpu_concurrent=True)
    )
    return cpu, gpu


class RunObserver:
    """Wraps ``repro.core.methods.run_method`` for the whole process."""

    def __init__(self, host) -> None:
        self.host = host
        self.runs: list[Run] = []
        self.models = None  # (predictor, solver) of the run in flight
        self._original = None

    def install(self) -> None:
        from repro.core import methods
        from repro.hardware.specs import SINGLE_GH200

        original = self._original = methods.run_method

        @functools.wraps(original)
        def observed(problem, forces, nt, method, module=SINGLE_GH200, **kw):
            self.models = device_models(method, module, kw.get("cpu_threads"))
            clock = StepClock(self.host)
            kw.setdefault("record_log", clock)
            result = original(problem, forces, nt, method, module, **kw)
            self.runs.append(Run.of(method, len(forces), nt, result, clock))
            return result

        methods.run_method = observed

    def uninstall(self) -> None:
        from repro.core import methods

        methods.run_method = self._original


@dataclass
class EpisodeCounters:
    """Work counted at the wrapped boundaries during one episode."""

    predict_tally: object = None
    solve_tally: object = None
    predictor_modeled_s: float = 0.0
    solver_modeled_s: float = 0.0
    group_modeled_s: dict = field(default_factory=dict)
    cg_iterations: int = 0
    cg_case_solves: int = 0
    cg_nonconverged: int = 0
    checkpoint_bytes: int = 0
    journal_sizes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.util.counters import KernelTally

        self.predict_tally = KernelTally()
        self.solve_tally = KernelTally()
        self.group_modeled_s = {g: 0.0 for g, _ in TAG_GROUPS}

    def tag_counts(self) -> dict:
        """Exact per-tag ``(calls, flops, bytes)`` of both tallies."""
        return {
            f"{kind}:{tag}": (r.calls, r.flops, r.bytes)
            for kind, t in (("predict", self.predict_tally),
                            ("solve", self.solve_tally))
            for tag, r in sorted(t.records.items())
        }


def _sub_tally(tally, prefixes):
    from repro.util.counters import KernelTally

    sub = KernelTally()
    for tag, rec in tally.records.items():
        if tag.startswith(prefixes):
            sub.records[tag] = rec
    return sub


def install_tracing(tracer, observer: RunObserver, episode) -> None:
    """Span every layer entry point; ``episode()`` returns the
    :class:`EpisodeCounters` the hooks add to."""
    from repro.campaign import runner as campaign_runner
    from repro.campaign.store import ResultStore
    from repro.cluster.halo import DistributedEBE
    from repro.core import methods, partitioned, pipeline
    from repro.core.pipeline import CaseSet
    from repro.fem.newmark import NewmarkBeta
    from repro.io import results as io_results
    from repro.predictor.registry import PREDICTORS
    from repro.sparse.bcrs import BlockCRS
    from repro.sparse.ebe import EBEOperator
    from repro.sparse.precond import BlockJacobi
    from repro.sparse.twogrid import TwoGrid
    from repro.util import counters
    from repro.workloads.scenario import Scenario

    def after_predict(out, args, kwargs):
        cs, (_, tally) = args[0], out
        ep = episode()
        ep.predict_tally.merge(tally)
        ep.predictor_modeled_s += cs.predictor_time(observer.models[0], tally)

    def after_solve(out, args, kwargs):
        cs, (_, tally) = args[0], out
        ep = episode()
        dev = observer.models[1]
        ep.solve_tally.merge(tally)
        ep.solver_modeled_s += cs.solver_time(dev, tally)
        for group, prefixes in TAG_GROUPS:
            ep.group_modeled_s[group] += cs.solver_time(
                dev, _sub_tally(tally, prefixes)
            )

    def after_pcg(res, args, kwargs):
        ep = episode()
        ep.cg_iterations += int(np.sum(res.iterations))
        ep.cg_case_solves += int(np.size(res.iterations))
        ep.cg_nonconverged += int(np.size(res.converged) - np.sum(res.converged))

    def after_checkpoint(path, args, kwargs):
        ep = episode()
        size = os.path.getsize(path)
        ep.checkpoint_bytes += size - ep.journal_sizes.get(str(path), 0)
        ep.journal_sizes[str(path)] = size

    p = tracer.patch
    p(methods, "run_method", "core.run")
    p(Scenario, "build_problem", "workloads.build_problem")
    p(CaseSet, "forces_at", "workloads.force")
    p(CaseSet, "predict", "predictor.predict", after_predict)
    p(CaseSet, "solve", "core.solve", after_solve)
    for cls in PREDICTORS.values():
        if "observe" in vars(cls):
            p(cls, "observe", "predictor.observe")
    p(pipeline, "pcg", "sparse.pcg", after_pcg)
    p(partitioned, "distributed_pcg", "sparse.pcg", after_pcg)
    p(EBEOperator, "matvec", "sparse.ebe.matvec")
    p(BlockCRS, "matvec", "sparse.crs.matvec")
    p(BlockJacobi, "apply", "sparse.precond.apply")
    p(TwoGrid, "apply", "sparse.precond.apply")
    p(NewmarkBeta, "advance", "fem.newmark")
    p(counters, "charge", "util.charge")
    p(DistributedEBE, "halo_exchange", "cluster.halo_exchange")
    p(io_results, "append_campaign_checkpoint", "io.checkpoint",
      after_checkpoint)
    p(ResultStore, "save", "campaign.store.save")
    p(ResultStore, "load", "campaign.store.load")
    p(campaign_runner.CampaignRunner, "run", "campaign.run")
    p(campaign_runner.CELL_EXECUTORS, "method", "campaign.cell")
