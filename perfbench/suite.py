"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup` (outside
the timed region), then runs identical *episodes* until the run's time
is up.  An episode is one unit of user-visible work on those inputs:

* ``ensemble-ebe`` — one ``run_method`` call of the paper's proposed
  ``ebe-mcg@cpu-gpu`` method on an 8-case ``impulse`` ensemble;
* ``baseline-crs`` — the same call on the same inputs through the
  conventional ``crs-cg@cpu`` method;
* ``campaign-journal`` — a six-cell ``CampaignRunner`` grid written to
  a fresh on-disk ``ResultStore`` with a checkpoint journal, followed
  by a second, warm pass that must be all cache hits.

Every episode repeats the same computation, so its counts repeat
exactly; the benchmark checks that they do.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from layers import Run

#: CG tolerance of every workload (the paper's eps).
EPS = 1e-8

#: Steps of the ensemble-ebe vs crs-cg cross-check, and its tolerance
#: on the relative displacement difference.  Both runs stop at a
#: relative residual below eps, so they may differ by a small multiple
#: of eps; on these inputs the difference is below 1 eps.
PREFIX_STEPS = 4
PREFIX_TOL = 100 * EPS


def score_run(run: Run) -> tuple[int, int]:
    """``(attempted, failed)`` case-steps of one run.  A case-step fails
    when its step's worst relative residual exceeds eps (records keep
    the worst case only, so every case of that step counts), when its
    case ends in a non-finite state, or when it never ran."""
    bad = np.zeros((run.nt, run.n_cases), dtype=bool)
    bad[len(run.relres):] = True
    for i, relres in enumerate(run.relres[: run.nt]):
        if not relres <= EPS:  # NaN fails too
            bad[i] = True
    for k, finite in enumerate(run.finite):
        if not finite:
            bad[:, k] = True
    return bad.size, int(bad.sum())


class Workload:
    """What every workload provides besides ``setup``/``episode``."""

    #: Set-up repeats per untraced run, about a second of set-up;
    #: ``setup_s`` is their median.
    setup_reps = 9

    def check(self) -> tuple[int, int, str]:
        """Untimed cross-check: ``(attempted, failed, note)``."""
        return 0, 0, ""

    def score_outcomes(self, info: dict) -> tuple[int, int]:
        """``(attempted, failed)`` operations of an episode beyond its
        case-steps."""
        return 0, 0

    def cleanup(self) -> None:
        """Remove what an episode left on disk (untimed)."""


class Ensemble(Workload):
    """One method on an ``impulse`` ensemble of the stratified model."""

    scenario = "impulse"
    model = "stratified"
    resolution = (6, 6, 3)
    cases = 8
    steps = 12

    def __init__(self, name: str, method: str, seed: int) -> None:
        self.name = name
        self.method = method
        self.seed = seed
        self.kind = "ebe" if method.startswith("ebe") else "crs"
        self.problem = self.forces = None

    def describe(self) -> str:
        return (f"{self.scenario}/{self.model} {self.resolution}, "
                f"{self.problem.n_dofs} dofs, {self.cases} cases, "
                f"{self.method}, {self.steps} steps/episode")

    def setup(self) -> None:
        """Problem, case forces, and every operator and preconditioner
        the method applies, so no lazy construction lands in a step."""
        from repro.workloads.scenario import scenario_by_name

        sc = scenario_by_name(self.scenario)()
        pb = sc.build_problem(self.model, self.resolution)
        self.forces = sc.forces(pb, {}, self.seed, self.cases)
        if self.kind == "ebe":
            pb.ebe_operator()
        else:
            pb.crs_operator()
        pb.mass_operator(self.kind)
        pb.damping_operator(self.kind)
        pb.preconditioner()
        self.problem = pb

    def episode(self) -> dict:
        from repro.core import methods

        methods.run_method(self.problem, self.forces, self.steps,
                           self.method, eps=EPS)
        return {}

    def check(self) -> tuple[int, int, str]:
        """Untimed cross-check of the EBE-MCG pipeline against the
        conventional CRS-CG on the same inputs over a short prefix:
        one operation per case, failed when the relative difference
        of the final displacements exceeds ``PREFIX_TOL``."""
        if self.kind != "ebe":
            return 0, 0, ""
        from repro.core import methods

        a = methods.run_method(self.problem, self.forces, PREFIX_STEPS,
                               self.method, eps=EPS)
        b = methods.run_method(self.problem, self.forces, PREFIX_STEPS,
                               "crs-cg@cpu", eps=EPS)
        diffs = [
            np.linalg.norm(x.u - y.u) / max(np.linalg.norm(y.u), 1e-300)
            for x, y in zip(a.final_states, b.final_states)
        ]
        failed = sum(1 for d in diffs if not d <= PREFIX_TOL)
        note = (f"{self.method} vs crs-cg@cpu over {PREFIX_STEPS} steps: "
                f"max relative displacement difference {max(diffs):.3e} "
                f"(tolerance {PREFIX_TOL:.0e} = 100 eps)")
        return len(diffs), failed, note


class Campaign(Workload):
    """A six-cell campaign on the small ``aftershocks`` mesh, run cold
    into a fresh store with a checkpoint journal, then warm."""

    scenario = "aftershocks"
    model = "stratified"
    resolution = (2, 2, 1)
    cases = 2
    steps = 48
    checkpoint_every = 16
    setup_reps = 40

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        from repro.campaign import CampaignSpec
        from repro.campaign.spec import WaveSpec

        self.name = name
        self.seed = seed
        self.spec = CampaignSpec(
            name="perfbench",
            models=(self.model,),
            waves=(WaveSpec("w0"),),
            methods=("crs-cg@cpu", "ebe-mcg@cpu-gpu"),
            resolutions=(self.resolution,),
            cases=self.cases,
            steps=self.steps,
            seed=seed,
            eps=EPS,
            nparts=(1, 2),
            scenarios=(self.scenario,),
            preconditioners=("bj", "twogrid"),
        )
        self.n_cells = len(self.spec.cells())
        self.problem = None
        self.store_root = os.path.join(workdir, f"store-{os.getpid()}")

    def describe(self) -> str:
        return (f"{self.n_cells}-cell campaign, {self.scenario}/{self.model} "
                f"{self.resolution}, {self.problem.n_dofs} dofs, "
                f"{self.cases} cases x {self.steps} steps per cell, "
                f"journal every {self.checkpoint_every} steps, cold + warm pass")

    def setup(self) -> None:
        """The campaign's problem, forces, and the operators and
        preconditioners its cells use.  The runner rebuilds these per
        cell inside the timed passes (cells carry only parameters);
        this measures that same set-up once."""
        from repro.workloads.scenario import scenario_by_name

        sc = scenario_by_name(self.scenario)()
        pb = sc.build_problem(self.model, self.resolution)
        sc.forces(pb, {}, self.seed, self.cases)
        pb.crs_operator()
        pb.ebe_operator()
        for kind in ("crs", "ebe"):
            pb.mass_operator(kind)
            pb.damping_operator(kind)
            pb.twogrid_preconditioner(op_kind=kind)
        pb.preconditioner()
        self.problem = pb

    def episode(self) -> dict:
        from repro.campaign import CampaignRunner, ResultStore

        runner = CampaignRunner(ResultStore(self.store_root), jobs=1,
                                checkpoint_every=self.checkpoint_every)
        cold = runner.run(self.spec)
        warm = runner.run(self.spec)
        return {"cold": cold.outcomes, "warm": warm.outcomes}

    def score_outcomes(self, info: dict) -> tuple[int, int]:
        """One operation per cell and pass: a cold cell fails on an
        error, a warm cell unless it is a cache hit returning the cold
        result."""
        att = fail = 0
        for c, w in zip(info["cold"], info["warm"]):
            att += 2
            fail += (not c.ok) + (not (w.ok and w.cached
                                       and w.result == c.result))
        return att, fail

    def cleanup(self) -> None:
        shutil.rmtree(self.store_root, ignore_errors=True)


def make_workload(name: str, seed: int, workdir: str):
    if name == "ensemble-ebe":
        return Ensemble(name, "ebe-mcg@cpu-gpu", seed)
    if name == "baseline-crs":
        return Ensemble(name, "crs-cg@cpu", seed)
    if name == "campaign-journal":
        return Campaign(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("ensemble-ebe", "baseline-crs", "campaign-journal")
