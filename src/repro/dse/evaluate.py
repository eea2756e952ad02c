"""Memoizing trial evaluation against the analytic model.

The :class:`Evaluator` turns a declarative configuration (see
:mod:`repro.dse.space`) into a concrete :class:`DesignPoint` — estimating
the achievable clock from the clock model, deriving the spatial-blocking
tile for tiled configurations and applying the feasibility checks of
eqs. (4)/(6)/(7) — then runs the runtime/energy predictor and scores the
result against the study's objectives.

Results are memoized by canonical configuration key, so a configuration is
never evaluated twice within a study (or across a resumed one: the study
seeds the cache from its journal).  Evaluation is serial: no objective does
I/O, so worker threads only add overhead.

A batch (:meth:`Evaluator.evaluate_many`) takes the model's arithmetic to
NumPy. Its new untiled, single-board configurations are staged, and the
first :meth:`Evaluator.evaluate` of a staged configuration runs them all
through :class:`~repro.model.columns.DesignColumns` in one array pass: the
same checks in the same order, the same reasons, every float bit-identical
to the scalar model. Each row then becomes the same ``DesignPoint``,
``PredictedMetrics`` and ``EvalContext`` and is scored by the study's
objectives and constraints as before. Every configuration still goes
through :meth:`Evaluator.evaluate` exactly once, and the call that runs the
pass holds its time. Tiled and multi-board rows, mix evaluators, values
outside the model's domain and single configurations (``Study.ask``, the
annealing and greedy walks) take the scalar path, which stays the
reference the array pass is tested against.

With ``workloads=`` (a :class:`~repro.workload.WorkloadMix` or a list of
specs) a single configuration is scored against a whole workload
population: the design must be feasible for every spec, predicted mix
runtime is the weighted sum over specs, and
:meth:`Evaluator.validate_mix` realizes the winning configuration
functionally through the chunked stacked engine, bit-identical to the
golden interpreter.

A trial is arithmetic: everything the model reads off the program (stencil
specs, orders, ``G_dsp``, buffer and traffic bytes per point) is analysed
once per program and cached on the frozen IR, so no trial walks an
expression tree. The clock-independent checks (capacity, eq. (7), eq. (6))
run on the default-clock design before the clock is estimated — over half of
a typical grid stops there — and the resource report the clock estimate
builds is the one the predictor uses. Functional validation runs launched
from search results go through the plan-compiled engine
(:mod:`repro.stencil.compiled`) and reuse its shared plan cache across trials.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping, Sequence

from repro import observability as obs
from repro.arch.device import FPGADevice
from repro.dse.objectives import (
    Constraint,
    EvalContext,
    Objective,
    RUNTIME,
)
from repro.dse.space import Config, ConfigKey, config_key
from repro.model.bandwidth import feasible_vectorization
from repro.model.columns import DesignColumns
from repro.model.design import DesignPoint, DesignSpace, Workload, tile_for_unroll
from repro.model.multifpga import MultiFPGAConfig, spatial_scaling_seconds
from repro.model.resources import module_mem_bytes
from repro.model.runtime import RuntimePredictor
from repro.model.tiling import TileDesign
from repro.stencil.program import StencilProgram
from repro.util.errors import InfeasibleDesignError, ValidationError
from repro.util.units import MHZ
from repro.workload import MixLike, WorkloadMix, WorkloadSpec, as_mix


@dataclass(frozen=True)
class _MixBinding:
    """One mix entry resolved against the model: program, space, traffic."""

    spec: WorkloadSpec
    weight: float
    program: StencilProgram
    space: DesignSpace
    traffic: float | None


@dataclass(frozen=True)
class TrialResult:
    """The outcome of evaluating one configuration."""

    config: Config
    feasible: bool
    design: DesignPoint | None
    values: dict[str, float] = dc_field(default_factory=dict)
    #: primary objective, direction-folded; ``inf`` for infeasible trials
    score: float = math.inf
    #: why the trial is infeasible (empty for feasible trials)
    reason: str = ""
    #: True when the trial is memory-bound under the AXI/burst model
    memory_bound: bool = False

    def value(self, name: str) -> float:
        """One raw objective value (``inf`` when infeasible)."""
        return self.values.get(name, math.inf)


class Evaluator:
    """Binds configurations to the model and memoizes their evaluation."""

    def __init__(
        self,
        program: StencilProgram,
        device: FPGADevice,
        workload: Workload | None = None,
        *,
        objectives: Sequence[Objective] = (RUNTIME,),
        constraints: Sequence[Constraint] = (),
        logical_bytes_per_cell_iter: float | None = None,
        workloads: MixLike | None = None,
    ):
        if not objectives:
            raise ValidationError("an Evaluator needs at least one objective")
        if workload is None and workloads is None:
            raise ValidationError(
                "an Evaluator needs a workload (or a workload mix via workloads=)"
            )
        if workload is not None and workloads is not None:
            raise ValidationError(
                "pass either workload= (single) or workloads= (mix), not both"
            )
        self.program = program
        self.device = device
        self.objectives = tuple(objectives)
        self.constraints = tuple(constraints)
        self.logical_bytes_per_cell_iter = logical_bytes_per_cell_iter
        #: the workload mix this evaluator scores configurations against
        #: (None when scoring a single workload the pre-mix way)
        self.mix: WorkloadMix | None = None
        if workloads is not None:
            self.mix = as_mix(workloads)
            self._entries = self._bind_mix(self.mix)
            # the heaviest member stands for the mix wherever one value
            # must (clock estimation, line-buffer sizing, unroll caps) —
            # the same selection the CLI uses to pick its program
            rep_spec = self.mix.heaviest()
            rep = next(b for b in self._entries if b.spec == rep_spec)
            self.workload = rep.spec
            self._rep_program = rep.program
            self._space = rep.space
        else:
            self.workload = workload
            self._entries = ()
            self._rep_program = program
            self._space = DesignSpace(program, device)
        self._cache: dict[ConfigKey, TrialResult] = {}
        self._lock = threading.Lock()
        #: the array model of the untiled single-board rows (built on first use)
        self._columns: DesignColumns | None = None
        #: new configurations :meth:`evaluate_many` left for one array pass,
        #: each with its ``(memory, V, p, batch)`` row
        self._staged: dict[ConfigKey, tuple[Config, tuple]] = {}
        #: that pass's outcomes, each taken by its configuration's evaluate
        self._passed: dict[ConfigKey, tuple[TrialResult, str]] = {}
        #: configurations actually run through the model
        self.evaluations = 0
        #: requests answered from the memo table
        self.cache_hits = 0
        #: infeasible evaluations by the check that rejected them
        #: (``capacity``/``buffer``/``dsp``/``bandwidth``/``tile``/``batch``,
        #: ``constraint``, or ``invalid`` for a configuration the model refuses)
        self.infeasible: Counter[str] = Counter()

    def _bind_mix(self, mix: WorkloadMix) -> tuple[_MixBinding, ...]:
        """Resolve every distinct mix spec against the model, once.

        Specs carrying an app name resolve their program (and logical
        traffic profile) through the application registry; app-less specs
        rebind this evaluator's base program to their mesh. Duplicate specs
        fold into one binding with summed weight, so scoring a mix costs
        one model walk per *distinct* spec.
        """
        bindings = []
        for spec, weight in mix.group_by_spec().items():
            if spec.app is not None:
                prog = spec.program()
            else:
                prog = self.program.with_mesh(spec.mesh)
            # one traffic convention for every entry point: the explicit
            # parameter, else the predictor's program-derived default —
            # the same workload spelled as workload= or workloads= must
            # score identically (per-app GPU traffic profiles are an
            # explicit opt-in, as in the harness)
            bindings.append(
                _MixBinding(
                    spec, weight, prog, DesignSpace(prog, self.device),
                    self.logical_bytes_per_cell_iter,
                )
            )
        return tuple(bindings)

    @property
    def primary(self) -> Objective:
        """The first (ranking) objective."""
        return self.objectives[0]

    # -- model-derived bounds (cheap: no trial evaluation) ------------------------
    def unroll_cap(self, V: int, tiled: bool = False) -> int:
        """Largest unroll that can possibly pass feasibility at width ``V``.

        Uses the *hard* DSP inventory (what :meth:`DesignSpace.check`
        enforces), not the 90% planning budget of eq. (6) — the paper's
        synthesized Jacobi landed at p=29 against a planning bound of 28,
        and the optimum regularly sits in that gap.  Baseline designs are
        additionally line-buffer bound (eq. 7); tiled designs trade buffer
        for redundant compute, leaving the DSP bound only.

        Mix-scored evaluators take the **minimum over every spec** of the
        mix: one design must be buildable for all of them, so e.g. an RTM
        member's huge ``G_dsp`` caps the whole mix's unroll axis — which is
        exactly what steers warm-started searches into the jointly feasible
        region.
        """
        caps = []
        for program, space, mesh in self._cap_bindings():
            dsp_cap = max(1, self.device.dsp_blocks // (V * space.gdsp))
            if tiled:
                caps.append(dsp_cap)
                continue
            module_bytes = module_mem_bytes(program, mesh.shape)
            caps.append(
                min(
                    dsp_cap,
                    max(1, self.device.usable_on_chip_bytes() // module_bytes),
                )
            )
        return min(caps)

    def vector_cap(self, memory: str, p: int = 1) -> int:
        """Widest vectorization that can possibly be feasible on ``memory``.

        The minimum of the bandwidth bound (eq. 4, at the device's default
        clock) and the hard DSP bound at the requested unroll depth — over
        every spec of a mix, as for :meth:`unroll_cap`.
        """
        caps = []
        for program, space, _ in self._cap_bindings():
            bw = feasible_vectorization(
                program, self.device, memory, self.device.default_clock_mhz * MHZ
            )
            dsp = max(1, self.device.dsp_blocks // (p * space.gdsp))
            caps.append(max(1, min(bw, dsp)))
        return min(caps)

    def _cap_bindings(self):
        """(program, design space, mesh) triples the model bounds range over."""
        if self.mix is None:
            return ((self._rep_program, self._space, self.workload.mesh),)
        return tuple((b.program, b.space, b.spec.mesh) for b in self._entries)

    # -- config -> workload/design -------------------------------------------------
    def workload_for(self, config: Mapping[str, Any]) -> Workload:
        """The workload a configuration denotes.

        A ``batch`` axis (see :func:`repro.dse.space.model_space`) overrides
        the study workload's batch size: the trial scores one design serving
        that many same-shaped meshes streamed back to back (eq. (15)).
        Mix-scored evaluators have no single such workload — their trials
        aggregate over every spec — so this refuses rather than silently
        answering for the representative member alone.
        """
        if self.mix is not None:
            raise ValidationError(
                "this evaluator scores a workload mix; no single workload "
                "denotes a trial — iterate mix.specs (or use validate_mix())"
            )
        batch = int(config.get("batch", self.workload.batch))
        if batch == self.workload.batch:
            return self.workload
        return Workload(self.workload.mesh, self.workload.niter, batch)

    def design_for(self, config: Mapping[str, Any]) -> DesignPoint:
        """The concrete design point a configuration denotes.

        Raises :class:`InfeasibleDesignError` when the configuration cannot
        produce a buildable design (e.g. a tile fully consumed by its halo).
        """
        return self._space.estimate_clock(
            self._draft_design(config), self.workload
        )[0]

    def _draft_design(self, config: Mapping[str, Any]) -> DesignPoint:
        """The configuration's design, tile derived, at the default clock."""
        memory = config.get("memory", self.device.memory_targets[0])
        p = int(config["p"])
        tile = self._derive_tile(p) if config.get("tiled", False) else None
        return DesignPoint(
            int(config["V"]), p, self.device.default_clock_mhz, memory, tile
        )

    def _derive_tile(self, p: int) -> TileDesign:
        """The largest buffer-feasible tile for unroll ``p`` (Section IV-A)."""
        tile = tile_for_unroll(self._rep_program, self.device, self.workload.mesh, p)
        if min(tile.tile) <= p * self._rep_program.order:
            raise InfeasibleDesignError(
                f"tile {tile.tile} is consumed by the "
                f"p*D={p * self._rep_program.order} halo",
                check="tile",
            )
        return tile

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self, config: Mapping[str, Any], key: ConfigKey | None = None
    ) -> TrialResult:
        """Evaluate one configuration (memoized).

        ``key`` is the configuration's :func:`config_key` when the caller
        already holds it (batches and studies do).
        """
        if key is None:
            key = config_key(config)
        cached = self._cache.get(key)  # one atomic read; counters need the lock
        if cached is not None:
            with self._lock:
                self.cache_hits += 1
            obs.inc("dse.eval_cache_hits")
            return cached
        if not obs.is_enabled():
            result, check = self._evaluate_new(config, key)
        else:
            with obs.span("dse.trial", config=str(dict(config))):
                result, check = self._evaluate_new(config, key)
            obs.inc("dse.trials", feasible=result.feasible, check=check)
            obs.emit(
                "dse.trial",
                config=dict(config),
                feasible=result.feasible,
                score=result.score if math.isfinite(result.score) else None,
                reason=result.reason or None,
            )
        with self._lock:
            if key in self._cache:  # a racing caller got there first
                self.cache_hits += 1
                return self._cache[key]
            self._cache[key] = result
            self.evaluations += 1
            if check:
                self.infeasible[check] += 1
        return result

    def evaluate_many(
        self,
        configs: Sequence[Mapping[str, Any]],
        keys: Sequence[ConfigKey] | None = None,
    ) -> list[TrialResult]:
        """Evaluate a batch of configurations.

        Duplicate configurations within the batch are evaluated once; the
        returned list is positionally aligned with ``configs``.
        ``keys`` are the configurations' :func:`config_key` s, if known.

        New untiled single-board configurations are staged for one array
        pass (:mod:`repro.model.columns`), which the first :meth:`evaluate`
        of a staged configuration runs for all of them; every new
        configuration still goes through :meth:`evaluate` exactly once.
        """
        if keys is None:
            keys = [config_key(c) for c in configs]
        unique: dict[ConfigKey, Mapping[str, Any]] = {}
        for key, config in zip(keys, configs):
            unique.setdefault(key, config)
        staged = self._stage(unique)
        try:
            for key, config in unique.items():
                self.evaluate(config, key)
        finally:
            if staged:
                with self._lock:
                    for key in staged:
                        self._staged.pop(key, None)
                        self._passed.pop(key, None)
        with self._lock:
            return [self._cache[key] for key in keys]

    def seed(self, result: TrialResult) -> bool:
        """Install a persisted result into the memo table (study resume).

        Returns False (and changes nothing) when the configuration is
        already cached.
        """
        key = config_key(result.config)
        with self._lock:
            if key in self._cache:
                return False
            self._cache[key] = result
            return True

    def cached(self, config: Mapping[str, Any]) -> TrialResult | None:
        """The memoized result for a configuration, if any (no hit counted)."""
        with self._lock:
            return self._cache.get(config_key(config))

    def mix_scheduler(
        self,
        *,
        engine: str = "compiled",
        max_workers: int | None = None,
        strict: bool = True,
    ):
        """A :class:`~repro.dataflow.scheduler.MixScheduler` for this mix.

        Bound to the same per-spec programs the evaluator scores against,
        so functional validation runs exactly what the model priced —
        including app-less specs, whose programs resolve through this
        evaluator's bindings (their initial conditions are synthesized
        from the program contract).
        ``engine="parallel"`` fans the groups' chunks out over a worker
        pool of up to ``max_workers`` lanes; results stay bit-identical.
        ``strict=False`` isolates failing groups instead of raising.
        """
        from repro.dataflow.scheduler import MixScheduler

        if self.mix is None:
            raise ValidationError(
                "this evaluator scores a single workload; no mix to schedule"
            )
        by_key = {b.spec.job_key: b.program for b in self._entries}

        def program_for(spec):
            prog = by_key.get(spec.job_key)  # job_key already excludes batch
            return prog if prog is not None else spec.program()

        return MixScheduler(
            engine=engine,
            program_for=program_for,
            max_workers=max_workers,
            strict=strict,
        )

    def validate_mix(
        self,
        config: Mapping[str, Any],
        *,
        engine: str = "compiled",
        max_workers: int | None = None,
        strict: bool = True,
    ):
        """Functionally validate a configuration against the whole mix.

        Executes every member of the mix (at the configuration's batch
        scaling) through the chunked stacked engine — serial by default,
        pool-fanned with ``engine="parallel"`` — and asserts bit-identity
        against per-mesh golden-interpreter replay; returns the
        :class:`~repro.dataflow.scheduler.MixRunResult` with its dispatch
        accounting. Tiled configurations are rejected, mirroring
        :meth:`~repro.dataflow.accelerator.FPGAAccelerator.run_batch`.
        ``strict=False`` returns a result whose
        ``errors`` lists isolated group failures instead of raising on the
        first one (residuals are then reported for the groups that ran).
        """
        if self.mix is None:
            raise ValidationError(
                "this evaluator scores a single workload; no mix to validate"
            )
        design = self.design_for(config)
        if design.tile is not None:
            raise ValidationError(
                "batched execution is not supported on tiled designs"
            )
        batch_factor = int(config.get("batch", 1))
        scheduler = self.mix_scheduler(
            engine=engine, max_workers=max_workers, strict=strict
        )
        with obs.span(
            "dse.validate_mix", batch_factor=batch_factor, engine=engine
        ):
            result = scheduler.run(self.mix.scaled(batch_factor), validate=True)
        if obs.is_enabled():
            # measured-vs-modeled residuals: what the chunked engine
            # actually took per group against what the analytic model
            # priced for the same workload on this design
            boards = int(config.get("boards", 1))
            for binding in self._entries:
                workload = binding.spec.with_batch(
                    binding.spec.batch * batch_factor
                )
                try:
                    _, modeled = self._score_workload(
                        binding.program, workload, design, boards,
                        binding.traffic,
                    )
                    group = result.group_for(binding.spec)
                except (InfeasibleDesignError, ValidationError):
                    continue
                measured = float(sum(group.chunk_seconds))
                obs.observe("dse.residual_seconds", abs(measured - modeled))
                obs.emit(
                    "dse.residual",
                    spec=binding.spec.describe(),
                    measured_seconds=measured,
                    modeled_seconds=modeled,
                    residual_seconds=measured - modeled,
                )
        return result

    # -- internals ----------------------------------------------------------------
    def _score_workload(
        self, program, workload, design, boards, traffic, resources=None
    ) -> tuple:
        """Predict one workload on one design: ``(metrics, seconds)``.

        Shared by the single-workload and mix paths so the boards-axis
        model cannot diverge between them. For ``boards > 1`` the runtime
        comes from the multi-FPGA spatial-scaling model, floored by the
        memory model kept consistent across the boards axis: each board
        streams its slab through its own memory system, so the
        single-board memory floor shrinks with the count.
        """
        predictor = RuntimePredictor(
            program,
            self.device,
            design,
            logical_bytes_per_cell_iter=traffic,
        )
        metrics = predictor.predict(workload, resources)
        seconds = metrics.seconds
        if boards > 1:
            scaled = spatial_scaling_seconds(
                program, design, workload, MultiFPGAConfig(boards)
            )
            floor = (
                predictor.memory_cycles(workload) / design.clock_hz / boards
            )
            seconds = max(scaled, floor)
        return metrics, seconds

    def _stage(self, batch: Mapping[ConfigKey, Mapping[str, Any]]) -> list[ConfigKey]:
        """Stage a batch's new array-path configurations; returns their keys.

        The array path covers single-workload, untiled, single-board rows
        whose values lie in the model's domain (:meth:`DesignColumns.admits`);
        everything else stays on :meth:`_evaluate_uncached`.
        """
        if self.mix is None and self._columns is None:
            self._columns = DesignColumns(
                self._space, self.workload, self.logical_bytes_per_cell_iter
            )
        columns = self._columns
        if columns is None or not columns.in_domain:
            return []
        default_memory = self.device.memory_targets[0]
        default_batch = self.workload.batch
        staged = {}
        for key, config in batch.items():
            get = config.get
            boards = get("boards", 1)
            if (
                key in self._cache
                or get("tiled", False) is not False
                or type(boards) is not int
                or boards != 1
            ):
                continue
            row = (
                get("memory", default_memory), get("V"), get("p"),
                get("batch", default_batch),
            )
            if columns.admits(*row):
                staged[key] = (dict(config), row)
        if len(staged) < 2:  # one row is cheaper on the scalar path
            return []
        with self._lock:
            self._staged.update(staged)
        return list(staged)

    def _evaluate_new(
        self, config: Mapping[str, Any], key: ConfigKey
    ) -> tuple[TrialResult, str]:
        """A configuration not in the memo table: ``(result, check)``.

        A staged configuration takes its outcome from the array pass, which
        the first of its batch to arrive here runs for the whole batch;
        any other goes through the scalar model.
        """
        with self._lock:
            outcome = self._passed.pop(key, None)
            batch = None
            if outcome is None and key in self._staged:
                batch, self._staged = self._staged, {}
        if outcome is not None:
            return outcome
        if batch is None:
            return self._evaluate_uncached(dict(config))
        outcomes = self._evaluate_columns(batch)
        outcome = outcomes.pop(key)
        with self._lock:
            self._passed.update(outcomes)
        return outcome

    def _evaluate_columns(
        self, batch: Mapping[ConfigKey, tuple[Config, tuple]]
    ) -> dict[ConfigKey, tuple[TrialResult, str]]:
        """One array pass over staged rows; results equal :meth:`_evaluate_uncached`'s."""
        staged = batch.values()
        out = {}
        for key, (config, _), outcome in zip(
            batch, staged, self._columns.predict(*zip(*(row for _, row in staged)))
        ):
            if isinstance(outcome, InfeasibleDesignError):
                out[key] = _rejected(config, outcome)
                continue
            design, metrics = outcome
            out[key] = self._scored(
                config,
                EvalContext(
                    self.program, self.device, self.workload_for(config),
                    design, metrics, metrics.seconds,
                ),
            )
        return out

    def _evaluate_uncached(self, config: Config) -> tuple[TrialResult, str]:
        """Run one configuration through the model: ``(result, check)``.

        ``check`` names what rejected an infeasible trial (empty when
        feasible). The order — draft design, resource checks, clock
        estimate, bandwidth check, prediction — reports the same first
        failing reason as estimating the clock up front: the estimate
        itself cannot fail, and only eq. (4) reads it.
        """
        if self.mix is not None:
            return self._evaluate_mix(config)
        boards = int(config.get("boards", 1))
        try:
            workload = self.workload_for(config)
            if int(config.get("batch", 1)) > 1 and config.get("tiled", False):
                # the executable surface (FPGAAccelerator.run_batch) has
                # no batched path for tiled designs; a
                # tiled batch>1 *axis* config must not win a front it
                # cannot run. A study-level batched workload (Workload
                # batch, no batch axis) keeps its pre-existing analytic
                # scoring on tiled designs.
                raise InfeasibleDesignError(
                    "batched execution is not supported on tiled designs",
                    check="batch",
                )
            draft = self._draft_design(config)
            self._space.check_resources(draft, workload)
            design, resources = self._space.estimate_clock(draft, workload)
            self._space.check_bandwidth(design)
            metrics, seconds = self._score_workload(
                self.program, workload, design, boards,
                self.logical_bytes_per_cell_iter, resources,
            )
        except (InfeasibleDesignError, ValidationError) as exc:
            return _rejected(config, exc)
        return self._scored(
            config,
            EvalContext(
                self.program, self.device, workload, design, metrics, seconds,
                boards,
            ),
        )

    def _scored(self, config: Config, ctx: EvalContext) -> tuple[TrialResult, str]:
        """A single-workload trial the model accepted, through the study's
        constraints and objectives: ``(result, check)``."""
        memory_bound = ctx.metrics.memory_bound
        for constraint in self.constraints:
            if not constraint.ok(ctx):
                return TrialResult(
                    config,
                    False,
                    ctx.design,
                    reason=f"violates constraint {constraint.name}",
                    memory_bound=memory_bound,
                ), "constraint"
        values = {o.name: o.value(ctx) for o in self.objectives}
        primary = self.objectives[0]
        score = primary.signed(values[primary.name])
        return TrialResult(
            config, True, ctx.design, values, score, "", memory_bound
        ), ""

    def _evaluate_mix(self, config: Config) -> tuple[TrialResult, str]:
        """Score one configuration against every spec of the mix.

        The design must be feasible for **all** specs; each objective then
        aggregates per-spec values over the mix by its declared mode —
        weighted sum for extensive quantities (predicted mix runtime is the
        weighted sum over specs), weighted mean for intensive ones. A
        ``batch`` axis scales every spec's batch count; a ``boards`` axis
        applies the spatial-scaling model per spec, exactly as the
        single-workload path does.
        """
        boards = int(config.get("boards", 1))
        batch_factor = int(config.get("batch", 1))
        contexts: list[tuple[EvalContext, float]] = []
        try:
            if config.get("tiled", False):
                if batch_factor > 1:
                    # mirror the single-workload batch-axis rule: the
                    # executable surface has no batched path for tiled
                    # designs. Spec-level batches (like a study-level
                    # batched workload) keep their analytic tiled scoring.
                    raise InfeasibleDesignError(
                        "batched execution is not supported on tiled designs",
                        check="batch",
                    )
                ranks = {b.spec.mesh.ndim for b in self._entries}
                if len(ranks) > 1:
                    # one DesignPoint carries one tile; a 2D (M,) tile and a
                    # 3D (M, N) tile are different shapes, so no single tiled
                    # design can serve a mixed-rank mix
                    raise InfeasibleDesignError(
                        "tiled designs cannot serve a mixed-rank workload "
                        "mix (2D and 3D members need different tile shapes)",
                        check="tile",
                    )
            # the resource checks do not read the clock, so the estimate
            # waits until the first spec has passed them; every check keeps
            # its place in the order, so the first failing reason is unchanged
            draft = self._draft_design(config)
            design = None
            for binding in self._entries:
                workload = binding.spec.with_batch(
                    binding.spec.batch * batch_factor
                )
                binding.space.check_resources(draft, workload)
                if design is None:
                    design, rep_resources = self._space.estimate_clock(
                        draft, self.workload
                    )
                binding.space.check_bandwidth(design)
                metrics, seconds = self._score_workload(
                    binding.program, workload, design, boards, binding.traffic,
                    rep_resources if binding.space is self._space else None,
                )
                contexts.append(
                    (
                        EvalContext(
                            binding.program, self.device, workload, design,
                            metrics, seconds, boards,
                        ),
                        binding.weight,
                    )
                )
        except (InfeasibleDesignError, ValidationError) as exc:
            return _rejected(config, exc)
        memory_bound = any(ctx.metrics.memory_bound for ctx, _ in contexts)
        for constraint in self.constraints:
            for ctx, _ in contexts:
                if not constraint.ok(ctx):
                    return TrialResult(
                        config,
                        False,
                        design,
                        reason=(
                            f"violates constraint {constraint.name} "
                            f"on {ctx.workload}"
                        ),
                        memory_bound=memory_bound,
                    ), "constraint"
        total_weight = sum(w for _, w in contexts)
        values = {}
        for objective in self.objectives:
            total = sum(w * objective.value(ctx) for ctx, w in contexts)
            values[objective.name] = (
                total / total_weight if objective.aggregate == "mean" else total
            )
        return TrialResult(
            config,
            True,
            design,
            values,
            score=self.primary.signed(values[self.primary.name]),
            memory_bound=memory_bound,
        ), ""


def _rejected(config: Config, exc: Exception) -> tuple[TrialResult, str]:
    """An infeasible trial from the error a check (or the model) raised."""
    check = getattr(exc, "check", "") or "invalid"
    return TrialResult(config, False, None, reason=str(exc)), check
