"""Workload-mix scheduling: execute a whole mix end-to-end.

The :class:`MixScheduler` is the host-side orchestrator the paper's batched
mode (Section IV-B) implies but never names: given a
:class:`~repro.workload.WorkloadMix` — many meshes of differing shapes and
iteration counts in flight at once — it

1. **groups** members by identical job shape
   (:meth:`~repro.workload.WorkloadMix.job_groups`: same app, mesh, dtype
   and ``niter``), so every group rides one compiled plan;
2. **executes** each group through the compiled engine in chunked stacked
   mode (:func:`repro.stencil.compiled.run_program_stacked`): meshes stack
   batch-major in footprint-bounded chunks, paying one tape dispatch per
   chunk instead of one per mesh; on the native engine every artifact the
   groups bind starts building before the first group runs, side by side,
   so a cold run waits for its slowest build rather than the sum (the
   paper's design is synthesized once, before the accelerator streams);
3. **accounts** for the dispatches actually issued, so callers (harness
   experiments, benchmarks, DSE validation) can compare scheduling
   policies structurally rather than by wall clock alone.

The scheduler runs *exact* iteration counts: it orchestrates at the engine
level, where the unroll factor ``p`` is a cycle-accounting concern rather
than a functional constraint (the accelerator's cycle reports already
charge ``ceil(niter / p)`` passes). Results are bit-identical per mesh to
the golden interpreter; ``validate=True`` re-derives every mesh on the
interpreter and raises on any mismatch.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import KW_ONLY, dataclass
from typing import Callable, ContextManager, Mapping

import numpy as np

from repro import observability as obs
from repro.mesh.mesh import Field, MeshSpec
from repro.observability.metrics import percentiles
from repro.resilience import CancelToken, ExecutionCancelled
from repro.stencil.compiled import (
    CompiledPlanCache,
    check_engine,
    native_builds_ahead,
    run_program_stacked,
)
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.workload import MixLike, WorkloadMix, WorkloadSpec, as_mix

#: makes the initial conditions of one group member: ``(spec, index) -> env``
FieldsFor = Callable[[WorkloadSpec, int], Mapping[str, Field]]
#: resolves the program a spec runs: ``spec -> StencilProgram``
ProgramFor = Callable[[WorkloadSpec], StencilProgram]


@dataclass(frozen=True)
class GroupRun:
    """Execution record of one job group of a mix."""

    #: the merged execution spec (batch = total meshes of the group)
    spec: WorkloadSpec
    #: per-mesh final field environments, in member order
    results: tuple[dict[str, Field], ...]
    #: tape dispatches issued for the group
    dispatches: int
    #: stacked chunk sizes the dispatches used (``[1]*B`` on per-mesh paths)
    chunks: tuple[int, ...]
    #: per-dispatch wall-clock seconds, in chunk order (empty when the
    #: executing engine reported no timing)
    chunk_seconds: tuple[float, ...] = ()

    @property
    def meshes(self) -> int:
        """Meshes solved in this group."""
        return len(self.results)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of this group's per-dispatch wall times (seconds).

        Exact percentiles over the recorded :attr:`chunk_seconds` samples;
        all-NaN when the engine reported no timing.
        """
        return percentiles(self.chunk_seconds)


@dataclass(frozen=True)
class GroupError:
    """Failure record of one job group under best-effort scheduling.

    Produced by ``strict=False`` runs in place of the group's
    :class:`GroupRun`: the group's merged spec and the error that ended
    it.
    """

    spec: WorkloadSpec
    #: repr of the exception that ended the group
    error: str

    def describe(self) -> str:
        """One line for tables and logs: spec and error."""
        return f"{self.spec.describe()}: {self.error}"


@dataclass(frozen=True)
class MixRunResult:
    """Outcome of scheduling one mix."""

    groups: tuple[GroupRun, ...]
    #: True when every mesh was re-derived on the golden interpreter
    validated: bool = False
    #: failed groups isolated by a best-effort (``strict=False``) run;
    #: always empty under strict scheduling, where the first failure raises
    errors: tuple[GroupError, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every group of the mix completed."""
        return not self.errors

    @property
    def meshes(self) -> int:
        """Total meshes solved across the mix."""
        return sum(g.meshes for g in self.groups)

    @property
    def dispatches(self) -> int:
        """Total tape dispatches issued across the mix."""
        return sum(g.dispatches for g in self.groups)

    def group_for(self, spec: WorkloadSpec) -> GroupRun:
        """The group run a spec's members landed in."""
        for group in self.groups:
            if group.spec.job_key == spec.job_key:
                return group
        raise ValidationError(f"no group in this run matches {spec}")

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-group p50/p95/p99 dispatch latency, keyed by group describe."""
        return {
            group.spec.describe(): group.latency_percentiles()
            for group in self.groups
        }


@dataclass
class MixScheduler:
    """Runs workload mixes through the (chunked) stacked compiled engine.

    ``fields_for`` and ``program_for`` default to resolution through the
    application registry for specs carrying app names; app-less specs need
    a ``program_for`` (their initial conditions are then synthesized
    reproducibly from the program's field contract unless ``fields_for``
    supplies them). Chunks are sized by
    :data:`repro.stencil.compiled.STACKED_BYTES_LIMIT`;
    ``engine="interpreter"`` runs every mesh on the golden path instead
    (per-mesh dispatch, for reference measurements); ``engine="parallel"``
    submits *every group's* chunks to a worker pool before collecting any
    of them, so independent job groups — not just chunks within one group
    — overlap on the pool
    (``max_workers`` bounds its width). Group order, per-mesh result order
    and dispatch accounting are identical on every engine: chunks are
    scheduled deterministically at submit time and reassembled by
    position, whatever order workers finish in.

    ``strict`` picks the failure semantics: strict runs (the default)
    raise on the first failing group; ``strict=False`` **isolates** a
    failing group — its :class:`GroupError` (spec and error) lands on
    ``MixRunResult.errors`` while every other group still completes, the
    right contract for a live job population where one bad workload must
    not abort its neighbours. The scheduler never retries: a failing
    parallel chunk raises :class:`~repro.parallel.ParallelExecutionError`
    on its first attempt, and recovery (a serial rerun) is the serving
    layer's circuit breaker's job.
    """

    engine: str = "compiled"
    plan_cache: CompiledPlanCache | None = None
    fields_for: FieldsFor | None = None
    program_for: ProgramFor | None = None
    #: base seed mixed into default initial conditions per member
    seed: int = 0
    _: KW_ONLY
    #: worker-pool width for ``engine="parallel"`` (None: one per core)
    max_workers: int | None = None
    #: raise on the first failing group (True) or isolate it (False)
    strict: bool = True

    def __post_init__(self):
        check_engine(self.engine)

    # -- members ------------------------------------------------------------------
    def _program(self, spec: WorkloadSpec) -> StencilProgram:
        if self.program_for is not None:
            return self.program_for(spec)
        return spec.program()

    def _fields(
        self, spec: WorkloadSpec, index: int, program: StencilProgram
    ) -> Mapping[str, Field]:
        if self.fields_for is not None:
            return self.fields_for(spec, index)
        if spec.app is not None:
            return spec.fields(seed=self.seed + index)
        return self._synthesized_fields(program, spec, index)

    def _synthesized_fields(
        self, program: StencilProgram, spec: WorkloadSpec, index: int
    ) -> Mapping[str, Field]:
        """Reproducible random initial conditions from the program contract.

        App-less specs have no registered field maker; for execution and
        bit-identity validation any values serve, so synthesize them from
        what the program declares — state fields on the mesh spec itself,
        constant fields scalar (the program's external-contract convention).
        """
        state = set(program.state_fields)
        env: dict[str, Field] = {}
        for offset, name in enumerate(program.required_inputs):
            fspec = (
                spec.mesh
                if name in state
                else MeshSpec(spec.mesh.shape, 1, spec.mesh.dtype)
            )
            env[name] = Field.random(
                name, fspec, seed=(self.seed + index) * 1009 + offset
            )
        return env

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        mix: MixLike,
        validate: bool = False,
        cancel: CancelToken | None = None,
    ) -> MixRunResult:
        """Execute every member of the mix; returns per-group results.

        Members are grouped by job shape and each group executes in
        chunked stacked mode (one compiled tape dispatch per chunk). With
        ``validate=True`` every mesh is additionally solved on the golden
        interpreter and compared bitwise — any divergence raises.

        ``cancel`` threads a :class:`~repro.resilience.CancelToken` through
        every engine: a set token abandons the run at the next chunk
        boundary and raises :class:`~repro.resilience.ExecutionCancelled`
        (never isolated by ``strict=False`` — cancellation is a caller
        decision, not a group failure).
        """
        mix = as_mix(mix)
        specs = list(mix.job_groups().values())
        with obs.span("mix.run", groups=len(specs), engine=self.engine):
            if self.engine == "parallel":
                return self._run_parallel(specs, validate, cancel)
            # only the native engine resolves every group before the first
            # runs: its builds start from them (:meth:`_builds_ahead`)
            ahead = self.engine == "native"
            firsts = [self._first(spec) if ahead else None for spec in specs]
            groups: list[GroupRun] = []
            errors: list[GroupError] = []
            with self._builds_ahead(specs, firsts) if ahead else nullcontext():
                for spec, first in zip(specs, firsts):
                    try:
                        groups.append(self._run_group(spec, first, validate, cancel))
                    except ExecutionCancelled:
                        raise
                    except Exception as exc:  # noqa: BLE001 - isolated below
                        if self.strict:
                            raise
                        errors.append(self._group_error(spec, exc))
            return MixRunResult(
                tuple(groups), validated=validate, errors=tuple(errors)
            )

    def _first(
        self, spec: WorkloadSpec
    ) -> tuple[StencilProgram, Mapping[str, Field]] | Exception:
        """The group's program and its first member's fields, or what
        resolving them raised — raised again in the group's turn."""
        try:
            program = self._program(spec)
            return program, self._fields(spec, 0, program)
        except Exception as exc:  # noqa: BLE001 - raised in the group's turn
            return exc

    def _builds_ahead(self, specs: list[WorkloadSpec], firsts: list) -> ContextManager:
        """Every artifact the groups bind builds from the outset, side by
        side (:func:`~repro.stencil.compiled.native_builds_ahead`)."""
        return native_builds_ahead(
            [
                (*first, spec.batch, spec.niter)
                for spec, first in zip(specs, firsts)
                if isinstance(first, tuple)
            ],
            self.plan_cache,
        )

    def _run_group(
        self,
        spec: WorkloadSpec,
        first: tuple[StencilProgram, Mapping[str, Field]] | Exception | None,
        validate: bool,
        cancel: CancelToken | None = None,
    ) -> GroupRun:
        first = first or self._first(spec)
        if isinstance(first, Exception):
            raise first
        program, env = first
        envs = [env] + [self._fields(spec, i, program) for i in range(1, spec.batch)]
        stats: dict = {}
        with obs.span(
            "mix.group",
            spec=spec.describe(),
            batch=spec.batch,
            engine=self.engine,
        ):
            results = run_program_stacked(
                program,
                envs,
                spec.niter,
                cache=self.plan_cache,
                stats=stats,
                cancel=cancel,
                engine=self.engine,
            )
        if validate and self.engine != "interpreter":
            self._validate_group(spec, program, envs, results)
        return self._group_run(spec, results, stats)

    def _run_parallel(
        self,
        specs: list[WorkloadSpec],
        validate: bool,
        cancel: CancelToken | None = None,
    ) -> MixRunResult:
        """Fan every group's chunks out before collecting any group.

        Submission order is the mix's group order; collection blocks on
        groups in that same order, so results, accounting and error
        precedence are deterministic while the pool interleaves chunks of
        all groups freely. A failing chunk surfaces as
        :class:`~repro.parallel.ParallelExecutionError` carrying the
        originating workload spec; still-pending sibling groups are
        drained before it propagates.
        """
        from repro.parallel.executor import ParallelExecutionError, submit_stacked

        pending: list[tuple[WorkloadSpec, StencilProgram, list, dict, object]] = []
        errors: list[GroupError] = []
        try:
            for spec in specs:
                try:
                    program = self._program(spec)
                    envs = [
                        self._fields(spec, i, program) for i in range(spec.batch)
                    ]
                    stats: dict = {}
                    batch = submit_stacked(
                        program,
                        envs,
                        spec.niter,
                        cache=self.plan_cache,
                        stats=stats,
                        max_workers=self.max_workers,
                        cancel=cancel,
                    )
                except ExecutionCancelled:
                    raise
                except Exception as exc:  # noqa: BLE001 - isolated below
                    if self.strict:
                        raise
                    errors.append(self._group_error(spec, exc))
                    continue
                pending.append((spec, program, envs, stats, batch))
            groups = []
            for spec, program, envs, stats, batch in pending:
                try:
                    with obs.span(
                        "mix.group",
                        spec=spec.describe(),
                        batch=spec.batch,
                        engine=self.engine,
                    ):
                        try:
                            results = batch.result()
                        except ParallelExecutionError as exc:
                            raise ParallelExecutionError(
                                f"workload {spec.describe()}: {exc}",
                                backend=exc.backend,
                                elapsed=exc.elapsed,
                            ) from exc
                    if validate:
                        self._validate_group(spec, program, envs, results)
                except ExecutionCancelled:
                    raise
                except Exception as exc:  # noqa: BLE001 - isolated below
                    if self.strict:
                        raise
                    errors.append(self._group_error(spec, exc))
                    continue
                groups.append(self._group_run(spec, results, stats))
            return MixRunResult(
                tuple(groups), validated=validate, errors=tuple(errors)
            )
        finally:
            for *_rest, batch in pending:
                batch.close()  # no-op on collected groups

    def _group_error(self, spec: WorkloadSpec, exc: Exception) -> GroupError:
        """Record — and make observable — one isolated group failure."""
        record = GroupError(spec, error=repr(exc))
        obs.inc("mix.group_failures", engine=self.engine)
        obs.emit("mix.group_failure", spec=spec.describe(), error=record.error)
        return record

    def _validate_group(self, spec, program, envs, results) -> None:
        for index, (env, result) in enumerate(zip(envs, results)):
            golden = self._golden(program, env, spec.niter)
            for name, field in golden.items():
                if not np.array_equal(field.data, result[name].data):
                    raise ValidationError(
                        f"mix group {spec} member {index}: field "
                        f"'{name}' diverges from the golden interpreter"
                    )

    @staticmethod
    def _group_run(spec, results, stats: dict) -> GroupRun:
        # every engine reports its own accounting; a partially-filled dict
        # is taken at face value — chunks are never fabricated
        chunks = tuple(stats.get("chunks", ()))
        return GroupRun(
            spec,
            tuple(results),
            dispatches=int(stats.get("dispatches", len(chunks))),
            chunks=chunks,
            chunk_seconds=tuple(stats.get("chunk_seconds", ())),
        )

    def _golden(self, program: StencilProgram, env, niter: int):
        from repro.stencil.numpy_eval import run_program

        return run_program(program, env, niter, engine="interpreter")
