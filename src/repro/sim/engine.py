"""The discrete-event simulation engine.

The engine owns all runtime state: job progress, placement, scaling
overheads, and the event queue.  Policies are consulted at every scheduling
event — job arrival, job completion, and a periodic re-plan tick of one
planning slot — and return only a GPU count per active job; the engine
translates those counts into buddy-allocated placements, charges executor
overheads to every job whose worker set changed, and advances training
progress exactly between events.
"""

from __future__ import annotations

import bisect
import heapq
import itertools

import numpy as np

from repro.cluster.placement import PlacementManager
from repro.cluster.topology import ClusterSpec
from repro.core.job import Job, JobSpec, JobStatus
from repro.errors import PlacementError, SchedulingError, SimulationError
from repro.numeric import EPS, is_power_of_two
from repro.perf import probe
from repro.perf.coherence import coherent, invalidates, keyed, mutates
from repro.perf.tables import curve_revision, tables_global_revision
from repro.profiles.throughput import Placement, ThroughputModel
from repro.sim.events import Event, EventKind
from repro.sim.executor import ElasticExecutor
from repro.sim.failures import FailureSchedule
from repro.sim.interface import PolicyContext, SchedulerPolicy
from repro.sim.metrics import JobOutcome, SimulationResult
from repro.sim.recorder import Timeline, TimelineSample

__all__ = ["Simulator"]

_COMPLETION_EPS = 1e-3  # iterations of slack when declaring completion


class _ProgressSoA:
    """Stacked progress state of the currently running jobs.

    One row per job that was ``RUNNING`` with a placement when the last
    reallocation committed, in ``_active`` iteration order (insertion ==
    admission order).  Between reallocations that set is fixed, so these
    rows are every job that makes progress.  The arrays mirror exactly
    the fields :meth:`repro.core.job.Job.advance` touches, so one numpy
    expression advances every running job at once; rates are the ones
    ``_reallocate`` already derived for completion projection.

    ``revision`` pins the planning-table global revision the rates were
    computed under: when any curve has been invalidated since,
    :meth:`Simulator._advance_to` re-derives the rates (:meth:`rerate`)
    before advancing.
    """

    __slots__ = (
        "jobs",
        "rates",
        "stall",
        "gpus",
        "max_iters",
        "iters",
        "gsec",
        "revision",
    )

    def __init__(self, jobs: list[Job], rates: list[float], revision: int) -> None:
        self.jobs = jobs
        self.rates = np.asarray(rates, dtype=np.float64)
        self.stall = np.array([job.stall_until for job in jobs], dtype=np.float64)
        self.gpus = np.array([job.n_gpus for job in jobs], dtype=np.float64)
        self.max_iters = np.array(
            [float(job.spec.max_iterations) for job in jobs], dtype=np.float64
        )
        self.iters = np.array([job.iterations_done for job in jobs], dtype=np.float64)
        self.gsec = np.array([job.gpu_seconds for job in jobs], dtype=np.float64)
        self.revision = revision

    def rerate(self, rates: list[float], revision: int) -> None:
        """Replace the rates, now valid under global revision ``revision``."""
        self.rates = np.asarray(rates, dtype=np.float64)
        self.revision = revision

    def advance(self, window: float, now: float) -> None:
        """Vectorized :meth:`Job.advance` over every row, then write back.

        Each elementwise operation replays the scalar method's expression
        in the same order on the same float64 values, so the written-back
        ``iterations_done``/``gpu_seconds`` are bit-identical to calling
        ``Job.advance`` row by row, and a row whose stall accounting goes
        negative raises the same error before any row is written.
        Write-back is eager because event handlers (completion
        guards, checkpointing on reallocation) read the job objects.
        """
        start = now - window
        productive = window - np.maximum(0.0, np.minimum(self.stall, now) - start)
        bad = productive < 0
        if bad.any():
            job = self.jobs[int(np.argmax(bad))]
            raise SchedulingError(
                f"job {job.job_id}: stall accounting produced negative time"
            )
        np.minimum(self.max_iters, self.iters + productive * self.rates, out=self.iters)
        self.gsec += productive * self.gpus
        for job, done, gsec in zip(self.jobs, self.iters.tolist(), self.gsec.tolist()):
            job.iterations_done = done
            job.gpu_seconds = gsec


@coherent(_alloc_version="event_projections", _soa="sim_soa")
@keyed(_rate_memo="curve_revision")
class Simulator:
    """Replays a workload against one scheduler policy.

    Args:
        cluster: Cluster shape (nodes x GPUs per node).
        policy: The scheduler under test; bound to this cluster.
        specs: Jobs to submit, any order; arrivals fire at their
            ``submit_time``.
        throughput: Throughput model shared by the policy and the engine
            (the paper's profiled curves).  A default model is built when
            omitted.
        slot_seconds: Planning-slot width and periodic re-plan interval
            (finite and > 0).
        executor: Overhead model for elastic scaling; defaults to the
            calibrated PyTorch checkpoint/restore model.
        record_timeline: Keep per-event cluster samples (Figs 7 and 10).
        record_efficiency: Compute the per-sample cluster-efficiency sum
            (Eq. 8, one scaling-curve lookup per running job per event).
            Only Fig 10 reads it; sweeps that only need outcomes can turn
            it off and keep the rest of the timeline.  Ignored when
            ``record_timeline`` is off — that path never touches the
            speedup curves at all.
        max_events: Safety valve against pathological policies.
        failures: Optional node-outage schedule to replay (Section 4.4's
            "node failures" extension).  A failing node evicts its jobs;
            the policy sees the reduced ``usable_gpus`` until repair.
        observation_hook: Optional callback ``(job, n_gpus, rate)`` invoked
            whenever a running job's progress is advanced — the Section 5
            during-execution throughput-profiling feed (see
            :class:`repro.profiles.online.OnlineThroughputModel`).  It
            fires once per running job, in admission order, after every
            running job has advanced, with the rate the job advanced at.
            The engine's own curves must not move mid-advance: give the
            engine the ground-truth model and the online model to the
            policy only.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: SchedulerPolicy,
        specs: list[JobSpec],
        *,
        throughput: ThroughputModel | None = None,
        slot_seconds: float = 300.0,
        executor: ElasticExecutor | None = None,
        record_timeline: bool = True,
        record_efficiency: bool = True,
        max_events: int = 2_000_000,
        failures: FailureSchedule | None = None,
        observation_hook=None,
    ) -> None:
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        ids = [spec.job_id for spec in specs]
        if len(ids) != len(set(ids)):
            raise SimulationError("job ids must be unique")
        self.cluster = cluster
        self.policy = policy
        self.throughput = throughput or ThroughputModel()
        self.slot_seconds = slot_seconds
        self.executor = executor or ElasticExecutor()
        self.max_events = max_events
        self.failures = failures or FailureSchedule.none()
        self.observation_hook = observation_hook
        self.context = PolicyContext(
            cluster=cluster, throughput=self.throughput, slot_seconds=slot_seconds
        )
        policy.bind(self.context)

        self.jobs: dict[str, Job] = {}
        # Kept sorted by (submit_time, job_id) — the initial sort fixes the
        # arrival-event sequence numbers (tie-break determinism) and
        # ``submit`` maintains the order with an insort.
        self._specs = sorted(specs, key=lambda s: (s.submit_time, s.job_id))
        self._spec_by_id = {spec.job_id: spec for spec in self._specs}
        self._placement = PlacementManager(cluster)
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._alloc_version = 0
        self._now = 0.0
        self._last_advance = 0.0
        self._events_processed = 0
        self._submitted = 0
        self._admitted = 0
        # Jobs still needing scheduling attention, in admission order
        # (which equals arrival order).  Maintained at every status
        # transition so the per-event loops never scan completed jobs.
        self._active: dict[str, Job] = {}
        # Versioned-event bookkeeping: superseded COMPLETION/REPLAN events
        # are counted and periodically compacted out of the heap so it
        # cannot grow monotonically over a long trace.
        self._live_versioned = 0
        self._stale_versioned = 0
        # Memoized placement-dependent rates: a job's throughput is a pure
        # function of (curve, size, nodes spanned), so re-deriving it for
        # every advance of every running job is wasted work.  The memo is
        # nested by job id so a completed job's entries can be dropped in
        # one pop (see _evict_rates); inner keys carry the curve's
        # invalidation revision (see repro.perf.tables), so an
        # online-profiling correction transparently invalidates the entry.
        self._rate_memo: dict[str, dict[tuple[int, int, int], float]] = {}
        # Stacked progress arrays for the running set, rebuilt by
        # _rebuild_soa at every reallocation; None when no job runs.
        self._soa: _ProgressSoA | None = None
        self.timeline = Timeline() if record_timeline else None
        self._record_efficiency = record_efficiency
        for spec in self._specs:
            self._push(Event(spec.submit_time, EventKind.ARRIVAL, next(self._seq), spec.job_id))
        for window in self.failures.windows:
            if window.node_index >= cluster.n_nodes:
                raise SimulationError(
                    f"failure schedule names node {window.node_index} on a "
                    f"{cluster.n_nodes}-node cluster"
                )
            self._push(
                Event(window.start, EventKind.NODE_FAILURE, next(self._seq),
                      str(window.node_index))
            )
            self._push(
                Event(window.end, EventKind.NODE_REPAIR, next(self._seq),
                      str(window.node_index))
            )

    # ----------------------------------------------------------------- API
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def submit(self, spec: JobSpec) -> None:
        """Register a job while the simulation is (partially) running.

        Supports the interactive serverless front end: jobs may be
        submitted between :meth:`run_until` calls as long as their
        ``submit_time`` has not already passed.  ``self._specs`` stays
        sorted by (submit_time, job_id); note that event tie-breaking for
        equal submit times still follows submission-call order for late
        submissions (their events get later sequence numbers).

        Raises:
            SimulationError: On a duplicate id or a submission in the past.
        """
        if spec.job_id in self._spec_by_id:
            raise SimulationError(f"job id {spec.job_id!r} already submitted")
        if spec.submit_time < self._now:
            raise SimulationError(
                f"cannot submit {spec.job_id!r} at {spec.submit_time} "
                f"(simulation time is already {self._now})"
            )
        self._spec_by_id[spec.job_id] = spec
        bisect.insort(self._specs, spec, key=lambda s: (s.submit_time, s.job_id))
        self._push(
            Event(spec.submit_time, EventKind.ARRIVAL, next(self._seq), spec.job_id)
        )

    def run(self) -> SimulationResult:
        """Process every event and return the collected metrics."""
        self._drain(until=None)
        self._check_no_starvation()
        return self.result()

    def run_until(self, time: float) -> None:
        """Process events up to (and including) ``time``, then stop there.

        Active jobs keep their allocations; the caller may submit more jobs
        and continue with further ``run_until``/``run`` calls.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run to {time}: simulation time is already {self._now}"
            )
        self._drain(until=time)
        self._advance_to(time)

    def result(self) -> SimulationResult:
        """Metrics for everything processed so far."""
        return SimulationResult(
            policy_name=self.policy.name,
            outcomes=[JobOutcome.from_job(job) for job in self.jobs.values()],
            timeline=self.timeline,
            total_gpus=self.cluster.total_gpus,
            events_processed=self._events_processed,
        )

    def _drain(self, *, until: float | None) -> None:
        while self._heap:
            if until is not None and self._heap[0].time > until:
                break
            event = heapq.heappop(self._heap)
            if event.kind is EventKind.COMPLETION or event.kind is EventKind.REPLAN:
                if event.version == self._alloc_version:
                    self._live_versioned -= 1
                else:
                    self._stale_versioned -= 1
            self._events_processed += 1
            if self._events_processed > self.max_events:
                raise SimulationError(
                    f"exceeded {self.max_events} events; the policy is likely "
                    f"starving a job"
                )
            self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Advance time to one event and apply it.

        Split out of :meth:`_drain` so instrumentation (the perf harness's
        per-event latency probe) can wrap exactly one event's work.
        """
        self._advance_to(event.time)
        if event.kind is EventKind.ARRIVAL:
            self._handle_arrival(event)
        elif event.kind is EventKind.COMPLETION:
            self._handle_completion(event)
        elif event.kind is EventKind.NODE_FAILURE:
            self._handle_node_failure(event)
        elif event.kind is EventKind.NODE_REPAIR:
            self._handle_node_repair(event)
        else:
            self._handle_replan(event)

    # -------------------------------------------------------------- events
    def _push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)
        if event.kind is EventKind.COMPLETION or event.kind is EventKind.REPLAN:
            if event.version == self._alloc_version:
                self._live_versioned += 1
            else:  # pragma: no cover - versioned events are pushed fresh
                self._stale_versioned += 1

    @mutates("_alloc_version")
    @invalidates("event_projections")
    def _retire_projections(self) -> None:
        """Supersede every queued COMPLETION/REPLAN projection.

        This is the invalidation point for ``_alloc_version``-dependent
        state: projections carry the version they were computed under, so
        bumping it orphans all of them at once.  The orphans are
        reclassified as stale and compacted out of the heap once they
        dominate it.
        """
        self._alloc_version += 1
        self._stale_versioned += self._live_versioned
        self._live_versioned = 0
        self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop superseded versioned events once they dominate the heap.

        Every reallocation stamps a fresh version and orphans all earlier
        COMPLETION/REPLAN projections; they would otherwise sit in the heap
        until their (possibly far-future) timestamps pop.  Compaction keeps
        the heap proportional to the *live* event population, which keeps
        both push cost and memory flat over arbitrarily long traces.
        """
        if self._stale_versioned < 64 or 2 * self._stale_versioned < len(self._heap):
            return
        version = self._alloc_version
        self._heap = [
            event
            for event in self._heap
            if not (
                (event.kind is EventKind.COMPLETION or event.kind is EventKind.REPLAN)
                and event.version != version
            )
        ]
        heapq.heapify(self._heap)
        self._stale_versioned = 0

    def _handle_arrival(self, event: Event) -> None:
        spec = self._spec_by_id[event.job_id]
        job = Job(spec=spec)
        self.jobs[spec.job_id] = job
        self._submitted += 1
        keep = self.policy.admit(job, self._active_jobs(), self._now)
        if keep:
            job.mark_admitted(self._now)
            self._active[job.job_id] = job
            self._admitted += 1
            self._reallocate()
        else:
            job.mark_dropped(self._now)
            self._record_sample()

    def _handle_completion(self, event: Event) -> None:
        if event.version != self._alloc_version:
            return  # allocation changed since this completion was projected
        job = self.jobs.get(event.job_id)
        if job is None or not job.is_active:
            return
        if job.remaining_iterations > _COMPLETION_EPS:
            raise SimulationError(
                f"completion event fired early for {job.job_id}: "
                f"{job.remaining_iterations} iterations remain"
            )
        job.iterations_done = float(job.spec.max_iterations)
        if self._placement.is_placed(job.job_id):
            self._placement.release(job.job_id)
        job.mark_completed(self._now)
        self._active.pop(job.job_id, None)
        self._evict_rates(job)
        self._reallocate()

    def _handle_node_failure(self, event: Event) -> None:
        node_index = int(event.job_id)
        evicted = self._placement.fail_node(node_index)
        for job_id in evicted:
            job = self.jobs.get(job_id)
            if job is None or not job.is_active:
                continue
            # Unplanned failure: progress since the last checkpoint is lost
            # (planned scaling events checkpoint first; crashes do not).
            job.iterations_done = min(
                job.iterations_done, job.checkpointed_iterations
            )
            job.n_gpus = 0
            job.status = JobStatus.ADMITTED
            job.scale_events += 1
        self.context.usable_gpus -= self.cluster.gpus_per_node
        self._reallocate()

    def _handle_node_repair(self, event: Event) -> None:
        node_index = int(event.job_id)
        self._placement.repair_node(node_index)
        self.context.usable_gpus += self.cluster.gpus_per_node
        if self._active_jobs():
            self._reallocate()

    def _handle_replan(self, event: Event) -> None:
        if event.version != self._alloc_version:
            return  # superseded by a more recent reallocation
        if self._active_jobs():
            self._reallocate()

    # ------------------------------------------------------------ progress
    def _advance_to(self, time: float) -> None:
        if time < self._now - EPS:
            raise SimulationError(
                f"time went backwards: {time} < {self._now}"
            )
        window = time - self._last_advance
        soa = self._soa
        if window > 0 and soa is not None:
            revision = tables_global_revision()
            if soa.revision != revision:
                soa.rerate([self._throughput_of(job) for job in soa.jobs], revision)
            soa.advance(window, time)
            probe.bump("sim_vector_advances")
            probe.bump("sim_vector_rows", len(soa.jobs))
            hook = self.observation_hook
            if hook is not None:
                for job, rate in zip(soa.jobs, soa.rates.tolist()):
                    hook(job, job.n_gpus, rate)
        self._now = max(self._now, time)
        self._last_advance = max(self._last_advance, time)

    def _throughput_of(self, job: Job) -> float:
        """Iterations/sec of a running job under its actual placement."""
        curve = self.context.curve_for(job)
        # Buddy blocks are contiguous aligned index ranges, so the span of
        # the first `size` GPUs is pure arithmetic — no index-set walk.
        block = self._placement.block_of(job.job_id)
        per_job = self._rate_memo.get(job.job_id)
        if per_job is None:
            per_job = self._rate_memo[job.job_id] = {}
        key = (job.n_gpus, block.offset, curve_revision(curve))
        rate = per_job.get(key)
        if rate is None:
            rate = self._compute_rate(curve, job.n_gpus, block.offset)
            per_job[key] = rate
        return rate

    def _evict_rates(self, job: Job) -> None:
        """Drop a completed job's rate-memo entries.

        Without eviction the memo grows one entry set per job ever run —
        a leak on long traces.  Every inner key embeds the curve revision
        the rate was computed under, so dropping a job's entries can never
        resurrect a stale value; the revision derivation below documents
        that any-revision entries for this job are dead once it completes.
        """
        curve_revision(self.context.curve_for(job))
        self._rate_memo.pop(job.job_id, None)

    def _compute_rate(self, curve, n_gpus: int, offset: int) -> float:
        size = curve.best_size(n_gpus)
        if size == 0:
            return 0.0
        per_node = self.cluster.gpus_per_node
        span = (offset + size - 1) // per_node - offset // per_node + 1
        return curve.throughput(size, Placement(size, span))

    def _speedup_of(self, job: Job) -> float:
        """Speedup over one GPU — the job's Eq. 8 contribution."""
        curve = self.context.curve_for(job)
        one = curve.throughput(1)
        return self._throughput_of(job) / one if one > 0 else 0.0

    # ---------------------------------------------------------- allocation
    def _active_jobs(self) -> list[Job]:
        return list(self._active.values())

    def _reallocate(self) -> None:
        now = self._now
        active = self._active_jobs()
        if not active:
            self._rebuild_soa([], [])
            self._record_sample()
            return
        decisions = self.policy.allocate(active, now)
        mark = probe.tick()
        self._validate_decisions(decisions, active)
        # Every projection pushed before this point is now superseded.
        self._retire_projections()
        version = self._alloc_version

        active_by_id = {job.job_id: job for job in active}
        changed: set[str] = set()

        def charge(job: Job, old: int, new: int) -> None:
            model = self.throughput.curve(
                job.spec.model_name, job.spec.global_batch_size
            ).model
            overhead = self.executor.scaling_overhead(model, old, new)
            if overhead > 0:
                job.stall_until = max(job.stall_until, now) + overhead
            job.scale_events += 1
            # Every planned scaling event checkpoints before the move
            # (Section 5), so a later crash loses at most the progress
            # made since this instant.
            job.checkpointed_iterations = job.iterations_done

        # Releases and shrinks first so capacity is free for the growers.
        ordered = sorted(
            active, key=lambda j: decisions.get(j.job_id, 0) - j.n_gpus
        )
        for job in ordered:
            target = decisions.get(job.job_id, 0)
            current = job.n_gpus
            if target == current:
                continue
            migrated: list[str] = []
            try:
                if target == 0:
                    self._placement.release(job.job_id)
                    job.status = JobStatus.ADMITTED
                elif current == 0:
                    _, migrated = self._placement.place(job.job_id, target)
                    job.status = JobStatus.RUNNING
                else:
                    _, migrated = self._placement.resize(job.job_id, target)
            except PlacementError:
                # Failed nodes can fragment the space so badly that even
                # migration cannot carve the block; the job keeps (or stays
                # at) its current allocation until the next event.
                probe.bump("placement_failures")
                continue
            charge(job, current, target)
            job.n_gpus = target
            changed.add(job.job_id)
            for victim_id in migrated:
                victim = active_by_id.get(victim_id)
                if victim is not None and victim_id not in changed:
                    model = self.throughput.curve(
                        victim.spec.model_name, victim.spec.global_batch_size
                    ).model
                    overhead = self.executor.migration_overhead(
                        model, victim.n_gpus
                    )
                    if overhead > 0:
                        victim.stall_until = max(victim.stall_until, now) + overhead
                    victim.scale_events += 1
                    changed.add(victim_id)

        # Project completions under the new allocation, gathering the
        # running rows (with the rates just derived) for the vector
        # advance frame in the same pass.
        soa_jobs: list[Job] = []
        soa_rates: list[float] = []
        for job in active:
            if job.n_gpus <= 0:
                continue
            throughput = self._throughput_of(job)
            if job.status is JobStatus.RUNNING:
                soa_jobs.append(job)
                soa_rates.append(throughput)
            if throughput <= 0:
                continue
            finish = max(now, job.stall_until) + (
                job.remaining_iterations / throughput
            )
            self._push(
                Event(finish, EventKind.COMPLETION, next(self._seq), job.job_id, version)
            )
        self._rebuild_soa(soa_jobs, soa_rates)
        self._push(
            Event(now + self.slot_seconds, EventKind.REPLAN, next(self._seq), "", version)
        )
        self._record_sample()
        # Everything after the policy call — validation, placement moves,
        # overhead charging, completion projection — is the engine's own
        # bookkeeping share of the event.
        probe.lap("engine", mark)

    @mutates("_soa")
    @invalidates("sim_soa")
    def _rebuild_soa(self, jobs: list[Job], rates: list[float]) -> None:
        """Replace (or clear) the stacked progress frame.

        This is the single mutation point for ``_soa``: reallocation calls
        it with the fresh running set, and with no rows when nothing runs.
        """
        if not jobs:
            self._soa = None
            return
        self._soa = _ProgressSoA(jobs, rates, tables_global_revision())

    def _validate_decisions(
        self, decisions: dict[str, int], active: list[Job]
    ) -> None:
        active_ids = {job.job_id for job in active}
        total = 0
        for job_id, count in decisions.items():
            if job_id not in active_ids:
                raise SchedulingError(
                    f"policy {self.policy.name!r} allocated to inactive job "
                    f"{job_id!r}"
                )
            if count < 0:
                raise SchedulingError(
                    f"policy {self.policy.name!r} allocated {count} GPUs"
                )
            if count and not is_power_of_two(count):
                # Buddy placement only ever hosts power-of-two blocks; an
                # odd count indicates a policy bug, not a soft preference.
                raise SchedulingError(
                    f"policy {self.policy.name!r} allocated a non-power-of-two "
                    f"count {count} to {job_id!r}"
                )
            total += count
        if total > self.context.usable_gpus:
            raise SchedulingError(
                f"policy {self.policy.name!r} allocated {total} GPUs with "
                f"{self.context.usable_gpus} usable"
            )

    # ------------------------------------------------------------- samples
    def _record_sample(self) -> None:
        if self.timeline is None:
            return  # no timeline: no sample, and no speedup lookups at all
        running = [
            job
            for job in self._active.values()
            if job.status is JobStatus.RUNNING and job.n_gpus > 0
        ]
        efficiency = (
            sum(self._speedup_of(job) for job in running)
            if self._record_efficiency
            else 0.0
        )
        self.timeline.record(
            TimelineSample(
                time=self._now,
                gpus_in_use=sum(job.n_gpus for job in running),
                cluster_efficiency=efficiency / self.cluster.total_gpus,
                running_jobs=len(running),
                submitted=self._submitted,
                admitted=self._admitted,
                allocations={job.job_id: job.n_gpus for job in running},
            )
        )

    def _check_no_starvation(self) -> None:
        stuck = [job.job_id for job in self.jobs.values() if job.is_active]
        if stuck:
            raise SimulationError(
                f"simulation ended with active jobs still unfinished: {stuck}"
            )
