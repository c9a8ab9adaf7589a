//! The merge layer: deterministic replay of the decision loop's
//! epoch records against per-chip slice logs, split in two folds.
//!
//! * The **book fold** ([`BookFold`]) runs on the decision thread. It
//!   keeps only what placement reads — the [`TelemetryBook`] and the
//!   job → workload map of resident jobs — and folds each epoch's
//!   per-core counter deltas into the book before the epoch moves on.
//! * The **sink fold** ([`Merge`]) runs on a thread of its own and
//!   reconstructs every artifact — metrics, trace records, monitor
//!   feed, profiler attribution, audit ring, obs snapshots and the
//!   completed jobs — in exactly the order the historical
//!   single-threaded loop produced them. It receives each epoch's
//!   `(EpochRec, Vec<SliceLog>)` pair, moved through a bounded channel
//!   after the book fold has read it.
//!
//! Both folds walk the same records in the same order: epoch records
//! in epoch order, and within an epoch busy chips in chip-index
//! order. Which shard executed a slice, in what real-time order, with
//! how much work-stealing, how far the sink lags the decision loop —
//! none of it is visible here, which is what makes every artifact
//! byte-identical across kernels and shard counts (enforced by
//! `tests/shard_equivalence.rs`). The single documented exception is
//! the live shard-runtime section
//! ([`ObsSnapshot::shards`](vsmooth_obs::ObsSnapshot)): per-shard
//! counters read from the [`RuntimeStats`] scoreboard at publish time,
//! whose steal split, queue high-water marks, sink lag and wall-clock
//! latencies are execution-dependent by design — only the total slice
//! count reconciles deterministically (`tests/shard_stress.rs`).
//!
//! Slice-span trace records are built by the sink fold too, from the
//! epoch record (which jobs were resident) rather than by the shards,
//! at exactly the point the historical loop emitted them.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crate::audit::{AuditConfig, AuditLog};
use crate::control::{BusyChip, EpochRec, SliceLog};
use crate::introspect::RuntimeStats;
use crate::job::CompletedJob;
use crate::shard::ChipCell;
use crate::telemetry::TelemetryBook;
use crate::ServeError;
use vsmooth_chip::{DroopWindow, PHASE_MARGIN_PCT};
use vsmooth_monitor::{EpochSample, HealthReport, Monitor, SliceRecord};
use vsmooth_obs::{ObsConfig, ObsSnapshot, ServiceStatus};
use vsmooth_profile::{emit_window_span, Profiler};
use vsmooth_stats::MetricsRegistry;
use vsmooth_trace::{chip_pid, ArgValue, DroopEvent, TraceBuffer, Tracer, PID_JOBS, PID_MONITOR};

/// Virtual thread id hosting `droop_window` spans on a chip timeline
/// (cores are threads 0 and 1).
pub(crate) const PROFILE_TID: u64 = 2;

/// One executed slice of one chip, remembered so droop windows that
/// seal later (their tail crosses a slice boundary, or the run ends)
/// can still be labeled with the jobs that were resident at the
/// trigger and mapped back onto the virtual clock.
#[derive(Debug)]
struct SliceSeg {
    /// Session clock at the start of the slice.
    session_start: u64,
    /// Virtual clock at the start of the slice.
    virtual_start: u64,
    /// Workloads resident during the slice, joined with `+`.
    label: String,
}

/// What the merge layer knows about a job currently on a core.
#[derive(Debug)]
struct RunMeta {
    spec: crate::job::JobSpec,
    started_cycle: u64,
    executed_cycles: u64,
    instructions: f64,
    attributed_droops: u64,
}

/// The decision thread's half of the merge: the telemetry book and
/// the workload of every placed, unfinished job.
#[derive(Debug, Default)]
pub(crate) struct BookFold {
    book: TelemetryBook,
    workloads: HashMap<u64, String>,
}

impl BookFold {
    /// The book placement scores candidates against; current through
    /// every epoch folded so far.
    pub(crate) fn book(&self) -> &TelemetryBook {
        &self.book
    }

    /// Folds one epoch's per-core counter deltas into the book, in
    /// `(chip, core)` order — the order the historical loop observed
    /// them in, so every EWMA lands bit for bit.
    pub(crate) fn fold(&mut self, rec: &EpochRec, logs: &[SliceLog]) {
        for p in &rec.places {
            self.workloads.insert(p.spec.id, p.spec.workload.clone());
        }
        for (b, log) in rec.busy.iter().zip(logs) {
            let dpk = log.stats.droops_per_kilocycle();
            for (cs, delta) in b.cores.iter().zip(&log.stats.core_deltas) {
                let Some(cs) = cs else { continue };
                let workload = &self.workloads[&cs.job];
                self.book.observe(workload, delta, dpk);
                if cs.finishes {
                    self.workloads.remove(&cs.job);
                }
            }
        }
    }
}

/// The decision loop's totals at the end of a run, handed to
/// [`Merge::finalize`].
#[derive(Debug)]
pub(crate) struct RunEnd {
    /// Epochs decided and granted.
    pub epochs: u64,
    /// The virtual clock when the last epoch ended.
    pub now: u64,
    /// Occupied core-quanta granted over the run.
    pub busy_core_quanta: u64,
    /// [`TelemetryBook::warmed`] of the final book.
    pub warmed_profiles: usize,
}

/// The sink fold: the replay engine plus all artifact-side run state.
pub(crate) struct Merge<'a> {
    metrics: &'a MetricsRegistry,
    tracer: &'a Tracer,
    profiler: Option<&'a mut Profiler>,
    monitor: Option<&'a mut Monitor>,
    obs: Option<&'a ObsConfig>,
    publish_every: u64,
    recent_cap: usize,
    /// The /trace/recent ring: an independent sink-side copy of
    /// recent crossings (the tracer's own ring stays exporter-owned).
    /// Events are shared, so a publish copies pointers, not events.
    recent: Option<VecDeque<Arc<DroopEvent>>>,
    /// The live introspection scoreboard, read (never written) at
    /// publish boundaries for the snapshot's `shards` section.
    stats: Arc<RuntimeStats>,
    /// The decision audit ring, when [`AuditConfig`] armed it. Folded
    /// here at replay time, so its contents are deterministic.
    audit: Option<AuditLog>,
    slice_cycles: u64,
    jobs_submitted: usize,
    running: BTreeMap<u64, RunMeta>,
    completed: Vec<CompletedJob>,
    segs: Vec<Vec<SliceSeg>>,
    admitted: u64,
    droops: u64,
    /// Slice counters batched between observation points: the registry
    /// is only readable at obs publishes and at finalize, so per-slice
    /// `counter_add` calls (a series lookup each) can be accumulated
    /// locally and flushed right before each of those points without
    /// changing a single observable byte.
    pending_slices: u64,
    pending_cycles: u64,
    epochs_merged: u64,
    last_profile: Option<Arc<String>>,
    invariant_violations: usize,
}

impl<'a> Merge<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        metrics: &'a MetricsRegistry,
        tracer: &'a Tracer,
        profiler: Option<&'a mut Profiler>,
        monitor: Option<&'a mut Monitor>,
        obs: Option<&'a ObsConfig>,
        stats: Arc<RuntimeStats>,
        audit: Option<&AuditConfig>,
        chips: usize,
        slice_cycles: u64,
        jobs_submitted: usize,
    ) -> Self {
        let publish_every = obs.map_or(1, |o| o.publish_every.max(1));
        let recent_cap = obs.map_or(0, |o| o.recent_droops.max(1));
        let recent = obs.map(|_| VecDeque::with_capacity(recent_cap.min(1_024)));
        Self {
            metrics,
            tracer,
            profiler,
            monitor,
            obs,
            publish_every,
            recent_cap,
            recent,
            stats,
            audit: audit.map(|a| AuditLog::new(a.capacity)),
            slice_cycles,
            jobs_submitted,
            running: BTreeMap::new(),
            completed: Vec::new(),
            segs: (0..chips).map(|_| Vec::new()).collect(),
            admitted: 0,
            droops: 0,
            pending_slices: 0,
            pending_cycles: 0,
            epochs_merged: 0,
            last_profile: None,
            invariant_violations: 0,
        }
    }

    /// Builds one busy chip's slice spans: one `slice` span per
    /// resident core, in core order, named after the workload.
    fn synth_slice_spans(&self, b: &BusyChip, now: u64, cycles: u64) -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        for (core, cs) in b.cores.iter().enumerate() {
            let Some(cs) = cs else { continue };
            buf.span(
                self.running[&cs.job].spec.workload.as_str(),
                "slice",
                chip_pid(b.chip),
                core as u64,
                now,
                cycles,
                vec![("job", ArgValue::from(cs.job))],
            );
        }
        buf
    }

    /// Replays one epoch record with its busy chips' logs (in
    /// `rec.busy` order). Returns the typed overflow error when the
    /// record ends in an admission overflow, after replaying the
    /// admissions that preceded it — leaving metrics and trace state
    /// exactly as the historical in-line loop left them.
    pub(crate) fn replay(&mut self, rec: &EpochRec, logs: &[SliceLog]) -> Result<(), ServeError> {
        let now = rec.now;
        if !rec.decisions.is_empty() {
            if let Some(log) = self.audit.as_mut() {
                self.metrics
                    .counter_add("serve_audit_events_total", rec.decisions.len() as u64);
                for d in &rec.decisions {
                    if self.tracer.is_enabled() {
                        let mut args = vec![("reason", ArgValue::from(d.reason))];
                        if let Some(chip) = d.chip {
                            args.push(("chip", ArgValue::from(chip)));
                        }
                        if let Some(job) = d.job {
                            args.push(("job", ArgValue::from(job)));
                        }
                        self.tracer.instant(
                            d.kind.label(),
                            "decision",
                            PID_JOBS,
                            d.job.unwrap_or(0),
                            d.cycle,
                            args,
                        );
                    }
                    log.push(d.clone());
                }
            }
        }
        for job in &rec.admits {
            self.metrics.counter_add("serve_jobs_admitted_total", 1);
            self.admitted += 1;
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    "admit",
                    "job",
                    PID_JOBS,
                    job.id,
                    job.arrival_cycle,
                    vec![("workload", ArgValue::from(job.workload.as_str()))],
                );
            }
        }
        if let Some((capacity, job)) = rec.overflow {
            return Err(ServeError::QueueOverflow { capacity, job });
        }
        for p in &rec.places {
            if self.tracer.is_enabled() {
                self.tracer.complete(
                    "queue",
                    "job",
                    PID_JOBS,
                    p.spec.id,
                    p.spec.arrival_cycle,
                    now - p.spec.arrival_cycle,
                    vec![
                        ("workload", ArgValue::from(p.spec.workload.as_str())),
                        ("chip", ArgValue::from(p.chip)),
                        ("core", ArgValue::from(p.core)),
                    ],
                );
            }
            self.running.insert(
                p.spec.id,
                RunMeta {
                    spec: p.spec.clone(),
                    started_cycle: now,
                    executed_cycles: 0,
                    instructions: 0.0,
                    attributed_droops: 0,
                },
            );
        }
        let mut epoch_cycles = 0u64;
        let mut epoch_droops = 0u64;
        let mut epoch_min_margin = PHASE_MARGIN_PCT;
        let mut epoch_margin_weight = 0.0f64;
        for (b, log) in rec.busy.iter().zip(logs) {
            let slice = &log.stats;
            for (core, cs) in b.cores.iter().enumerate() {
                // The decision loop predicted this slice's completions
                // analytically; the executor saw them for real. Any
                // disagreement means the analytic model is wrong.
                let predicted = cs
                    .as_ref()
                    .and_then(|c| if c.finishes { Some(c.job) } else { None });
                debug_assert_eq!(
                    log.finished[core], predicted,
                    "analytic completion disagrees with the executor"
                );
            }
            // Slice counters land here, not at execution time: shards
            // run ahead of the merge, and obs snapshots taken at
            // publish boundaries must count exactly the slices merged
            // so far to stay execution-independent. They accumulate
            // locally and flush before the next registry read.
            self.pending_slices += 1;
            self.pending_cycles += slice.cycles;
            self.droops += slice.droops;
            self.invariant_violations += log.invariant_violations;
            if self.monitor.is_some() {
                epoch_cycles += slice.cycles;
                epoch_droops += slice.droops;
                epoch_min_margin = epoch_min_margin.min(PHASE_MARGIN_PCT - slice.max_droop_pct);
                epoch_margin_weight +=
                    (PHASE_MARGIN_PCT + slice.mean_dev_pct) * slice.cycles as f64;
            }
            if slice.droops > 0 {
                self.metrics.observe("droop_depth_pct", slice.max_droop_pct);
            }
            if self.tracer.is_enabled() {
                self.tracer
                    .merge(self.synth_slice_spans(b, now, slice.cycles));
            }
            if self.tracer.wants_droop_events()
                || self.profiler.is_some()
                || self.monitor.is_some()
                || self.obs.is_some()
            {
                let workloads: Vec<String> = b
                    .cores
                    .iter()
                    .flatten()
                    .map(|cs| self.running[&cs.job].spec.workload.clone())
                    .collect();
                // Busy chips only ever advance one slice per epoch, so
                // every captured crossing maps onto this slice's
                // window of the virtual clock.
                let slice_start = log.session_start;
                let wants_trace = self.tracer.wants_droop_events();
                let ring_armed = self.recent.is_some();
                if wants_trace || self.monitor.is_some() || ring_armed {
                    let phase = format!("epoch{}", rec.index);
                    for crossing in &log.crossings {
                        // One event per crossing, moved into the last
                        // armed consumer.
                        let mut event = Some(DroopEvent {
                            chip: b.chip,
                            core: 0,
                            cycle: now + (crossing.cycle - slice_start),
                            depth_pct: crossing.depth_pct,
                            workloads: workloads.clone(),
                            phase: phase.clone(),
                        });
                        if let Some(m) = self.monitor.as_deref_mut() {
                            m.on_droop(hand_off(&mut event, wants_trace || ring_armed));
                        }
                        if wants_trace {
                            self.tracer.droop(hand_off(&mut event, ring_armed));
                        }
                        if let Some(ring) = self.recent.as_mut() {
                            if ring.len() == self.recent_cap {
                                ring.pop_front();
                            }
                            ring.push_back(Arc::new(hand_off(&mut event, false)));
                        }
                    }
                }
                if self.monitor.is_some() || self.profiler.is_some() {
                    // One label per busy chip, moved into the last
                    // armed consumer.
                    let mut label = Some(workloads.join("+"));
                    if let Some(m) = self.monitor.as_deref_mut() {
                        m.on_slice(SliceRecord {
                            start_cycle: now,
                            chip: b.chip,
                            label: hand_off(&mut label, self.profiler.is_some()),
                            cycles: slice.cycles,
                            droops: slice.droops,
                            max_droop_pct: slice.max_droop_pct,
                        });
                    }
                    if let Some(p) = self.profiler.as_deref_mut() {
                        self.segs[b.chip].push(SliceSeg {
                            session_start: slice_start,
                            virtual_start: now,
                            label: hand_off(&mut label, false),
                        });
                        record_windows(p, self.tracer, b.chip, &self.segs[b.chip], &log.windows);
                    }
                }
            }
            for core in 0..2 {
                let Some(cs) = &b.cores[core] else {
                    continue;
                };
                let delta = &slice.core_deltas[core];
                let meta = self.running.get_mut(&cs.job).expect("placed job tracked");
                meta.executed_cycles += slice.cycles;
                meta.instructions += delta.instructions();
                meta.attributed_droops += slice.droops;
                if cs.finishes {
                    let meta = self.running.remove(&cs.job).expect("placed job tracked");
                    self.metrics.counter_add("serve_jobs_completed_total", 1);
                    let finished_cycle = now + self.slice_cycles;
                    if self.tracer.is_enabled() {
                        self.tracer.complete(
                            meta.spec.workload.clone(),
                            "job",
                            PID_JOBS,
                            meta.spec.id,
                            meta.started_cycle,
                            finished_cycle - meta.started_cycle,
                            vec![
                                ("chip", ArgValue::from(b.chip)),
                                ("executed_cycles", ArgValue::from(meta.executed_cycles)),
                                ("attributed_droops", ArgValue::from(meta.attributed_droops)),
                            ],
                        );
                    }
                    self.completed.push(CompletedJob {
                        spec: meta.spec,
                        started_cycle: meta.started_cycle,
                        finished_cycle,
                        executed_cycles: meta.executed_cycles,
                        instructions: meta.instructions,
                        attributed_droops: meta.attributed_droops,
                    });
                }
            }
        }
        if let Some(m) = self.monitor.as_deref_mut() {
            // Close the monitoring epoch after the merge, with the
            // queue state placement left behind — all decision-loop
            // state, so the sample is execution-independent.
            m.on_epoch(EpochSample {
                end_cycle: now + self.slice_cycles,
                cycles: epoch_cycles,
                droops: epoch_droops,
                min_margin_pct: epoch_min_margin,
                mean_margin_pct: if epoch_cycles == 0 {
                    PHASE_MARGIN_PCT
                } else {
                    epoch_margin_weight / epoch_cycles as f64
                },
                queue_depth: rec.queue_depth_after,
                running_jobs: rec.running_after,
            });
        }
        self.epochs_merged += 1;
        if let Some(oc) = self.obs {
            if self.epochs_merged.is_multiple_of(self.publish_every) {
                self.flush_slice_counters();
                if let Some(p) = self.profiler.as_deref_mut() {
                    // Refresh /profile at publish cadence. The profiler
                    // caches each label's rendered entry, so this
                    // re-renders only the header and the labels
                    // recorded into since the previous publish.
                    self.last_profile = Some(Arc::new(p.to_json()));
                }
                let status = ServiceStatus {
                    epoch: self.epochs_merged,
                    virtual_cycles: now + self.slice_cycles,
                    queue_depth: rec.queue_depth_after,
                    running_jobs: rec.running_after,
                    jobs_submitted: self.jobs_submitted,
                    jobs_admitted: self.admitted,
                    jobs_completed: self.completed.len() as u64,
                    droops: self.droops,
                    done: false,
                };
                oc.hub.publish(ObsSnapshot {
                    metrics: self.metrics.snapshot(),
                    health: self.monitor.as_deref().map(Monitor::status),
                    service: Some(status),
                    fleet: None,
                    shards: Some(self.stats.status(self.epochs_merged)),
                    decisions: self
                        .audit
                        .as_ref()
                        .map(AuditLog::events)
                        .unwrap_or_default(),
                    recent_droops: self.recent.iter().flatten().cloned().collect(),
                    profile_json: self.last_profile.clone(),
                });
                if let Some(hook) = &oc.on_publish {
                    hook(&oc.hub.latest());
                }
            }
        }
        Ok(())
    }

    /// Flushes the batched slice counters into the registry. Must run
    /// before every registry read so the observable totals match the
    /// per-slice adds of the historical in-line loop exactly; the
    /// zero-pending guard keeps the series from existing before the
    /// first slice merges, just as per-slice adds would have it.
    fn flush_slice_counters(&mut self) {
        if self.pending_slices > 0 {
            self.metrics
                .counter_add("serve_slices_total", self.pending_slices);
            self.metrics
                .counter_add("serve_chip_cycles_total", self.pending_cycles);
            self.pending_slices = 0;
            self.pending_cycles = 0;
        }
    }

    /// End of run: final window flushes, aggregate counters and float
    /// observations, health/profile exports, the final obs publish,
    /// and the report. `cells` must come back from the shard pool in
    /// chip order.
    pub(crate) fn finalize(
        mut self,
        mut cells: Vec<ChipCell>,
        policy_name: String,
        end: RunEnd,
    ) -> Result<crate::service::ServiceReport, ServeError> {
        let RunEnd {
            epochs,
            now,
            busy_core_quanta,
            warmed_profiles,
        } = end;
        self.flush_slice_counters();
        if let Some(p) = self.profiler.as_deref_mut() {
            // Seal windows whose tail was still filling at the end of
            // the run (their `truncated` flag records the early cut).
            for (chip_idx, cell) in cells.iter_mut().enumerate() {
                let windows = cell.session.flush_droop_windows();
                record_windows(p, self.tracer, chip_idx, &self.segs[chip_idx], &windows);
            }
        }
        if self.invariant_violations > 0 {
            return Err(ServeError::InvariantViolations {
                violations: self.invariant_violations,
            });
        }
        self.metrics.counter_add("serve_droops_total", self.droops);
        self.metrics
            .counter_with("droops_total", &[("policy", &policy_name)], self.droops);
        // Float observations only here, in the merge layer, in
        // completion order — see the module docs on determinism.
        for job in &self.completed {
            self.metrics
                .observe("serve_queue_wait_cycles", job.queue_wait_cycles() as f64);
            self.metrics.observe(
                "queue_wait_kcycles",
                job.queue_wait_cycles() as f64 / 1000.0,
            );
            self.metrics.observe(
                "job_latency_kcycles",
                (job.finished_cycle - job.spec.arrival_cycle) as f64 / 1000.0,
            );
            self.metrics.observe("serve_job_ipc", job.ipc());
        }
        let chip_cycles: u64 = cells.iter().map(|c| c.session.measured_cycles()).sum();
        let core_quanta_available = 2 * cells.len() as u64 * epochs;
        let utilization = if core_quanta_available == 0 {
            0.0
        } else {
            busy_core_quanta as f64 / core_quanta_available as f64
        };
        self.metrics
            .gauge_set("serve_chip_utilization", utilization);
        self.metrics
            .gauge_set("serve_warmed_profiles", warmed_profiles as f64);
        if let Some(p) = self.profiler.as_deref_mut() {
            // Attribution series land in the same snapshot the report
            // embeds, so `droop_attribution_total{event=...}` shows up
            // in the rendered metrics and the Prometheus exposition.
            p.report().export_metrics(self.metrics);
            if self.obs.is_some() {
                // The final /profile body includes the end-of-run
                // flushed windows the periodic refreshes could not see.
                self.last_profile = Some(Arc::new(p.to_json()));
            }
        }
        let health = self.monitor.as_deref().map(Monitor::report);
        if let Some(h) = &health {
            // alerts_total{rule,severity} and the monitor_* gauges land
            // in the same snapshot the report embeds.
            h.export_metrics(self.metrics);
            if self.tracer.is_enabled() {
                for alert in &h.alerts {
                    self.tracer.instant(
                        alert.rule.clone(),
                        "alert",
                        PID_MONITOR,
                        0,
                        alert.fired_at_cycle,
                        vec![
                            ("severity", ArgValue::from(alert.severity.label())),
                            ("droops", ArgValue::from(alert.window.droops)),
                        ],
                    );
                    if let Some(resolved) = alert.resolved_at_cycle {
                        self.tracer.instant(
                            alert.rule.clone(),
                            "alert-resolved",
                            PID_MONITOR,
                            0,
                            resolved,
                            vec![("severity", ArgValue::from(alert.severity.label()))],
                        );
                    }
                }
            }
        }
        if self.tracer.is_streaming() {
            // The telemetry pipeline observes itself: drop/flush/
            // sampler counters land in the same snapshot the report
            // embeds. Only streaming tracers add these series, so
            // non-streaming runs keep their exact historical renders.
            self.tracer.export_telemetry(self.metrics);
        }
        let snapshot = self.metrics.snapshot();
        // Shards credit every executed slice to the live scoreboard,
        // so the introspection tallies must reconcile exactly with the
        // deterministic counter.
        debug_assert_eq!(
            self.stats.slices_total(),
            snapshot.counter("serve_slices_total"),
            "introspection slice tallies drifted from serve_slices_total"
        );
        if let Some(oc) = self.obs {
            // Final publish: the complete end-of-run registry (alert
            // counters, monitor gauges, attribution series included),
            // final health, and `done: true` — so post-run scrapes see
            // the finished state instead of the last periodic sample.
            oc.hub.publish(ObsSnapshot {
                metrics: snapshot.clone(),
                health: self.monitor.as_deref().map(Monitor::status),
                service: Some(ServiceStatus {
                    epoch: epochs,
                    virtual_cycles: now,
                    queue_depth: 0,
                    running_jobs: 0,
                    jobs_submitted: self.jobs_submitted,
                    jobs_admitted: self.admitted,
                    jobs_completed: self.completed.len() as u64,
                    droops: self.droops,
                    done: true,
                }),
                fleet: None,
                shards: Some(self.stats.status(self.epochs_merged)),
                decisions: self
                    .audit
                    .as_ref()
                    .map(AuditLog::events)
                    .unwrap_or_default(),
                recent_droops: self.recent.iter().flatten().cloned().collect(),
                profile_json: self.last_profile.clone(),
            });
            if let Some(hook) = &oc.on_publish {
                hook(&oc.hub.latest());
            }
        }
        let completed = self.completed;
        let mean = |f: &dyn Fn(&CompletedJob) -> f64| {
            if completed.is_empty() {
                0.0
            } else {
                completed.iter().map(f).sum::<f64>() / completed.len() as f64
            }
        };
        Ok(crate::service::ServiceReport {
            policy: policy_name,
            jobs_submitted: self.jobs_submitted,
            jobs_completed: completed.len(),
            virtual_cycles: now,
            epochs,
            chip_cycles,
            droops: self.droops,
            droops_per_kilocycle: if chip_cycles == 0 {
                0.0
            } else {
                self.droops as f64 * 1000.0 / chip_cycles as f64
            },
            mean_queue_wait_cycles: mean(&|j| j.queue_wait_cycles() as f64),
            chip_utilization: utilization,
            throughput_jobs_per_mcycle: if now == 0 {
                0.0
            } else {
                completed.len() as f64 * 1e6 / now as f64
            },
            mean_ipc: mean(&|j| j.ipc()),
            warmed_profiles,
            metrics: snapshot.render(),
            snapshot,
            completed,
            health: health.as_ref().map(HealthReport::summary),
            audit: self.audit.as_ref().map(AuditLog::report),
        })
    }
}

/// Hands a value built once to one of its consumers: a clone while
/// `more` consumers follow, the value itself to the last one.
fn hand_off<T: Clone>(value: &mut Option<T>, more: bool) -> T {
    let value = if more { value.clone() } else { value.take() };
    value.expect("only the last consumer takes the value")
}

/// Scores freshly sealed capture windows into the profiler and emits
/// them as trace spans. Each window is labeled by the slice it
/// triggered in (found in `segs`, which is ordered by session clock)
/// and mapped onto the virtual clock through that slice's offset.
fn record_windows(
    profiler: &mut Profiler,
    tracer: &Tracer,
    chip_idx: usize,
    segs: &[SliceSeg],
    windows: &[DroopWindow],
) {
    for window in windows {
        let seg = segs
            .iter()
            .rev()
            .find(|s| s.session_start <= window.trigger_cycle)
            .expect("windows only trigger inside recorded slices");
        let att = profiler.record(&seg.label, window);
        if tracer.is_enabled() {
            let virtual_trigger = seg.virtual_start + (window.trigger_cycle - seg.session_start);
            let ts = virtual_trigger.saturating_sub(window.trigger_cycle - window.start_cycle);
            emit_window_span(tracer, chip_pid(chip_idx), PROFILE_TID, ts, window, &att);
        }
    }
}
