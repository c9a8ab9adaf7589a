//! The service's execution backend: chips packaged as self-contained
//! cells, advanced by a pool of long-lived shard workers with
//! per-shard token queues and work-stealing.
//!
//! Shards drain the decision loop's command stream ([`CellCmd`]) and
//! publish one [`SliceLog`] per granted slice; the merge layer orders
//! logs by `(epoch, chip)`, so which shard ran what is invisible to
//! every artifact. Under [`RuntimeMode::Sharded`] busy chips advance
//! through the fused chip kernel ([`ChipSession::run_slice_fast`],
//! bit-identical to the reference loop with every armed channel —
//! crossings, waveform windows, the invariant checker — captured
//! inside it; only a chip shape the kernel is not specialized for runs
//! the reference loop, counted as
//! `chip_kernel_fallback_slices_total{reason="shape"}`). Under
//! [`RuntimeMode::Reference`] the same pool warms up through
//! [`ChipSession::begin`] and steps the dyn-dispatch reference loop
//! ([`ChipSession::run_slice`]) — the differential oracle
//! `tests/shard_equivalence.rs` holds the fused kernel to.
//!
//! [`RuntimeMode::Sharded`]: crate::RuntimeMode::Sharded
//! [`RuntimeMode::Reference`]: crate::RuntimeMode::Reference

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::control::{CellCmd, CellJob, EventBus, ShardEvent, SliceLog, TokenBoard};
use crate::introspect::RuntimeStats;
use crate::ServeError;
use vsmooth_chip::{ChipError, ChipSession, SliceStats};
use vsmooth_uarch::{IdleLoop, StimulusSource};

/// One pool member: a warmed-up measurement session plus whatever is
/// running on its two cores. Cells own their chips end-to-end; only
/// one shard at a time (under the cell lock) touches them.
#[derive(Debug)]
pub(crate) struct ChipCell {
    pub session: ChipSession,
    pub cores: [Option<CellJob>; 2],
    pub idle: [IdleLoop; 2],
}

impl ChipCell {
    /// Advances this chip one quantum through the historical reference
    /// loop; empty cores run the idle loop, exactly like an OS idle
    /// thread.
    fn run_reference_slice(&mut self, cycles: u64) -> Result<SliceStats, ChipError> {
        let [c0, c1] = &mut self.cores;
        let [i0, i1] = &mut self.idle;
        let s0: &mut dyn StimulusSource = match c0 {
            Some(job) => &mut job.stream,
            None => i0,
        };
        let s1: &mut dyn StimulusSource = match c1 {
            Some(job) => &mut job.stream,
            None => i1,
        };
        let mut sources: Vec<&mut dyn StimulusSource> = vec![s0, s1];
        self.session.run_slice(&mut sources, cycles)
    }

    /// Advances this chip one quantum through the fused fast-slice
    /// kernel, with each resident stream's event mix hoisted out of
    /// the cycle loop. Job streams never loop and always advance in
    /// whole slice-aligned intervals here, which is precisely the
    /// regime where hoisted-mix stepping is bit-identical to
    /// `EventStream::next`.
    fn run_fast_slice(&mut self, cycles: u64) -> Result<SliceStats, ChipError> {
        let [c0, c1] = &mut self.cores;
        let [i0, i1] = &mut self.idle;
        match (c0.as_mut(), c1.as_mut()) {
            (Some(j0), Some(j1)) => {
                let m0 = j0.stream.current_prepared();
                let m1 = j1.stream.current_prepared();
                self.session.run_slice_fast(
                    || j0.stream.step_prepared(&m0),
                    || j1.stream.step_prepared(&m1),
                    cycles,
                )
            }
            (Some(j0), None) => {
                let m0 = j0.stream.current_prepared();
                self.session.run_slice_fast(
                    || j0.stream.step_prepared(&m0),
                    || StimulusSource::next(i1),
                    cycles,
                )
            }
            (None, Some(j1)) => {
                let m1 = j1.stream.current_prepared();
                self.session.run_slice_fast(
                    || StimulusSource::next(i0),
                    || j1.stream.step_prepared(&m1),
                    cycles,
                )
            }
            (None, None) => self.session.run_slice_fast(
                || StimulusSource::next(i0),
                || StimulusSource::next(i1),
                cycles,
            ),
        }
    }

    /// Frees cores whose stream just ran its final slice — the same
    /// `is_finished` test the decision loop evaluates analytically —
    /// and reports which job ids finished, per core.
    fn pop_finished(&mut self) -> [Option<u64>; 2] {
        let mut finished = [None, None];
        for (slot, out) in self.cores.iter_mut().zip(&mut finished) {
            if slot.as_ref().is_some_and(|j| j.stream.is_finished()) {
                *out = slot.take().map(|j| j.id);
            }
        }
        finished
    }
}

/// Which per-slice channels shards must drain into [`SliceLog`]s.
/// Mirrors the session arming the service configured, so logs carry
/// exactly what the merge layer will consume.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DrainPlan {
    pub crossings: bool,
    pub windows: bool,
    pub invariants: bool,
}

/// The `(shard, seq, epoch, chip)` identity stamped onto one executed
/// slice's [`SliceLog`].
#[derive(Debug, Clone, Copy)]
struct SliceTag {
    shard: usize,
    seq: u64,
    epoch: u64,
    chip: usize,
}

/// Runs one granted slice on `cell` through the pool's kernel and
/// packages the log.
fn exec_slice(
    cell: &mut ChipCell,
    shared: &PoolShared,
    tag: SliceTag,
) -> Result<SliceLog, ChipError> {
    let session_start = cell.session.measured_cycles();
    let stats = if shared.fast {
        cell.run_fast_slice(shared.slice_cycles)?
    } else {
        cell.run_reference_slice(shared.slice_cycles)?
    };
    let drain = shared.drain;
    let crossings = if drain.crossings {
        cell.session.take_droop_crossings()
    } else {
        Vec::new()
    };
    let windows = if drain.windows {
        cell.session.take_droop_windows()
    } else {
        Vec::new()
    };
    let invariant_violations = if drain.invariants {
        cell.session.take_invariant_violations().len()
    } else {
        0
    };
    let finished = cell.pop_finished();
    Ok(SliceLog {
        shard: tag.shard,
        seq: tag.seq,
        epoch: tag.epoch,
        chip: tag.chip,
        session_start,
        stats,
        crossings,
        windows,
        invariant_violations,
        finished,
    })
}

/// State shared between the decision loop and the shard workers.
#[derive(Debug)]
struct PoolShared {
    cells: Vec<Mutex<CellSlot>>,
    tokens: TokenBoard,
    bus: EventBus,
    /// The live introspection scoreboard, shared with obs publishes.
    /// The per-shard split of slice counts is execution-dependent
    /// (work-stealing); only the sum is deterministic. All
    /// determinism-pinned metrics are recorded by the merge layer,
    /// never here.
    stats: Arc<RuntimeStats>,
    /// Whether shards step the fused kernel (else the reference loop).
    fast: bool,
    slice_cycles: u64,
    drain: DrainPlan,
}

/// A chip cell plus its pending command queue.
#[derive(Debug)]
struct CellSlot {
    cmds: VecDeque<CellCmd>,
    cell: ChipCell,
}

/// Rings the exit doorbell however the shard leaves `shard_main`,
/// panic included, so the decision loop never blocks on a dead pool.
struct ExitBell<'a>(&'a EventBus);

impl Drop for ExitBell<'_> {
    fn drop(&mut self) {
        self.0.shard_exited();
    }
}

/// The body of one shard worker: pop a chip token (own queue first,
/// then steal), drain that cell's command queue in FIFO order under
/// the cell lock, publish one [`SliceLog`] per grant.
fn shard_main(me: usize, shared: &PoolShared) {
    let _bell = ExitBell(&shared.bus);
    let mut seq = 0u64;
    while let Some(token) = shared.tokens.next(me) {
        let chip = token.chip;
        let mut slot = shared.cells[chip].lock().expect("cell lock");
        while let Some(cmd) = slot.cmds.pop_front() {
            match cmd {
                CellCmd::AddJob { core, job } => {
                    debug_assert!(
                        slot.cell.cores[core].is_none(),
                        "placement on occupied core"
                    );
                    slot.cell.cores[core] = Some(job);
                }
                CellCmd::Grant { epoch } => {
                    let tag = SliceTag {
                        shard: me,
                        seq,
                        epoch,
                        chip,
                    };
                    let fallbacks_before = slot.cell.session.kernel_fallback_slices();
                    match exec_slice(&mut slot.cell, shared, tag) {
                        Ok(log) => {
                            shared.stats.record_slice(me, token.stolen);
                            shared.stats.kernel_fallback_shape.fetch_add(
                                slot.cell.session.kernel_fallback_slices() - fallbacks_before,
                                Ordering::Relaxed,
                            );
                            seq += 1;
                            let occupancy = shared.bus.publish(me, ShardEvent::Slice(log));
                            shared.stats.shards[me]
                                .lane_hwm
                                .fetch_max(occupancy as u64, Ordering::Relaxed);
                        }
                        Err(error) => {
                            shared.bus.publish(me, ShardEvent::Failed { error });
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// The shard pool: `shards` long-lived OS threads own the chip pool
/// end-to-end for the duration of a run.
#[derive(Debug)]
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Chip index → owning shard (round-robin).
    owner_of: Vec<usize>,
    /// Granted `(epoch, chip)` slices whose logs have not arrived yet.
    outstanding: BTreeSet<(u64, usize)>,
    /// Logs received but not yet consumed by the merge layer.
    received: BTreeMap<(u64, usize), SliceLog>,
    /// Bus events seen, for the doorbell wait.
    seen: u64,
    /// Next expected per-shard sequence number: each lane is a FIFO
    /// and each shard stamps its slices 0, 1, 2, … — so logs must
    /// arrive in exactly that order per lane.
    next_seq: Vec<u64>,
    /// Chip index → shard that executed its previous slice, for the
    /// ownership-churn introspection counter.
    last_executor: Vec<Option<usize>>,
    scratch: Vec<ShardEvent>,
    failure: Option<ChipError>,
}

impl ShardPool {
    /// Spawns `shards` workers over `cells`; `fast` picks the kernel
    /// they step (the cells must have warmed up through the matching
    /// one).
    pub(crate) fn new(
        cells: Vec<ChipCell>,
        shards: usize,
        fast: bool,
        stats: Arc<RuntimeStats>,
        slice_cycles: u64,
        drain: DrainPlan,
    ) -> Self {
        let chips = cells.len();
        let owner_of: Vec<usize> = (0..chips).map(|chip| chip % shards).collect();
        let shared = Arc::new(PoolShared {
            cells: cells
                .into_iter()
                .map(|cell| {
                    Mutex::new(CellSlot {
                        cmds: VecDeque::new(),
                        cell,
                    })
                })
                .collect(),
            tokens: TokenBoard::new(shards),
            bus: EventBus::new(shards),
            stats,
            fast,
            slice_cycles,
            drain,
        });
        let handles = (0..shards)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vsmooth-shard{me}"))
                    .spawn(move || shard_main(me, &shared))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            shared,
            handles,
            owner_of,
            outstanding: BTreeSet::new(),
            received: BTreeMap::new(),
            seen: 0,
            next_seq: vec![0; shards],
            last_executor: vec![None; chips],
            scratch: Vec::new(),
            failure: None,
        }
    }

    /// Records the depth a cell's command queue just reached.
    fn note_queue_depth(&self, chip: usize, depth: usize) {
        self.shared.stats.cell_queue_hwm[chip].fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Queues a placement at its chip cell.
    pub(crate) fn add_job(&self, chip: usize, core: usize, job: CellJob) {
        let depth = {
            let mut slot = self.shared.cells[chip].lock().expect("cell lock");
            slot.cmds.push_back(CellCmd::AddJob { core, job });
            slot.cmds.len()
        };
        self.note_queue_depth(chip, depth);
    }

    /// Grants `busy` chips one quantum for `epoch`: enqueues grant
    /// commands and chip tokens.
    pub(crate) fn grant(&mut self, epoch: u64, busy: &[usize]) {
        for &chip in busy {
            let depth = {
                let mut slot = self.shared.cells[chip].lock().expect("cell lock");
                slot.cmds.push_back(CellCmd::Grant { epoch });
                slot.cmds.len()
            };
            self.note_queue_depth(chip, depth);
            self.outstanding.insert((epoch, chip));
        }
        self.shared
            .tokens
            .push_many(busy.iter().map(|&chip| (self.owner_of[chip], chip)));
    }

    /// Non-blocking: drains the bus into `received`.
    fn pump(&mut self) -> Result<(), ServeError> {
        self.shared.bus.drain(&mut self.scratch);
        for event in self.scratch.drain(..) {
            match event {
                ShardEvent::Slice(log) => {
                    debug_assert_eq!(
                        log.seq, self.next_seq[log.shard],
                        "shard lane delivered slices out of order"
                    );
                    self.next_seq[log.shard] = log.seq + 1;
                    if self.last_executor[log.chip].is_some_and(|prev| prev != log.shard) {
                        self.shared
                            .stats
                            .ownership_churn
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.last_executor[log.chip] = Some(log.shard);
                    self.outstanding.remove(&(log.epoch, log.chip));
                    self.received.insert((log.epoch, log.chip), log);
                }
                ShardEvent::Failed { error } => self.failure = Some(error),
            }
        }
        match self.failure.clone() {
            Some(error) => Err(ServeError::Chip(error)),
            None => Ok(()),
        }
    }

    fn has_through(&self, bound: u64) -> bool {
        !self.outstanding.iter().any(|&(epoch, _)| epoch < bound)
    }

    /// Blocks until every log for epochs `< bound` has arrived.
    pub(crate) fn wait_through(&mut self, bound: u64) -> Result<(), ServeError> {
        loop {
            self.pump()?;
            if self.has_through(bound) {
                return Ok(());
            }
            self.shared.bus.wait_beyond(&mut self.seen);
        }
    }

    /// Non-blocking: whether every log for epochs `< bound` is in.
    pub(crate) fn ready_through(&mut self, bound: u64) -> Result<bool, ServeError> {
        self.pump()?;
        Ok(self.has_through(bound))
    }

    /// Hands the merge layer one received log. Panics if absent — the
    /// caller must have established availability first.
    pub(crate) fn take_log(&mut self, epoch: u64, chip: usize) -> SliceLog {
        self.received
            .remove(&(epoch, chip))
            .expect("granted slice log available at merge time")
    }

    /// Shuts the pool down and returns the cells in chip order for
    /// end-of-run flushing (late-sealing droop windows, measured-cycle
    /// totals).
    pub(crate) fn finish(mut self) -> Result<Vec<ChipCell>, ServeError> {
        self.shared.tokens.shutdown();
        for handle in self.handles.drain(..) {
            handle.join().expect("shard worker panicked");
        }
        self.pump()?;
        // `Drop` prevents moving a field out of `self`; clone the Arc,
        // let the (now trivial) destructor run, then unwrap.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::try_unwrap(shared).expect("all shard handles joined");
        Ok(shared
            .cells
            .into_iter()
            .map(|slot| {
                let slot = slot.into_inner().expect("cell lock");
                debug_assert!(slot.cmds.is_empty(), "commands left undrained at shutdown");
                slot.cell
            })
            .collect())
    }
}

/// Early error returns (queue overflow, chip failure) drop the pool
/// with workers still parked on the token board; release them and wait,
/// or they would outlive the run holding the shared state.
impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.tokens.shutdown();
        for handle in self.handles.drain(..) {
            // A worker that panicked already published its exit; don't
            // double-panic while unwinding.
            let _ = handle.join();
        }
    }
}
