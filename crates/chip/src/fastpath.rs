//! The fused chip kernel: the per-cycle measurement loop monomorphized
//! and flattened. It is the production kernel of every measurement
//! path — the serving runtime's shard workers, one-shot [`Chip::run`]
//! and its logged/profiled/hooked/traced variants, and through them
//! the campaign, fleet and paper-reproduction runners.
//!
//! The reference per-cycle path ([`Chip::step_cycle`] +
//! [`MeasureState::run`]) walks a `Vec`-backed state-space model
//! through bounds-checked `Mat` indexing, dispatches stimulus sources
//! through `&mut dyn`, and recomputes the VRM ripple phase with a
//! division every cycle. None of that changes the physics — it is pure
//! interpretation overhead.
//!
//! This module specializes the loop for the platform's shape (2-core
//! chip, 8-state PDN with 2 inputs) into one fused loop over
//! fixed-size arrays with closure-typed stimulus sources. The kernel
//! reproduces the reference floating-point accumulation order
//! *exactly* — same adds, same order, same clamps — so every value it
//! produces is bit-identical to the reference loop. That property is
//! what lets the sharded serving runtime use it while still promising
//! byte-identical artifacts against the reference-kernel oracle
//! (`tests/shard_equivalence.rs`), and it is enforced by the identity
//! tests at the bottom of this file.
//!
//! # Capture channels
//!
//! What the loop records beyond the slice summary and the droop grid
//! is a **monomorphized channel mask**: one generic loop,
//! instantiated per combination of armed channels, where each channel
//! is a `const` flag that either compiles to its per-cycle work or to
//! nothing. The channels are:
//!
//! - crossings — timestamped [`DroopCrossing`](crate::DroopCrossing)s;
//! - window — triggered [`DroopWindow`](crate::DroopWindow)s (implies
//!   crossings);
//! - invariants — the [`invariant`](crate::invariant) checker;
//! - run stats — the voltage sensor's histogram/summary and the
//!   overshoot grid, which only the final
//!   [`RunStats`](crate::RunStats) reads.
//!
//! One-shot runs and sessions opened with
//! [`ChipSession::begin`](crate::ChipSession::begin) keep run stats
//! on; sessions opened with [`ChipSession::begin_fast`] — the serving
//! runtime, which reads only [`SliceStats`] — leave them off, so their
//! final `RunStats` under-counts sensor samples and overshoots.
//! Slices of any length run fused: the loop splits at interval
//! boundaries so the interval-timeline push stays out of the per-cycle
//! body.
//!
//! Chips of any other shape — one-core rails, generated ladders —
//! run the reference loop; sessions count those slices (see
//! [`ChipSession::kernel_fallback_slices`](crate::ChipSession::kernel_fallback_slices)).

use crate::chip::Chip;
use crate::session::{CycleHook, MeasureState, NoHook, SliceStats};
use crate::stats::PHASE_MARGIN_PCT;
use crate::ChipError;
use vsmooth_uarch::{Core, CycleStimulus, StimulusSource};

/// Largest ripple period we precompute a lookup table for. The
/// platform's VRM switches every 1 900 cycles; anything vastly larger
/// would just waste cache, so such configs run the reference loop.
const MAX_RIPPLE_TABLE: u64 = 1 << 16;

/// Adapter exposing a closure as a [`StimulusSource`], so callers that
/// hold closure-typed sources can still run the reference loop on a
/// chip the fused kernel is not specialized for.
pub(crate) struct FnSource<F: FnMut() -> CycleStimulus + Send>(pub(crate) F);

impl<F: FnMut() -> CycleStimulus + Send> StimulusSource for FnSource<F> {
    fn next(&mut self) -> CycleStimulus {
        (self.0)()
    }

    fn name(&self) -> &str {
        "closure"
    }
}

/// Precomputed coefficients for the fused kernel: the discretized PDN
/// matrices copied into fixed-size arrays plus the VRM ripple unrolled
/// into a one-period lookup table.
///
/// Matrices and ripple are immutable after [`Chip::new`], so the cache
/// is built once per session; only the PDN state vector is copied in
/// and written back around each fast slice.
#[derive(Debug, Clone)]
pub(crate) struct FastCache {
    /// Ad transposed: `adt[col][row]`. The state update walks columns
    /// so the eight row accumulators advance together (see
    /// [`step_pdn`]).
    adt: [[f64; 8]; 8],
    /// Bd transposed: `bdt[input][row]`.
    bdt: [[f64; 8]; 2],
    c: [f64; 8],
    d: [f64; 2],
    ripple: Vec<f64>,
}

impl FastCache {
    /// Builds the cache, or `None` when the chip's PDN is not the
    /// 8-state/2-input ladder the kernel is specialized for.
    pub(crate) fn build(chip: &Chip) -> Option<Self> {
        if chip.cores.len() != 2 {
            return None;
        }
        let (ad, bd, c, d) = chip.pdn.system_matrices();
        if ad.rows() != 8
            || ad.cols() != 8
            || bd.rows() != 8
            || bd.cols() != 2
            || c.cols() != 8
            || d.cols() != 2
        {
            return None;
        }
        let period = chip.cfg.ripple.period_cycles();
        if period > MAX_RIPPLE_TABLE {
            return None;
        }
        let mut fa = [[0.0f64; 8]; 8];
        let mut fb = [[0.0f64; 8]; 2];
        let mut fc = [0.0f64; 8];
        for r in 0..8 {
            for col in 0..8 {
                fa[col][r] = ad[(r, col)];
            }
            fb[0][r] = bd[(r, 0)];
            fb[1][r] = bd[(r, 1)];
        }
        for (col, slot) in fc.iter_mut().enumerate() {
            *slot = c[(0, col)];
        }
        let fd = [d[(0, 0)], d[(0, 1)]];
        // `VrmRipple::offset` is periodic in `period_cycles`; tabulating
        // one period and indexing with a wrapping counter reproduces it
        // bit-exactly (same function, same inputs) without the per-cycle
        // modulo.
        let ripple = (0..period).map(|i| chip.cfg.ripple.offset(i)).collect();
        Some(Self {
            adt: fa,
            bdt: fb,
            c: fc,
            d: fd,
            ripple,
        })
    }
}

/// A session's fused-kernel verdict, resolved once: the shape of a
/// chip never changes, so neither does whether the kernel can run it.
#[derive(Debug, Clone)]
pub(crate) enum FastKernel {
    /// Not built yet (sessions opened on the reference loop build it on
    /// their first closure-sourced slice).
    Untried,
    /// The chip qualifies; coefficients ready.
    Ready(Box<FastCache>),
    /// The chip's shape is outside the kernel's specialization.
    Unsupported,
}

impl FastKernel {
    /// Resolves the verdict for `chip` on first use and returns the
    /// cache when the kernel can run it.
    pub(crate) fn resolve(&mut self, chip: &Chip) -> Option<&FastCache> {
        if matches!(self, FastKernel::Untried) {
            *self = match FastCache::build(chip) {
                Some(cache) => FastKernel::Ready(Box::new(cache)),
                None => FastKernel::Unsupported,
            };
        }
        match self {
            FastKernel::Ready(cache) => Some(cache),
            _ => None,
        }
    }
}

/// Runs the chip's configured warm-up through the fused kernel and
/// resets the performance counters — bit-identical to
/// [`Chip::warm_up`] over the same sources.
pub(crate) fn warm_up_fast<S0, S1>(chip: &mut Chip, cache: &FastCache, mut s0: S0, mut s1: S1)
where
    S0: FnMut() -> CycleStimulus,
    S1: FnMut() -> CycleStimulus,
{
    // Reference: `step_cycle(sources, warmup=true, recovery=false)` for
    // `warmup_cycles`, then counter reset. The warm-up boost multiplies
    // the current EMA by 50 before the 0.05 clamp.
    let reg = chip.cfg.regulator;
    let has_reg = reg.gain > 0.0;
    let ema = (reg.current_ema * 50.0).min(0.05);
    let vnom = chip.nominal_voltage();
    let base = vnom - reg.offset_volts;
    let rll = chip.cfg.pdn.total_series_resistance() - reg.load_line_ohms;
    let (clamp_lo, clamp_hi) = (vnom * 0.9, vnom * 1.1);
    let cycles = chip.cfg.warmup_cycles;
    let period = cache.ripple.len();
    let mut phase = (chip.cycle % period as u64) as usize;

    let mut x = [0.0f64; 8];
    x.copy_from_slice(chip.pdn.state());
    let mut vs = chip.vs;
    let mut i_avg = chip.i_avg;
    let mut last_v = chip.last_v;
    {
        let (head, tail) = chip.cores.split_at_mut(1);
        let (core0, core1) = (&mut head[0], &mut tail[0]);
        for _ in 0..cycles {
            let mut total = 0.0;
            total += core0.tick(s0());
            total += core1.tick(s1());
            if has_reg {
                i_avg += ema * (total - i_avg);
                vs = (base + i_avg * rll).clamp(clamp_lo, clamp_hi);
            }
            last_v = step_pdn(cache, &mut x, vs, total);
            // Warm-up discards the sensed value; only the phase advances.
            phase += 1;
            if phase == period {
                phase = 0;
            }
        }
    }
    chip.pdn.set_state(&x);
    chip.cycle += cycles;
    chip.vs = vs;
    chip.i_avg = i_avg;
    chip.last_v = last_v;
    for core in &mut chip.cores {
        core.reset_counters();
    }
}

/// One fused PDN step: `x ← Ad·x + Bd·u`, returning `y = C·x + D·u`.
/// The accumulation order is exactly
/// [`step_first`](vsmooth_pdn::DiscreteStateSpace::step_first)'s —
/// Ad·x in column order first, then the two Bd terms, then C·x, then
/// the two D terms — so results are bit-identical. Walking Ad by
/// *columns* leaves every row accumulator with the very same operand
/// sequence as the reference row-major dot product (`x[0]`'s term
/// first, then `x[1]`'s, ...), but turns the inner loop into eight
/// independent stride-1 accumulations the compiler can vectorize,
/// where the row-major form is one serial add chain per row.
#[inline]
fn step_pdn(cache: &FastCache, x: &mut [f64; 8], u0: f64, u1: f64) -> f64 {
    let prev = *x;
    let mut nx = [0.0f64; 8];
    for (col, &xc) in prev.iter().enumerate() {
        for (acc, &a) in nx.iter_mut().zip(&cache.adt[col]) {
            *acc += a * xc;
        }
    }
    for (acc, &b) in nx.iter_mut().zip(&cache.bdt[0]) {
        *acc += b * u0;
    }
    for (acc, &b) in nx.iter_mut().zip(&cache.bdt[1]) {
        *acc += b * u1;
    }
    *x = nx;
    let mut y = 0.0;
    for (col, &xc) in nx.iter().enumerate() {
        y += cache.c[col] * xc;
    }
    y += cache.d[0] * u0;
    y += cache.d[1] * u1;
    y
}

/// Channel bit: timestamped droop crossings.
const CROSSINGS: u8 = 1;
/// Channel bit: triggered waveform windows (always with crossings).
const WINDOW: u8 = 2;
/// Channel bit: the invariant checker.
const INVARIANTS: u8 = 4;
/// Channel bit: sensor histogram/summary plus overshoot grid.
const RUN_STATS: u8 = 8;

/// Whether channel `bit` is set in `mask` — evaluated at compile time
/// inside [`fused_slice`], so an unset channel leaves no code behind.
const fn armed(mask: u8, bit: u8) -> bool {
    mask & bit != 0
}

/// Advances `cycles` measured cycles through the fused kernel,
/// maintaining exactly the channels `state` has armed. Bit-identical
/// to [`MeasureState::run`] over equivalent sources and hook.
pub(crate) fn run_fused<S0, S1, H>(
    chip: &mut Chip,
    state: &mut MeasureState,
    cache: &FastCache,
    s0: S0,
    s1: S1,
    hook: &mut H,
    cycles: u64,
) -> SliceStats
where
    S0: FnMut() -> CycleStimulus,
    S1: FnMut() -> CycleStimulus,
    H: CycleHook,
{
    let mut mask = 0u8;
    if state.capture.is_some() {
        mask |= CROSSINGS;
    }
    if state.window.is_some() {
        mask |= WINDOW;
    }
    if state.invariants.is_some() {
        mask |= INVARIANTS;
    }
    if state.run_stats {
        mask |= RUN_STATS;
    }
    macro_rules! dispatch {
        ($($m:literal)*) => {
            match mask {
                $($m => fused_slice::<$m, S0, S1, H>(chip, state, cache, s0, s1, hook, cycles),)*
                _ => unreachable!("window capture always arms crossing capture"),
            }
        };
    }
    dispatch!(0 1 3 4 5 7 8 9 11 12 13 15)
}

/// The fused loop, one instantiation per channel mask `CH`.
///
/// Mirrors [`MeasureState::run`] + [`Chip::step_cycle`] cycle for
/// cycle: hook → stimulus → core tick → regulator trim → PDN step →
/// ripple → deviation → sensor → grids → crossing capture → window →
/// invariants → hook. The loop runs up to each interval boundary and
/// closes the interval outside the per-cycle body; window capture and
/// the invariant checker read only the cores, so the rest of the chip
/// stays in locals for the whole slice.
fn fused_slice<const CH: u8, S0, S1, H>(
    chip: &mut Chip,
    state: &mut MeasureState,
    cache: &FastCache,
    mut s0: S0,
    mut s1: S1,
    hook: &mut H,
    cycles: u64,
) -> SliceStats
where
    S0: FnMut() -> CycleStimulus,
    S1: FnMut() -> CycleStimulus,
    H: CycleHook,
{
    let droops_before = state.droops.events_at(PHASE_MARGIN_PCT);
    let counters_before = chip.core_counters();

    let reg = chip.cfg.regulator;
    let has_reg = reg.gain > 0.0;
    let ema = (reg.current_ema * 1.0).min(0.05);
    let vnom = chip.nominal_voltage();
    let base = vnom - reg.offset_volts;
    let rll = chip.cfg.pdn.total_series_resistance() - reg.load_line_ohms;
    let (clamp_lo, clamp_hi) = (vnom * 0.9, vnom * 1.1);
    let nominal = state.sensor.nominal();
    let interval = state.interval_cycles;
    let period = cache.ripple.len();
    let mut phase = (chip.cycle % period as u64) as usize;

    let mut x = [0.0f64; 8];
    x.copy_from_slice(chip.pdn.state());
    let mut vs = chip.vs;
    let mut i_avg = chip.i_avg;
    let mut last_v = chip.last_v;
    let mut sensed = state.last_sensed;
    let mut mc = state.measured_cycles;
    let mut min_dev = 0.0f64;
    let mut sum_dev = 0.0f64;
    let mut remaining = cycles;
    while remaining > 0 {
        let segment = remaining.min(interval - mc % interval);
        {
            let MeasureState {
                sensor,
                droops,
                overshoots,
                capture,
                window,
                invariants,
                ..
            } = &mut *state;
            let cores: &mut [Core; 2] = (&mut chip.cores[..])
                .try_into()
                .expect("the fast cache only builds for two-core chips");
            for _ in 0..segment {
                let idle = hook.recovery(sensed);
                let mut total = 0.0;
                total += cores[0].tick(if idle { CycleStimulus::Idle } else { s0() });
                total += cores[1].tick(if idle { CycleStimulus::Idle } else { s1() });
                if has_reg {
                    i_avg += ema * (total - i_avg);
                    vs = (base + i_avg * rll).clamp(clamp_lo, clamp_hi);
                }
                let v = step_pdn(cache, &mut x, vs, total);
                last_v = v;
                sensed = v + cache.ripple[phase];
                phase += 1;
                if phase == period {
                    phase = 0;
                }
                let dev = 100.0 * (sensed - nominal) / nominal;
                if armed(CH, RUN_STATS) {
                    sensor.record_deviation(dev);
                }
                min_dev = min_dev.min(dev);
                sum_dev += dev;
                droops.observe(dev);
                if armed(CH, RUN_STATS) {
                    overshoots.observe(dev);
                }
                let mut started = false;
                if armed(CH, CROSSINGS) {
                    if let Some(cap) = capture.as_mut() {
                        started = cap.observe(mc, dev);
                    }
                }
                if armed(CH, WINDOW) {
                    if let Some(win) = window.as_mut() {
                        win.on_cycle(&cores[..], mc, dev, started);
                    }
                }
                if armed(CH, INVARIANTS) {
                    if let Some(inv) = invariants.as_mut() {
                        inv.on_cycle(&cores[..], mc, sensed, dev);
                    }
                }
                hook.sensed(sensed);
                mc += 1;
            }
        }
        remaining -= segment;
        if mc.is_multiple_of(interval) {
            state.close_interval();
        }
    }
    chip.pdn.set_state(&x);
    chip.cycle += cycles;
    chip.vs = vs;
    chip.i_avg = i_avg;
    chip.last_v = last_v;
    state.last_sensed = sensed;
    state.measured_cycles = mc;
    state.finish_slice(
        chip,
        cycles,
        droops_before,
        &counters_before,
        min_dev,
        sum_dev,
    )
}

/// Closure-sourced entry points on [`ChipSession`](crate::ChipSession):
/// the serving runtime's shard workers hold concrete stream/idle state
/// and drive sessions through these instead of `&mut dyn` source
/// slices.
impl crate::ChipSession {
    /// Like [`begin`](crate::ChipSession::begin), but warm-up sources
    /// are closures and the warm-up runs through the fused kernel when
    /// the chip qualifies (the reference loop otherwise). Bit-identical
    /// to `begin` over equivalent sources, except that the session
    /// never maintains the channels only the final
    /// [`RunStats`](crate::RunStats) reads — the sensor
    /// histogram/summary and the overshoot grid. Open with `begin` when
    /// [`finish`](crate::ChipSession::finish) must be exact.
    ///
    /// # Errors
    ///
    /// Same conditions as [`begin`](crate::ChipSession::begin); the
    /// closure pair corresponds to a two-core source slice.
    pub fn begin_fast<S0, S1>(
        chip: Chip,
        s0: S0,
        s1: S1,
        interval_cycles: u64,
    ) -> Result<Self, ChipError>
    where
        S0: FnMut() -> CycleStimulus + Send,
        S1: FnMut() -> CycleStimulus + Send,
    {
        if interval_cycles == 0 {
            return Err(ChipError::InvalidConfig("interval_cycles must be non-zero"));
        }
        let mut session = match FastCache::build(&chip) {
            Some(cache) => {
                let mut chip = chip;
                chip.check_sources(2)?;
                warm_up_fast(&mut chip, &cache, s0, s1);
                let state = MeasureState::new(&chip, interval_cycles);
                Self {
                    chip,
                    state,
                    fast: FastKernel::Ready(Box::new(cache)),
                    kernel_fallback_slices: 0,
                }
            }
            None => {
                let mut w0 = FnSource(s0);
                let mut w1 = FnSource(s1);
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
                let mut session = Self::begin(chip, &mut sources, interval_cycles)?;
                session.fast = FastKernel::Unsupported;
                session
            }
        };
        session.state.run_stats = false;
        Ok(session)
    }

    /// Like [`run_slice`](crate::ChipSession::run_slice), but with
    /// closure-typed sources, through the fused kernel with every
    /// armed channel — droop crossings, waveform windows, the invariant
    /// checker and, on sessions opened with `begin`, the
    /// `RunStats`-only channels. Slices
    /// of any length qualify. Only a chip whose shape the kernel is
    /// not specialized for runs the reference loop (via [`FnSource`]);
    /// such slices are counted in
    /// [`kernel_fallback_slices`](crate::ChipSession::kernel_fallback_slices).
    /// Results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// [`ChipError::SourceCountMismatch`] if the session's chip does
    /// not have exactly two cores.
    pub fn run_slice_fast<S0, S1>(
        &mut self,
        s0: S0,
        s1: S1,
        cycles: u64,
    ) -> Result<SliceStats, ChipError>
    where
        S0: FnMut() -> CycleStimulus + Send,
        S1: FnMut() -> CycleStimulus + Send,
    {
        self.chip.check_sources(2)?;
        // Disjoint field borrows: the cache is read-only while chip
        // and measurement state advance.
        let Self {
            chip, state, fast, ..
        } = self;
        if let Some(cache) = fast.resolve(chip) {
            return Ok(run_fused(chip, state, cache, s0, s1, &mut NoHook, cycles));
        }
        self.kernel_fallback_slices += 1;
        let mut w0 = FnSource(s0);
        let mut w1 = FnSource(s1);
        let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
        self.run_slice(&mut sources, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::window::WindowConfig;
    use crate::{
        ChipSession, DroopCrossing, DroopWindow, InvariantConfig, InvariantReport,
        InvariantViolation,
    };
    use vsmooth_pdn::{DecapConfig, VrmRipple};
    use vsmooth_uarch::IdleLoop;
    use vsmooth_workload::by_name;

    fn chip() -> Chip {
        Chip::new(ChipConfig::core2_duo(DecapConfig::proc100())).unwrap()
    }

    #[test]
    fn fast_cache_builds_for_the_platform_chip() {
        assert!(FastCache::build(&chip()).is_some());
    }

    #[test]
    fn fused_pdn_step_matches_reference_bits() {
        let mut c = chip();
        let cache = FastCache::build(&c).unwrap();
        let mut x = [0.0f64; 8];
        x.copy_from_slice(c.pdn.state());
        for k in 0..5_000 {
            let u0 = 1.25 + (k as f64 * 0.01).sin() * 0.05;
            let u1 = 10.0 + (k as f64 * 0.03).cos() * 4.0;
            let fast = step_pdn(&cache, &mut x, u0, u1);
            let reference = c.pdn.step_first(&[u0, u1]);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "cycle {k}: fused output diverged"
            );
        }
        for (f, r) in x.iter().zip(c.pdn.state()) {
            assert_eq!(f.to_bits(), r.to_bits(), "state vector diverged");
        }
    }

    #[test]
    fn fast_warmup_matches_reference_warmup_bits() {
        let reference = {
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
            ChipSession::begin(chip(), &mut warm, 2_000).unwrap()
        };
        let fast = {
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            ChipSession::begin_fast(
                chip(),
                || StimulusSource::next(&mut i0),
                || StimulusSource::next(&mut i1),
                2_000,
            )
            .unwrap()
        };
        assert_chip_state_eq(reference.chip(), fast.chip());
    }

    /// Which channels one identity run arms.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Arm {
        Plain,
        Crossings,
        /// Window capture with the given post-trigger tail.
        Window(usize),
        /// The invariant checker; `true` arms the impossible 0% band.
        Invariants(bool),
        RunStats,
        Everything,
    }

    impl Arm {
        fn apply(self, session: &mut ChipSession) {
            let window = |post_cycles| WindowConfig {
                pre_cycles: 64,
                post_cycles,
                capture_currents: true,
            };
            match self {
                Arm::Plain => {}
                Arm::Crossings => session.capture_droops(2.5),
                Arm::Window(post) => session.enable_profiling(2.5, window(post)),
                Arm::Invariants(impossible) => session.enable_invariants(invariant_cfg(impossible)),
                // Run stats come with opening through `begin`.
                Arm::RunStats => {}
                Arm::Everything => {
                    session.enable_profiling(2.5, window(3_000));
                    session.enable_invariants(invariant_cfg(false));
                }
            }
        }

        fn run_stats(self) -> bool {
            matches!(self, Arm::RunStats | Arm::Everything)
        }
    }

    fn invariant_cfg(impossible: bool) -> InvariantConfig {
        if impossible {
            InvariantConfig {
                voltage_band_pct: 0.0,
                max_violations: 8,
                ..InvariantConfig::default()
            }
        } else {
            InvariantConfig::default()
        }
    }

    /// Everything a session exposes over one identity run.
    #[derive(Debug, PartialEq)]
    struct Observed {
        stats: Vec<SliceStats>,
        crossings: Vec<DroopCrossing>,
        windows: Vec<DroopWindow>,
        reports: Vec<Option<InvariantReport>>,
        violations: Vec<InvariantViolation>,
        measured: u64,
    }

    const INTERVAL: u64 = 2_000;

    /// Drains every channel after each slice, flushes the windows at
    /// the end, and runs one further *reference* slice so any hidden
    /// state divergence surfaces in its stats.
    fn observe(
        mut session: ChipSession,
        mut step: impl FnMut(&mut ChipSession, u64) -> SliceStats,
        lengths: &[u64],
    ) -> (Observed, ChipSession) {
        let mut obs = Observed {
            stats: Vec::new(),
            crossings: Vec::new(),
            windows: Vec::new(),
            reports: Vec::new(),
            violations: Vec::new(),
            measured: 0,
        };
        for &cycles in lengths {
            obs.stats.push(step(&mut session, cycles));
            obs.crossings.extend(session.take_droop_crossings());
            obs.windows.extend(session.take_droop_windows());
            obs.reports.push(session.invariant_report());
            obs.violations.extend(session.take_invariant_violations());
        }
        obs.windows.extend(session.flush_droop_windows());
        let mut a0 = IdleLoop::new(11);
        let mut a1 = IdleLoop::new(12);
        let mut tail: Vec<&mut dyn StimulusSource> = vec![&mut a0, &mut a1];
        obs.stats
            .push(session.run_slice(&mut tail, INTERVAL).unwrap());
        obs.measured = session.measured_cycles();
        (obs, session)
    }

    /// Drives the same seeded workload/idle pair through the reference
    /// slice loop and the fused kernel under every channel combination
    /// and asserts every observable is bit-identical: slice stats, droop
    /// crossings, waveform windows (flushed and truncated ones
    /// included), invariant reports and violations, the final
    /// `RunStats` and the full chip electrical state.
    #[test]
    fn fast_slices_match_reference_slices_bits() {
        let w = by_name("482.sphinx3").unwrap();
        let aligned = [INTERVAL; 12];
        // Unaligned lengths straddle interval boundaries both ways.
        let ragged = [1_500, 2_000, 700, 3_800, 2_000, 1, 4_000, 999];

        let run_reference = |arm: Arm, lengths: &[u64]| {
            let mut s = w.stream(7, INTERVAL);
            s.set_looping(true);
            let mut idle = IdleLoop::new(3);
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
            let mut session = ChipSession::begin(chip(), &mut warm, INTERVAL).unwrap();
            arm.apply(&mut session);
            let step = |session: &mut ChipSession, cycles| {
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s, &mut idle];
                session.run_slice(&mut sources, cycles).unwrap()
            };
            observe(session, step, lengths)
        };
        let run_fast = |arm: Arm, lengths: &[u64]| {
            let mut s = w.stream(7, INTERVAL);
            s.set_looping(true);
            let mut idle = IdleLoop::new(3);
            let mut i0 = IdleLoop::new(0);
            let mut i1 = IdleLoop::new(1);
            let mut session = if arm.run_stats() {
                let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
                ChipSession::begin(chip(), &mut warm, INTERVAL).unwrap()
            } else {
                ChipSession::begin_fast(
                    chip(),
                    || StimulusSource::next(&mut i0),
                    || StimulusSource::next(&mut i1),
                    INTERVAL,
                )
                .unwrap()
            };
            arm.apply(&mut session);
            let step = |session: &mut ChipSession, cycles| {
                if lengths == &aligned[..] {
                    // Hoist the mix exactly the way the serving shard
                    // does (valid for whole aligned intervals only).
                    let mix = s.current_prepared();
                    session
                        .run_slice_fast(
                            || s.step_prepared(&mix),
                            || StimulusSource::next(&mut idle),
                            cycles,
                        )
                        .unwrap()
                } else {
                    session
                        .run_slice_fast(
                            || StimulusSource::next(&mut s),
                            || StimulusSource::next(&mut idle),
                            cycles,
                        )
                        .unwrap()
                }
            };
            observe(session, step, lengths)
        };

        let arms = [
            Arm::Plain,
            Arm::Crossings,
            Arm::Window(80),
            Arm::Window(3_000),
            Arm::Invariants(false),
            Arm::Invariants(true),
            Arm::RunStats,
            Arm::Everything,
        ];
        for lengths in [&aligned[..], &ragged[..]] {
            for arm in arms {
                let (reference, ref_session) = run_reference(arm, lengths);
                let (fast, fast_session) = run_fast(arm, lengths);
                assert_eq!(reference, fast, "{arm:?} over {lengths:?} diverged");
                assert_eq!(fast_session.kernel_fallback_slices(), 0);
                assert_chip_state_eq(ref_session.chip(), fast_session.chip());
                let (ref_stats, fast_stats) = (ref_session.finish(), fast_session.finish());
                if arm.run_stats() {
                    assert_eq!(ref_stats, fast_stats, "{arm:?}: RunStats diverged");
                } else {
                    assert_eq!(ref_stats.cycles, fast_stats.cycles);
                    assert_eq!(ref_stats.droops, fast_stats.droops);
                    assert_eq!(
                        ref_stats.droops_per_interval,
                        fast_stats.droops_per_interval
                    );
                    assert_eq!(ref_stats.core_counters, fast_stats.core_counters);
                }
                // The scenario must exercise what it claims to.
                match arm {
                    Arm::Crossings => assert!(!reference.crossings.is_empty()),
                    Arm::Window(3_000) => {
                        assert!(reference.windows.iter().any(|w| w.truncated));
                        assert!(reference.windows.iter().any(|w| !w.truncated));
                    }
                    Arm::Window(_) => assert!(!reference.windows.is_empty()),
                    Arm::Invariants(true) => assert!(!reference.violations.is_empty()),
                    Arm::Invariants(false) => assert!(reference.violations.is_empty()),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn only_unsupported_chip_shapes_fall_back_to_reference() {
        // Unaligned and windowed slices run fused on the platform chip…
        let mut i0 = IdleLoop::new(0);
        let mut i1 = IdleLoop::new(1);
        let mut session = ChipSession::begin_fast(
            chip(),
            || StimulusSource::next(&mut i0),
            || StimulusSource::next(&mut i1),
            2_000,
        )
        .unwrap();
        session.enable_profiling(2.5, WindowConfig::default());
        session.enable_invariants(InvariantConfig::default());
        let mut a = IdleLoop::new(2);
        let mut b = IdleLoop::new(3);
        for cycles in [1_000, 2_000, 3_000] {
            let s = session
                .run_slice_fast(
                    || StimulusSource::next(&mut a),
                    || StimulusSource::next(&mut b),
                    cycles,
                )
                .unwrap();
            assert_eq!(s.cycles, cycles);
        }
        assert_eq!(session.kernel_fallback_slices(), 0);
        assert!(matches!(session.fast, FastKernel::Ready(_)));

        // …while a two-core chip whose ripple period is too long to
        // tabulate runs the reference loop, every slice counted, and
        // the verdict is resolved once rather than rebuilt per slice.
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.ripple = VrmRipple::new(cfg.ripple.amplitude(), MAX_RIPPLE_TABLE + 1);
        assert!(FastCache::build(&Chip::new(cfg.clone()).unwrap()).is_none());
        let mut w0 = IdleLoop::new(4);
        let mut w1 = IdleLoop::new(5);
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
        let mut odd = ChipSession::begin(Chip::new(cfg).unwrap(), &mut warm, 2_000).unwrap();
        assert!(matches!(odd.fast, FastKernel::Untried));
        for _ in 0..3 {
            odd.run_slice_fast(
                || StimulusSource::next(&mut a),
                || StimulusSource::next(&mut b),
                2_000,
            )
            .unwrap();
            assert!(matches!(odd.fast, FastKernel::Unsupported));
        }
        assert_eq!(odd.kernel_fallback_slices(), 3);
        assert_eq!(odd.measured_cycles(), 6_000);
    }

    fn assert_chip_state_eq(a: &Chip, b: &Chip) {
        assert_eq!(a.cycle, b.cycle, "cycle counter diverged");
        assert_eq!(a.vs.to_bits(), b.vs.to_bits(), "regulator vs diverged");
        assert_eq!(a.i_avg.to_bits(), b.i_avg.to_bits(), "i_avg diverged");
        assert_eq!(a.last_v.to_bits(), b.last_v.to_bits(), "last_v diverged");
        for (xa, xb) in a.pdn.state().iter().zip(b.pdn.state()) {
            assert_eq!(xa.to_bits(), xb.to_bits(), "PDN state diverged");
        }
        assert_eq!(a.core_counters(), b.core_counters(), "counters diverged");
        for core in 0..2 {
            assert_eq!(
                a.cores()[core].current().to_bits(),
                b.cores()[core].current().to_bits(),
                "core {core} current diverged"
            );
        }
    }
}
