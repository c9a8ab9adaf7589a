//! The multi-core chip: cores on a shared power supply.
//!
//! "Individual cores within the processor typically share a single
//! power supply source. Therefore, a transient voltage droop anywhere
//! on the shared power grid could inadvertently affect all cores."
//! (Sec. III-C.) The chip sums per-core current draws into the PDN
//! model and senses the resulting die voltage every cycle.

use crate::fastpath::{run_fused, warm_up_fast, FastCache, FnSource};
use crate::session::{CycleHook, DroopCrossing, MeasureState, NoHook, TraceHook};
use crate::stats::RunStats;
use crate::window::{DroopWindow, WindowConfig};
use crate::ChipError;
use serde::{Deserialize, Serialize};
use vsmooth_pdn::{DecapConfig, DiscreteStateSpace, LadderConfig, VrmRipple};
use vsmooth_uarch::{Core, CoreConfig, CycleStimulus, StimulusSource};

/// The VRM's DC regulation behaviour (Intel VRD 11.0-style remote
/// sensing with a load-line).
///
/// The regulator's control loop (bandwidth tens of kHz) trims the
/// source voltage so the *average* die voltage tracks
/// `V_nominal − offset − R_LL · I_avg`. Fast noise passes through
/// untouched; slow IR differences between workloads are largely
/// regulated out. This is why the paper can use one fixed 2.3 %
/// characterization margin across programs whose average power differs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VrmRegulator {
    /// Static set-point offset below nominal, in volts.
    pub offset_volts: f64,
    /// Load-line slope in ohms (die mean falls this much per ampere).
    pub load_line_ohms: f64,
    /// Integral gain per cycle (sets the ~50 kHz loop bandwidth).
    pub gain: f64,
    /// EMA coefficient for the sensed average current.
    pub current_ema: f64,
}

impl VrmRegulator {
    /// The LGA775 VRD 11.0-like regulator of the paper's platform.
    pub fn vrd11() -> Self {
        Self {
            offset_volts: 17e-3,
            load_line_ohms: 0.40e-3,
            gain: 2e-4,
            current_ema: 2e-4,
        }
    }

    /// No DC regulation (source voltage fixed at nominal) — useful for
    /// ablations.
    pub fn none() -> Self {
        Self {
            offset_volts: 0.0,
            load_line_ohms: 0.0,
            gain: 0.0,
            current_ema: 1e-4,
        }
    }
}

/// Static chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// The power-delivery network.
    pub pdn: LadderConfig,
    /// Per-core parameters (homogeneous cores).
    pub core: CoreConfig,
    /// Number of cores sharing the supply.
    pub num_cores: usize,
    /// Regulator switching ripple superimposed on the source.
    pub ripple: VrmRipple,
    /// Regulator DC behaviour (load-line + slow trim loop).
    pub regulator: VrmRegulator,
    /// Core clock in hertz (sets the PDN discretization step).
    pub clock_hz: f64,
    /// Cycles simulated before measurement starts (settles the initial
    /// activity ramp so it is not recorded as an artificial droop).
    pub warmup_cycles: u64,
}

impl ChipConfig {
    /// The paper's platform: a two-core E6300 at 1.86 GHz with the
    /// given package-decap configuration.
    pub fn core2_duo(decap: DecapConfig) -> Self {
        Self {
            pdn: LadderConfig::core2_duo(decap),
            core: CoreConfig::core2_duo(),
            num_cores: 2,
            ripple: VrmRipple::core2_duo(),
            regulator: VrmRegulator::vrd11(),
            clock_hz: 1.86e9,
            warmup_cycles: 8_000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] for zero cores or a
    /// non-positive clock.
    pub fn validate(&self) -> Result<(), ChipError> {
        if self.num_cores == 0 {
            return Err(ChipError::InvalidConfig("chip must have at least one core"));
        }
        if !self.clock_hz.is_finite() || self.clock_hz <= 0.0 {
            return Err(ChipError::InvalidConfig("clock must be positive"));
        }
        Ok(())
    }
}

/// A simulated multi-core chip with shared PDN and per-cycle sensing.
///
/// # Examples
///
/// ```
/// use vsmooth_chip::{Chip, ChipConfig};
/// use vsmooth_pdn::DecapConfig;
/// use vsmooth_uarch::{IdleLoop, StimulusSource};
///
/// let mut chip = Chip::new(ChipConfig::core2_duo(DecapConfig::proc100()))?;
/// let mut idle0 = IdleLoop::default();
/// let mut idle1 = IdleLoop::default();
/// let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut idle0, &mut idle1];
/// let stats = chip.run(&mut sources, 20_000, 10_000)?;
/// // An idling machine only sees the VRM ripple: a sub-1% swing.
/// assert!(stats.peak_to_peak_pct() < 1.0);
/// # Ok::<(), vsmooth_chip::ChipError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Chip {
    // Fields are crate-visible so the fused fast-slice kernel
    // (`crate::fastpath`) can mirror `step_cycle` without indirection.
    pub(crate) cfg: ChipConfig,
    pub(crate) cores: Vec<Core>,
    pub(crate) pdn: DiscreteStateSpace,
    pub(crate) cycle: u64,
    /// Trimmed source voltage (the regulator's integrator state).
    pub(crate) vs: f64,
    /// Slow EMA of total load current, as the regulator senses it.
    pub(crate) i_avg: f64,
    /// Last sensed die voltage (regulator feedback).
    pub(crate) last_v: f64,
}

impl Chip {
    /// Builds the chip and initializes the PDN at the idle operating
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] or a wrapped PDN error.
    pub fn new(cfg: ChipConfig) -> Result<Self, ChipError> {
        cfg.validate()?;
        let sys = cfg.pdn.state_space()?;
        let mut pdn = sys
            .discretize(1.0 / cfg.clock_hz)
            .ok_or(vsmooth_pdn::PdnError::Singular)?;
        let cores: Vec<Core> = (0..cfg.num_cores).map(|_| Core::new(cfg.core)).collect();
        let idle_current: f64 = cores.iter().map(Core::current).sum();
        // Start at the regulated operating point: the source voltage is
        // pre-trimmed so the die sits at the regulator's target for the
        // idle current (the slow loop then only corrects load changes).
        let vnom = cfg.pdn.nominal_voltage();
        let reg = cfg.regulator;
        let target = vnom - reg.offset_volts - reg.load_line_ohms * idle_current;
        let vs = if reg.gain > 0.0 {
            target + idle_current * cfg.pdn.total_series_resistance()
        } else {
            vnom
        };
        let (x0, y0) = sys
            .steady_state(&[vs, idle_current])
            .ok_or(vsmooth_pdn::PdnError::Singular)?;
        pdn.set_state(&x0);
        Ok(Self {
            cfg,
            cores,
            pdn,
            cycle: 0,
            vs,
            i_avg: idle_current,
            last_v: y0[0],
        })
    }

    /// The chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Nominal supply voltage.
    pub fn nominal_voltage(&self) -> f64 {
        self.cfg.pdn.nominal_voltage()
    }

    /// Advances one cycle with the given per-core stimuli; returns the
    /// sensed die voltage.
    ///
    /// The regulator ripple appears directly in the sensed waveform:
    /// the VRM's control loop imposes its sawtooth across the local
    /// capacitor bank, which is exactly the background waveform the
    /// paper's scope shows in Fig. 11 (injecting it at the remote source
    /// node would be low-pass filtered away by the bulk capacitance and
    /// never reach the die).
    pub(crate) fn step_cycle(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        warmup: bool,
        recovery: bool,
    ) -> f64 {
        let mut total = 0.0;
        for (core, src) in self.cores.iter_mut().zip(sources.iter_mut()) {
            // A rollback pauses the program: the stream is not advanced
            // and the core idle-gates while state is restored.
            let stimulus = if recovery {
                vsmooth_uarch::CycleStimulus::Idle
            } else {
                src.next()
            };
            total += core.tick(stimulus);
        }
        // Slow DC trim: the regulator walks the source voltage toward
        // its load-line target; fast transients pass through untouched.
        // During warm-up the loop is accelerated so measurement starts
        // from the settled operating point a long-running platform
        // would be at (the real loop has had minutes to converge).
        let reg = self.cfg.regulator;
        if reg.gain > 0.0 {
            let boost = if warmup { 50.0 } else { 1.0 };
            self.i_avg += (reg.current_ema * boost).min(0.05) * (total - self.i_avg);
            // Feed-forward trim: cancel the sensed average IR drop and
            // impose the load-line, leaving fast transients untouched.
            // (Open-loop in voltage, so unconditionally stable.)
            let vnom = self.nominal_voltage();
            let r_path = self.cfg.pdn.total_series_resistance();
            self.vs = (vnom - reg.offset_volts + self.i_avg * (r_path - reg.load_line_ohms))
                .clamp(vnom * 0.9, vnom * 1.1);
        }
        let v = self.pdn.step_first(&[self.vs, total]);
        self.last_v = v;
        let ripple = self.cfg.ripple.offset(self.cycle);
        self.cycle += 1;
        v + ripple
    }

    /// Runs `cycles` measured cycles (after the configured warm-up),
    /// collecting statistics with interval boundaries every
    /// `interval_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::SourceCountMismatch`] if the number of
    /// sources differs from the core count, or
    /// [`ChipError::InvalidConfig`] for a zero interval.
    pub fn run(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
    ) -> Result<RunStats, ChipError> {
        let state = self.measure_dyn(sources, cycles, interval_cycles, |_, _| {}, &mut NoHook)?;
        Ok(state.into_stats(self))
    }

    /// Like [`Chip::run`], but additionally captures the raw voltage
    /// waveform of the first `trace_cycles` measured cycles (the
    /// oscilloscope screenshot of Fig. 11).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::run`].
    pub fn run_with_trace(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        trace_cycles: u64,
    ) -> Result<(RunStats, Vec<f64>), ChipError> {
        let mut trace = Vec::with_capacity(trace_cycles.min(cycles) as usize);
        let mut hook = TraceHook {
            buf: &mut trace,
            limit: trace_cycles,
            seen: 0,
        };
        let state = self.measure_dyn(sources, cycles, interval_cycles, |_, _| {}, &mut hook)?;
        Ok((state.into_stats(self), trace))
    }

    /// Like [`Chip::run`], but additionally logs every individual
    /// droop event at the given margin (percent below nominal) as a
    /// [`DroopCrossing`] with its measured-cycle timestamp and depth —
    /// the record an observability layer turns into a typed event log.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::run`].
    pub fn run_with_droop_log(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        margin_pct: f64,
    ) -> Result<(RunStats, Vec<DroopCrossing>), ChipError> {
        let arm = |state: &mut MeasureState, _: &Chip| state.enable_droop_capture(margin_pct);
        let state = self.measure_dyn(sources, cycles, interval_cycles, arm, &mut NoHook)?;
        let (stats, crossings, _) = state.into_outputs(self);
        Ok((stats, crossings))
    }

    /// Like [`Chip::run_with_droop_log`], but every crossing
    /// additionally freezes a triggered pre/post waveform
    /// [`DroopWindow`] shaped by `window`: per-cycle voltage deviation
    /// and per-core current around the trigger, the counter deltas over
    /// the window and the stall events inside it — the raw material for
    /// droop root-cause attribution (`vsmooth-profile`).
    ///
    /// Windows still collecting their tail when the run ends are
    /// force-finalized (marked [`truncated`](DroopWindow::truncated)),
    /// so exactly one window per crossing is returned.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::run`].
    pub fn run_with_droop_windows(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        margin_pct: f64,
        window: WindowConfig,
    ) -> Result<(RunStats, Vec<DroopCrossing>, Vec<DroopWindow>), ChipError> {
        let arm = |state: &mut MeasureState, chip: &Chip| {
            state.enable_window_capture(chip, margin_pct, window);
        };
        let state = self.measure_dyn(sources, cycles, interval_cycles, arm, &mut NoHook)?;
        Ok(state.into_outputs(self))
    }

    /// The one-shot measurement path behind every `run*` entry point
    /// over a source slice: a two-source slice becomes a closure pair
    /// for [`Chip::measure`]; any other count runs the reference loop
    /// (which rejects a count that does not match the cores).
    pub(crate) fn measure_dyn<H: CycleHook>(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        arm: impl FnOnce(&mut MeasureState, &Chip),
        hook: &mut H,
    ) -> Result<MeasureState, ChipError> {
        match sources {
            [a, b] => self.measure(|| a.next(), || b.next(), cycles, interval_cycles, arm, hook),
            _ => self.measure_reference(sources, cycles, interval_cycles, arm, hook),
        }
    }

    /// Warms up under the two sources, lets `arm` switch on capture
    /// channels, and measures `cycles` cycles — through the fused
    /// kernel (`crate::fastpath`) when the chip's shape qualifies, the
    /// reference loop otherwise. Both produce the same bits.
    pub(crate) fn measure<S0, S1, H>(
        &mut self,
        mut s0: S0,
        mut s1: S1,
        cycles: u64,
        interval_cycles: u64,
        arm: impl FnOnce(&mut MeasureState, &Chip),
        hook: &mut H,
    ) -> Result<MeasureState, ChipError>
    where
        S0: FnMut() -> CycleStimulus + Send,
        S1: FnMut() -> CycleStimulus + Send,
        H: CycleHook,
    {
        self.check_sources(2)?;
        if interval_cycles == 0 {
            return Err(ChipError::InvalidConfig("interval_cycles must be non-zero"));
        }
        let Some(cache) = FastCache::build(self) else {
            let mut w0 = FnSource(s0);
            let mut w1 = FnSource(s1);
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut w0, &mut w1];
            return self.measure_reference(&mut sources, cycles, interval_cycles, arm, hook);
        };
        warm_up_fast(self, &cache, &mut s0, &mut s1);
        let mut state = MeasureState::new(self, interval_cycles);
        arm(&mut state, self);
        run_fused(self, &mut state, &cache, s0, s1, hook, cycles);
        Ok(state)
    }

    /// [`Chip::measure`] on the reference loop, for chip shapes the
    /// fused kernel is not specialized for (and the tests' oracle).
    pub(crate) fn measure_reference<H: CycleHook>(
        &mut self,
        sources: &mut [&mut dyn StimulusSource],
        cycles: u64,
        interval_cycles: u64,
        arm: impl FnOnce(&mut MeasureState, &Chip),
        hook: &mut H,
    ) -> Result<MeasureState, ChipError> {
        self.check_sources(sources.len())?;
        if interval_cycles == 0 {
            return Err(ChipError::InvalidConfig("interval_cycles must be non-zero"));
        }
        self.warm_up(sources);
        let mut state = MeasureState::new(self, interval_cycles);
        arm(&mut state, self);
        state.run(self, sources, cycles, hook);
        Ok(state)
    }

    /// Validates that `count` stimulus sources match the core count.
    pub(crate) fn check_sources(&self, count: usize) -> Result<(), ChipError> {
        if count != self.cores.len() {
            return Err(ChipError::SourceCountMismatch {
                cores: self.cores.len(),
                sources: count,
            });
        }
        Ok(())
    }

    /// Runs the configured warm-up and resets the performance counters
    /// so measurement starts from the settled operating point.
    pub(crate) fn warm_up(&mut self, sources: &mut [&mut dyn StimulusSource]) {
        for _ in 0..self.cfg.warmup_cycles {
            self.step_cycle(sources, true, false);
        }
        for core in &mut self.cores {
            core.reset_counters();
        }
    }

    /// The most recently sensed die voltage.
    pub(crate) fn last_sensed(&self) -> f64 {
        self.last_v
    }

    /// Snapshot of every core's performance counters.
    pub fn core_counters(&self) -> Vec<vsmooth_uarch::PerfCounters> {
        self.cores.iter().map(|c| *c.counters()).collect()
    }

    /// The cores, read-only: the per-core counters and currents the
    /// window capture and invariant checker sample every cycle.
    pub(crate) fn cores(&self) -> &[Core] {
        &self.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_uarch::{FixedIntensity, IdleLoop, Microbenchmark, SquareWave, StallEvent};

    fn chip() -> Chip {
        Chip::new(ChipConfig::core2_duo(DecapConfig::proc100())).unwrap()
    }

    #[test]
    fn idle_machine_sees_only_ripple() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let stats = c.run(&mut s, 40_000, 20_000).unwrap();
        let ripple_pct = 100.0 * c.cfg.ripple.peak_to_peak() / c.nominal_voltage();
        assert!(stats.peak_to_peak_pct() > 0.5 * ripple_pct);
        assert!(stats.peak_to_peak_pct() < 3.0 * ripple_pct);
        assert_eq!(
            stats.emergencies(2.3),
            0,
            "idle machine must not droop past 2.3%"
        );
    }

    #[test]
    fn source_count_mismatch_is_rejected() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a];
        assert!(matches!(
            c.run(&mut s, 100, 100),
            Err(ChipError::SourceCountMismatch {
                cores: 2,
                sources: 1
            })
        ));
    }

    #[test]
    fn microbenchmark_swings_exceed_idle() {
        let mut c1 = chip();
        let mut idle0 = IdleLoop::default();
        let mut idle1 = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut idle0, &mut idle1];
        let idle = c1.run(&mut s, 60_000, 60_000).unwrap().peak_to_peak_pct();

        let mut c2 = chip();
        let mut micro = Microbenchmark::new(StallEvent::BranchMispredict, 1);
        let mut idle2 = IdleLoop::default();
        let mut s2: Vec<&mut dyn StimulusSource> = vec![&mut micro, &mut idle2];
        let br = c2.run(&mut s2, 60_000, 60_000).unwrap().peak_to_peak_pct();
        assert!(br > 1.3 * idle, "BR swing {br:.3}% vs idle {idle:.3}%");
    }

    #[test]
    fn power_virus_droops_deeper_than_steady_execution() {
        let mut c1 = chip();
        let mut f0 = FixedIntensity::new(1.0);
        let mut f1 = FixedIntensity::new(1.0);
        let mut s1: Vec<&mut dyn StimulusSource> = vec![&mut f0, &mut f1];
        let steady = c1.run(&mut s1, 60_000, 60_000).unwrap();

        let mut c2 = chip();
        let mut v0 = SquareWave::power_virus();
        let mut v1 = SquareWave::power_virus();
        let mut s2: Vec<&mut dyn StimulusSource> = vec![&mut v0, &mut v1];
        let virus = c2.run(&mut s2, 60_000, 60_000).unwrap();
        assert!(
            virus.max_droop_pct() > steady.max_droop_pct() + 1.0,
            "virus {:.2}% vs steady {:.2}%",
            virus.max_droop_pct(),
            steady.max_droop_pct()
        );
    }

    #[test]
    fn interval_timeline_has_expected_length() {
        let mut c = chip();
        let mut a = FixedIntensity::new(0.8);
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let stats = c.run(&mut s, 50_000, 10_000).unwrap();
        assert_eq!(stats.droops_per_interval.len(), 5);
    }

    #[test]
    fn trace_captures_requested_cycles() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        let (_, trace) = c.run_with_trace(&mut s, 10_000, 10_000, 2_500).unwrap();
        assert_eq!(trace.len(), 2_500);
        // All samples near nominal voltage.
        assert!(trace.iter().all(|&v| (v - c.nominal_voltage()).abs() < 0.1));
    }

    #[test]
    fn traced_runs_match_the_reference_loop_bits() {
        let run = |reference: bool| {
            let mut c = chip();
            let mut micro = Microbenchmark::new(StallEvent::TlbMiss, 7);
            let mut idle = IdleLoop::default();
            let mut s: Vec<&mut dyn StimulusSource> = vec![&mut micro, &mut idle];
            if !reference {
                return c.run_with_trace(&mut s, 9_000, 4_000, 5_000).unwrap();
            }
            let mut trace = Vec::new();
            let mut hook = TraceHook {
                buf: &mut trace,
                limit: 5_000,
                seen: 0,
            };
            let state = c
                .measure_reference(&mut s, 9_000, 4_000, |_, _| {}, &mut hook)
                .unwrap();
            (state.into_stats(&c), trace)
        };
        let (ref_stats, ref_trace) = run(true);
        let (stats, trace) = run(false);
        assert_eq!(stats, ref_stats);
        assert_eq!(trace.len(), 5_000);
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&trace), bits(&ref_trace));
    }

    #[test]
    fn zero_interval_is_rejected() {
        let mut c = chip();
        let mut a = IdleLoop::default();
        let mut b = IdleLoop::default();
        let mut s: Vec<&mut dyn StimulusSource> = vec![&mut a, &mut b];
        assert!(c.run(&mut s, 100, 0).is_err());
    }

    #[test]
    fn invalid_chip_configs_are_rejected() {
        let mut cfg = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg.num_cores = 0;
        assert!(Chip::new(cfg).is_err());
        let mut cfg2 = ChipConfig::core2_duo(DecapConfig::proc100());
        cfg2.clock_hz = -1.0;
        assert!(Chip::new(cfg2).is_err());
    }
}
