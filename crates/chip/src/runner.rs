//! Workload runners: the building blocks for single-threaded,
//! multi-threaded and multi-program (pair) measurements.

use crate::batch::ChipBatch;
use crate::chip::{Chip, ChipConfig};
use crate::fidelity::Fidelity;
use crate::session::{DroopCrossing, MeasureState, NoHook};
use crate::stats::RunStats;
use crate::window::{DroopWindow, WindowConfig};
use crate::ChipError;
use vsmooth_uarch::{IdleLoop, StimulusSource};
use vsmooth_workload::{Threading, Workload};

/// Anything a runner can obtain fresh chips from: a plain
/// [`ChipConfig`] (full setup per run) or a [`ChipBatch`] (one-time
/// setup amortized across runs). Campaign-scale sweeps should pass a
/// batch; one-off measurements a config. Both produce byte-identical
/// runs.
pub trait ChipSource {
    /// The configuration every built chip will carry.
    fn chip_config(&self) -> &ChipConfig;

    /// Builds one fresh chip at the settled idle operating point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::new`].
    fn build_chip(&self) -> Result<Chip, ChipError>;
}

impl ChipSource for ChipConfig {
    fn chip_config(&self) -> &ChipConfig {
        self
    }

    fn build_chip(&self) -> Result<Chip, ChipError> {
        Chip::new(self.clone())
    }
}

impl ChipSource for ChipBatch {
    fn chip_config(&self) -> &ChipConfig {
        self.config()
    }

    fn build_chip(&self) -> Result<Chip, ChipError> {
        Ok(self.build())
    }
}

impl<T: ChipSource + ?Sized> ChipSource for &T {
    fn chip_config(&self) -> &ChipConfig {
        (**self).chip_config()
    }

    fn build_chip(&self) -> Result<Chip, ChipError> {
        (**self).build_chip()
    }
}

/// How much per-event instrumentation a runner-level measurement
/// carries along.
#[derive(Debug, Clone, Copy)]
enum Instrument {
    /// Aggregate statistics only.
    Plain,
    /// Timestamped droop crossings at the given margin.
    Logged(f64),
    /// Crossings plus a triggered waveform window per crossing.
    Profiled(f64, WindowConfig),
}

impl Instrument {
    /// Switches on the capture channels this instrument needs.
    fn arm(self, state: &mut MeasureState, chip: &Chip) {
        match self {
            Instrument::Plain => {}
            Instrument::Logged(margin) => state.enable_droop_capture(margin),
            Instrument::Profiled(margin, window) => {
                state.enable_window_capture(chip, margin, window);
            }
        }
    }
}

type Outputs = (RunStats, Vec<DroopCrossing>, Vec<DroopWindow>);

/// Measures a two-core run with concretely typed sources, so the
/// fused kernel inlines their stepping (no `&mut dyn` per cycle).
fn run_two<A: StimulusSource, B: StimulusSource>(
    chip: &mut Chip,
    a: &mut A,
    b: &mut B,
    total: u64,
    cpi: u64,
    instrument: Instrument,
) -> Result<Outputs, ChipError> {
    let arm = |state: &mut MeasureState, chip: &Chip| instrument.arm(state, chip);
    let state = chip.measure(|| a.next(), || b.next(), total, cpi, arm, &mut NoHook)?;
    Ok(state.into_outputs(chip))
}

/// Measures a run on a chip of any core count.
fn run_any(
    chip: &mut Chip,
    sources: &mut [&mut dyn StimulusSource],
    total: u64,
    cpi: u64,
    instrument: Instrument,
) -> Result<Outputs, ChipError> {
    let arm = |state: &mut MeasureState, chip: &Chip| instrument.arm(state, chip);
    let state = chip.measure_dyn(sources, total, cpi, arm, &mut NoHook)?;
    Ok(state.into_outputs(chip))
}

/// Runs one workload to completion on the chip.
///
/// Single-threaded workloads occupy core 0 while the other cores idle;
/// multi-threaded workloads put one stream instance on every core.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn run_workload(
    cfg: &impl ChipSource,
    workload: &Workload,
    fidelity: Fidelity,
) -> Result<RunStats, ChipError> {
    run_workload_inner(cfg, workload, fidelity, Instrument::Plain).map(|(stats, _, _)| stats)
}

/// Like [`run_workload`], but also returns every droop event at the
/// given margin as a timestamped [`DroopCrossing`] log.
///
/// # Errors
///
/// Same conditions as [`run_workload`].
pub fn run_workload_logged(
    cfg: &impl ChipSource,
    workload: &Workload,
    fidelity: Fidelity,
    margin_pct: f64,
) -> Result<(RunStats, Vec<DroopCrossing>), ChipError> {
    run_workload_inner(cfg, workload, fidelity, Instrument::Logged(margin_pct))
        .map(|(stats, crossings, _)| (stats, crossings))
}

/// Like [`run_workload_logged`], but every crossing additionally
/// freezes a triggered pre/post waveform [`DroopWindow`] shaped by
/// `window` — the capture an attribution profiler consumes.
///
/// # Errors
///
/// Same conditions as [`run_workload`].
pub fn run_workload_profiled(
    cfg: &impl ChipSource,
    workload: &Workload,
    fidelity: Fidelity,
    margin_pct: f64,
    window: WindowConfig,
) -> Result<(RunStats, Vec<DroopCrossing>, Vec<DroopWindow>), ChipError> {
    run_workload_inner(
        cfg,
        workload,
        fidelity,
        Instrument::Profiled(margin_pct, window),
    )
}

fn run_workload_inner(
    cfg: &impl ChipSource,
    workload: &Workload,
    fidelity: Fidelity,
    instrument: Instrument,
) -> Result<Outputs, ChipError> {
    fidelity.validate()?;
    let cpi = fidelity.cycles_per_interval();
    let total = u64::from(workload.total_intervals()) * cpi;
    let num_cores = cfg.chip_config().num_cores;
    let mut chip = cfg.build_chip()?;
    match (workload.threading(), num_cores) {
        (Threading::Single, 2) => {
            let mut stream = workload.stream(0, cpi);
            let mut idle = IdleLoop::default();
            run_two(&mut chip, &mut stream, &mut idle, total, cpi, instrument)
        }
        (Threading::Multi, 2) => {
            let mut s0 = workload.stream(0, cpi);
            let mut s1 = workload.stream(1, cpi);
            run_two(&mut chip, &mut s0, &mut s1, total, cpi, instrument)
        }
        (Threading::Single, _) => {
            let mut stream = workload.stream(0, cpi);
            let mut idles: Vec<IdleLoop> = (1..num_cores).map(|_| IdleLoop::default()).collect();
            let mut sources: Vec<&mut dyn StimulusSource> = Vec::with_capacity(num_cores);
            sources.push(&mut stream);
            sources.extend(idles.iter_mut().map(|i| i as &mut dyn StimulusSource));
            run_any(&mut chip, &mut sources, total, cpi, instrument)
        }
        (Threading::Multi, _) => {
            let mut streams: Vec<_> = (0..num_cores as u64)
                .map(|i| workload.stream(i, cpi))
                .collect();
            let mut sources: Vec<&mut dyn StimulusSource> = streams
                .iter_mut()
                .map(|s| s as &mut dyn StimulusSource)
                .collect();
            run_any(&mut chip, &mut sources, total, cpi, instrument)
        }
    }
}

/// Runs a multi-program pair `(a, b)` with `a` on core 0 and `b` on
/// core 1 until the longer program finishes; the shorter restarts as
/// needed so both cores stay busy (the SPECrate-style methodology of
/// the paper's 29 × 29 sweep).
///
/// # Errors
///
/// Returns [`ChipError::InvalidConfig`] unless the chip has exactly two
/// cores, plus any chip run error.
pub fn run_pair(
    cfg: &impl ChipSource,
    a: &Workload,
    b: &Workload,
    fidelity: Fidelity,
) -> Result<RunStats, ChipError> {
    run_pair_inner(cfg, a, b, fidelity, Instrument::Plain).map(|(stats, _, _)| stats)
}

/// Like [`run_pair`], but also returns every droop event at the given
/// margin as a timestamped [`DroopCrossing`] log.
///
/// # Errors
///
/// Same conditions as [`run_pair`].
pub fn run_pair_logged(
    cfg: &impl ChipSource,
    a: &Workload,
    b: &Workload,
    fidelity: Fidelity,
    margin_pct: f64,
) -> Result<(RunStats, Vec<DroopCrossing>), ChipError> {
    run_pair_inner(cfg, a, b, fidelity, Instrument::Logged(margin_pct))
        .map(|(stats, crossings, _)| (stats, crossings))
}

/// Like [`run_pair_logged`], but every crossing additionally freezes a
/// triggered pre/post waveform [`DroopWindow`] shaped by `window`.
///
/// # Errors
///
/// Same conditions as [`run_pair`].
pub fn run_pair_profiled(
    cfg: &impl ChipSource,
    a: &Workload,
    b: &Workload,
    fidelity: Fidelity,
    margin_pct: f64,
    window: WindowConfig,
) -> Result<(RunStats, Vec<DroopCrossing>, Vec<DroopWindow>), ChipError> {
    run_pair_inner(
        cfg,
        a,
        b,
        fidelity,
        Instrument::Profiled(margin_pct, window),
    )
}

fn run_pair_inner(
    cfg: &impl ChipSource,
    a: &Workload,
    b: &Workload,
    fidelity: Fidelity,
    instrument: Instrument,
) -> Result<Outputs, ChipError> {
    if cfg.chip_config().num_cores != 2 {
        return Err(ChipError::InvalidConfig(
            "pair runs require a two-core chip",
        ));
    }
    fidelity.validate()?;
    let cpi = fidelity.cycles_per_interval();
    let intervals = workload_pair_intervals(a, b);
    let total = u64::from(intervals) * cpi;
    let mut chip = cfg.build_chip()?;
    // Distinct instances so two copies of the same program do not
    // phase-lock (the paper's SPECrate runs are separate processes).
    let mut sa = a.stream(0, cpi);
    let mut sb = b.stream(1, cpi);
    sa.set_looping(true);
    sb.set_looping(true);
    run_two(&mut chip, &mut sa, &mut sb, total, cpi, instrument)
}

/// Duration (in intervals) of a pair run: the longer program's length.
pub fn workload_pair_intervals(a: &Workload, b: &Workload) -> u32 {
    a.total_intervals().max(b.total_intervals())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    fn cfg() -> ChipConfig {
        ChipConfig::core2_duo(DecapConfig::proc100())
    }

    #[test]
    fn single_threaded_run_completes() {
        let w = by_name("456.hmmer").unwrap();
        let stats = run_workload(&cfg(), &w, Fidelity::Custom(2_000)).unwrap();
        assert_eq!(stats.droops_per_interval.len() as u32, w.total_intervals());
        assert!(stats.ipc() > 0.0);
        // Core 1 idles: only OS background bursts commit there.
        assert!(
            stats.core_counters[1].instructions() < 0.05 * stats.core_counters[0].instructions(),
            "idle core committed {} vs busy {}",
            stats.core_counters[1].instructions(),
            stats.core_counters[0].instructions()
        );
    }

    #[test]
    fn multithreaded_run_uses_both_cores() {
        let w = by_name("canneal").unwrap();
        let stats = run_workload(&cfg(), &w, Fidelity::Custom(2_000)).unwrap();
        assert!(stats.core_counters[0].instructions() > 0.0);
        assert!(stats.core_counters[1].instructions() > 0.0);
    }

    #[test]
    fn pair_run_lasts_as_long_as_the_longer_program() {
        let a = by_name("473.astar").unwrap(); // 9 intervals
        let b = by_name("429.mcf").unwrap(); // 22 intervals
        let stats = run_pair(&cfg(), &a, &b, Fidelity::Custom(1_000)).unwrap();
        assert_eq!(stats.droops_per_interval.len() as u32, 22);
        assert!(stats.core_counters[0].instructions() > 0.0);
        assert!(stats.core_counters[1].instructions() > 0.0);
    }

    #[test]
    fn noisy_workload_droops_more_than_quiet_one() {
        let quiet = by_name("453.povray").unwrap();
        let noisy = by_name("482.sphinx3").unwrap();
        let f = Fidelity::Custom(4_000);
        let q = run_workload(&cfg(), &quiet, f).unwrap();
        let n = run_workload(&cfg(), &noisy, f).unwrap();
        assert!(
            n.droops_per_kilocycle(2.3) > q.droops_per_kilocycle(2.3),
            "sphinx {:.1} vs povray {:.1} droops/kcycle",
            n.droops_per_kilocycle(2.3),
            q.droops_per_kilocycle(2.3)
        );
    }

    #[test]
    fn logged_runs_match_plain_runs() {
        let w = by_name("482.sphinx3").unwrap();
        let f = Fidelity::Custom(2_000);
        let plain = run_workload(&cfg(), &w, f).unwrap();
        let (logged, crossings) = run_workload_logged(&cfg(), &w, f, 2.5).unwrap();
        assert_eq!(plain.droops, logged.droops);
        assert_eq!(plain.core_counters, logged.core_counters);
        assert_eq!(crossings.len() as u64, logged.emergencies(2.5));
    }

    #[test]
    fn logged_pair_run_returns_crossings() {
        let a = by_name("482.sphinx3").unwrap();
        let b = by_name("429.mcf").unwrap();
        let (stats, crossings) =
            run_pair_logged(&cfg(), &a, &b, Fidelity::Custom(1_000), 2.5).unwrap();
        assert_eq!(crossings.len() as u64, stats.emergencies(2.5));
        for ev in &crossings {
            assert!(ev.cycle < stats.cycles);
            assert!(ev.depth_pct >= 2.5);
        }
    }

    #[test]
    fn profiled_runs_match_logged_runs() {
        let w = by_name("482.sphinx3").unwrap();
        let f = Fidelity::Custom(2_000);
        let (logged, crossings) = run_workload_logged(&cfg(), &w, f, 2.5).unwrap();
        let (profiled, pcrossings, windows) =
            run_workload_profiled(&cfg(), &w, f, 2.5, WindowConfig::default()).unwrap();
        assert_eq!(logged, profiled);
        assert_eq!(crossings, pcrossings);
        assert_eq!(windows.len(), crossings.len());
        assert_eq!(windows.len() as u64, profiled.emergencies(2.5));
    }

    #[test]
    fn profiled_pair_run_returns_windows() {
        let a = by_name("482.sphinx3").unwrap();
        let b = by_name("429.mcf").unwrap();
        let (stats, crossings, windows) = run_pair_profiled(
            &cfg(),
            &a,
            &b,
            Fidelity::Custom(1_000),
            2.5,
            WindowConfig::default(),
        )
        .unwrap();
        assert_eq!(crossings.len(), windows.len());
        assert_eq!(windows.len() as u64, stats.emergencies(2.5));
        for (win, crossing) in windows.iter().zip(&crossings) {
            assert_eq!(win.trigger_cycle, crossing.cycle);
        }
    }

    #[test]
    fn batched_source_matches_config_source() {
        let batch = ChipBatch::new(cfg()).unwrap();
        let w = by_name("482.sphinx3").unwrap();
        let f = Fidelity::Custom(1_500);
        assert_eq!(
            run_workload(&cfg(), &w, f).unwrap(),
            run_workload(&batch, &w, f).unwrap()
        );
        let b = by_name("429.mcf").unwrap();
        assert_eq!(
            run_pair_logged(&cfg(), &w, &b, f, 2.5).unwrap(),
            run_pair_logged(&batch, &w, &b, f, 2.5).unwrap()
        );
    }

    /// The one-shot runs exactly as they ran before the fused kernel:
    /// warm-up, arm and measure on the reference loop.
    fn reference(
        cfg: &ChipConfig,
        sources: &mut [&mut dyn StimulusSource],
        total: u64,
        cpi: u64,
        instrument: Instrument,
    ) -> Outputs {
        let mut chip = Chip::new(cfg.clone()).unwrap();
        let arm = |state: &mut MeasureState, chip: &Chip| instrument.arm(state, chip);
        let state = chip
            .measure_reference(sources, total, cpi, arm, &mut NoHook)
            .unwrap();
        state.into_outputs(&chip)
    }

    #[test]
    fn runner_entry_points_match_the_reference_loop_bits() {
        let f = Fidelity::Custom(1_000);
        let cpi = f.cycles_per_interval();
        let sphinx = by_name("482.sphinx3").unwrap();
        let canneal = by_name("canneal").unwrap();
        let mcf = by_name("429.mcf").unwrap();
        let window = WindowConfig {
            pre_cycles: 48,
            post_cycles: 400,
            capture_currents: true,
        };
        for cfg in [
            ChipConfig::core2_duo(DecapConfig::proc100()),
            ChipConfig::core2_duo(DecapConfig::proc3()),
        ] {
            for instrument in [
                Instrument::Plain,
                Instrument::Logged(2.5),
                Instrument::Profiled(2.5, window),
            ] {
                // Single-threaded: the program on core 0, idle core 1.
                let total = u64::from(sphinx.total_intervals()) * cpi;
                let mut stream = sphinx.stream(0, cpi);
                let mut idle = IdleLoop::default();
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut stream, &mut idle];
                let single = reference(&cfg, &mut sources, total, cpi, instrument);
                // Multi-threaded: one instance per core.
                let total = u64::from(canneal.total_intervals()) * cpi;
                let mut s0 = canneal.stream(0, cpi);
                let mut s1 = canneal.stream(1, cpi);
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s0, &mut s1];
                let multi = reference(&cfg, &mut sources, total, cpi, instrument);
                // Pair: both programs looping until the longer ends.
                let total = u64::from(workload_pair_intervals(&sphinx, &mcf)) * cpi;
                let mut sa = sphinx.stream(0, cpi);
                let mut sb = mcf.stream(1, cpi);
                sa.set_looping(true);
                sb.set_looping(true);
                let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut sa, &mut sb];
                let pair = reference(&cfg, &mut sources, total, cpi, instrument);

                match instrument {
                    Instrument::Plain => {
                        assert_eq!(run_workload(&cfg, &sphinx, f).unwrap(), single.0);
                        assert_eq!(run_workload(&cfg, &canneal, f).unwrap(), multi.0);
                        assert_eq!(run_pair(&cfg, &sphinx, &mcf, f).unwrap(), pair.0);
                    }
                    Instrument::Logged(m) => {
                        let logged = |o: Outputs| (o.0, o.1);
                        assert_eq!(
                            run_workload_logged(&cfg, &sphinx, f, m).unwrap(),
                            logged(single)
                        );
                        assert_eq!(
                            run_workload_logged(&cfg, &canneal, f, m).unwrap(),
                            logged(multi)
                        );
                        let (stats, crossings) = logged(pair);
                        assert!(!crossings.is_empty(), "the pair must droop past 2.5%");
                        assert_eq!(
                            run_pair_logged(&cfg, &sphinx, &mcf, f, m).unwrap(),
                            (stats, crossings)
                        );
                    }
                    Instrument::Profiled(m, w) => {
                        assert_eq!(
                            run_workload_profiled(&cfg, &sphinx, f, m, w).unwrap(),
                            single
                        );
                        assert_eq!(
                            run_workload_profiled(&cfg, &canneal, f, m, w).unwrap(),
                            multi
                        );
                        assert!(!pair.2.is_empty(), "the pair must freeze windows");
                        assert_eq!(
                            run_pair_profiled(&cfg, &sphinx, &mcf, f, m, w).unwrap(),
                            pair
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_custom_fidelity_is_a_typed_error() {
        let w = by_name("473.astar").unwrap();
        assert!(matches!(
            run_workload(&cfg(), &w, Fidelity::Custom(0)),
            Err(ChipError::InvalidConfig(_))
        ));
        assert!(matches!(
            run_pair(&cfg(), &w, &w, Fidelity::Custom(0)),
            Err(ChipError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pair_run_requires_two_cores() {
        let mut c = cfg();
        c.num_cores = 1;
        let a = by_name("473.astar").unwrap();
        assert!(run_pair(&c, &a, &a, Fidelity::Test).is_err());
    }
}
