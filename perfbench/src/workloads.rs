//! The four seeded workloads. Each turns the seed into inputs, builds
//! the program objects (the timed set-up), and runs one closed-loop
//! batch per call: the caller starts the next batch when this one
//! returns.

use std::path::PathBuf;
use std::sync::Arc;

use vsmooth::chip::{ChipBatch, ChipConfig, PHASE_MARGIN_PCT};
use vsmooth::experiments::{ExperimentConfig, Lab};
use vsmooth::fleet::{FleetCampaign, FleetSpec};
use vsmooth::pdn::DecapConfig;
use vsmooth::profile::ProfileConfig;
use vsmooth::resilience::CampaignSpec;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{
    synthetic_jobs, AuditConfig, JobSpec, ObsConfig, RuntimeMode, Service, ServiceConfig,
    ServiceReport, TelemetryHub,
};
use vsmooth::trace::{StreamConfig, Tracer};
use vsmooth::workload::spec2006;

use crate::checks;
use crate::spans::Recorder;
use crate::util::fnv64;

/// Jobs in one `serve*` batch. A seed's stream misses one of the 29
/// catalog programs with probability under 1 %, and a batch is short
/// enough (under a second instrumented, on a 2-core host) that a run
/// takes the median peak memory over about twenty batches.
const SERVE_JOBS: usize = 240;
/// Two-core chips in the service pool; more than any shard count the
/// benchmark uses, so shards own several chips and can steal.
const SERVE_CHIPS: usize = 8;
/// Mean virtual-cycle gap between arrivals. The pool completes about
/// 480 jobs per million cycles while 1 100 arrive, so the virtual
/// admission queue grows over the batch (open loop in virtual time).
const SERVE_INTERARRIVAL: u64 = 900;
/// Fleet size for `fleet_ckpt`: chips × runs per chip. A batch runs
/// for about half a second on a 2-core host, so a run takes the median
/// of about twenty-five batches: batch times spread widely because
/// each checkpoint chunk waits for its longest run.
const FLEET_CHIPS: usize = 16;
const FLEET_RUNS_PER_CHIP: usize = 8;
/// Cycles per measurement interval of a fleet run: ten times the
/// `FleetSpec` default, so simulation rather than the host disk's
/// rename-over-existing-file latency sets most of a batch's time,
/// while the two checkpoints per batch (every 64 runs, the spec
/// default) still show.
const FLEET_FIDELITY: u64 = 4_000;

/// The workload names the command line accepts.
pub const NAMES: [&str; 4] = ["serve", "serve_instrumented", "campaign", "fleet_ckpt"];

/// What one closed-loop batch produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated chip cycles (after each chip's warm-up).
    pub sim_cycles: u64,
    /// Modelled droops per simulated kilocycle.
    pub droops_per_kcycle: f64,
    /// Modelled completed operations per million simulated cycles.
    pub ops_per_mcycle: f64,
    /// Operations attempted and failed (jobs, campaign runs or fleet
    /// runs); a failed output check adds one failure.
    pub ops: u64,
    pub failed: u64,
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// Why checks failed, if any did.
    pub errors: Vec<String>,
}

impl Outcome {
    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// An outcome for a batch the program refused to run.
    fn run_error(ops: u64, e: impl std::fmt::Display) -> Self {
        Self {
            ops,
            failed: ops.max(1),
            errors: vec![format!("run failed: {e}")],
            ..Self::default()
        }
    }
}

/// One workload, set up and ready to run batches.
pub trait Workload {
    /// Runs one batch. With a recorder, every call into a layer's
    /// public functions runs inside a span.
    fn batch(&mut self, rec: Option<&Recorder>) -> Outcome;

    /// Untimed work after set-up that output checks need.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn run_once(&mut self) -> Outcome {
        self.batch(None)
    }
}

/// Calls `f`, inside a span named `name` under the current one when a
/// recorder is given.
fn call<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = rec.map(|r| r.child(name));
    f()
}

/// The `serve*` inputs: the job stream and the chip model.
pub fn serve_jobs(seed: u64) -> Vec<JobSpec> {
    synthetic_jobs(seed, SERVE_JOBS, SERVE_INTERARRIVAL)
}

pub fn serve_chip() -> ChipConfig {
    ChipConfig::core2_duo(DecapConfig::proc3())
}

/// The `serve` configuration: Proc3 pool pinned to the shard runtime,
/// nothing armed.
pub fn serve_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(serve_chip());
    cfg.chips = SERVE_CHIPS;
    cfg.runtime = RuntimeMode::Sharded;
    cfg
}

/// The `serve_instrumented` configuration: `serve` plus the decision
/// audit and obs publishing into `hub`.
pub fn instrumented_config(hub: Arc<TelemetryHub>) -> ServiceConfig {
    let mut cfg = serve_config();
    cfg.audit = Some(AuditConfig::default());
    cfg.obs = Some(ObsConfig::new(hub));
    cfg
}

fn serve_outcome(jobs: &[JobSpec], report: &ServiceReport, extra_digest: &[&str]) -> Outcome {
    let mut text = checks::deterministic_render(report);
    for part in extra_digest {
        text.push_str(part);
    }
    let mut out = Outcome {
        sim_cycles: report.chip_cycles,
        droops_per_kcycle: report.droops_per_kilocycle,
        ops_per_mcycle: report.throughput_jobs_per_mcycle,
        ops: jobs.len() as u64,
        failed: jobs.len().saturating_sub(report.jobs_completed) as u64,
        digest: fnv64(text.as_bytes()),
        errors: Vec::new(),
    };
    if let Err(e) = checks::jobs_complete(jobs, report) {
        // Missing jobs are already counted as failed operations.
        out.errors.push(e);
        out.failed = out.failed.max(1);
    }
    out
}

pub struct Serve {
    jobs: Vec<JobSpec>,
    service: Service,
    shards: usize,
}

impl Serve {
    pub fn setup(seed: u64, shards: usize) -> Self {
        let jobs = serve_jobs(seed);
        let service = Service::new(serve_config()).expect("serve config is valid");
        Self {
            jobs,
            service,
            shards,
        }
    }
}

impl Workload for Serve {
    fn batch(&mut self, rec: Option<&Recorder>) -> Outcome {
        let run = call(rec, "serve.Service::run", || {
            self.service.run(&self.jobs, &OnlineDroop, self.shards)
        });
        match run {
            Ok(report) => serve_outcome(&self.jobs, &report, &[]),
            Err(e) => Outcome::run_error(self.jobs.len() as u64, e),
        }
    }
}

pub struct ServeInstrumented {
    jobs: Vec<JobSpec>,
    service: Service,
    shards: usize,
}

impl ServeInstrumented {
    pub fn setup(seed: u64, shards: usize) -> Self {
        let jobs = serve_jobs(seed);
        let hub = Arc::new(TelemetryHub::new());
        let service = Service::new(instrumented_config(hub)).expect("serve config is valid");
        Self {
            jobs,
            service,
            shards,
        }
    }
}

impl Workload for ServeInstrumented {
    fn batch(&mut self, rec: Option<&Recorder>) -> Outcome {
        let tracer = Tracer::streaming_to_writer(std::io::sink(), StreamConfig::default());
        let run = call(rec, "serve.Service::run_profiled", || {
            self.service.run_profiled(
                &self.jobs,
                &OnlineDroop,
                self.shards,
                &tracer,
                ProfileConfig::default(),
            )
        });
        let stream = call(rec, "trace.Tracer::finish_stream", || {
            tracer.finish_stream()
        })
        .expect("tracer is streaming");
        match run {
            Ok((report, profile)) => {
                let audit = report
                    .audit
                    .as_ref()
                    .map(|a| a.to_json())
                    .unwrap_or_default();
                let mut out = serve_outcome(&self.jobs, &report, &[&profile.to_json(), &audit]);
                out.check(match &stream {
                    Ok(stats) if stats.dropped_total() == 0 => Ok(()),
                    Ok(stats) => Err(format!("trace dropped {} records", stats.dropped_total())),
                    Err(e) => Err(format!("trace stream failed: {e}")),
                });
                out.check(if report.audit.is_some() {
                    Ok(())
                } else {
                    Err("audit armed but no audit report".into())
                });
                out
            }
            Err(e) => Outcome::run_error(self.jobs.len() as u64, e),
        }
    }
}

/// The paper-reproduction configuration: six CPU2006 programs, every
/// single and pair run at 4 000-cycle intervals, 20 random Fig. 18
/// batches.
fn campaign_config(threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.threads = threads;
    cfg
}

pub struct Campaign {
    cfg: ExperimentConfig,
    spec_lens: [usize; 2],
    /// One chip template per decap configuration. Building them checks
    /// each configuration at set-up and makes set-up pay the PDN
    /// discretization that `chip.batch_build_ms` reports.
    _batches: [ChipBatch; 2],
}

const CAMPAIGN_DECAPS: [fn() -> DecapConfig; 2] = [DecapConfig::proc100, DecapConfig::proc3];

impl Campaign {
    pub fn setup(threads: usize) -> Self {
        let cfg = campaign_config(threads);
        let n = cfg.benchmarks.unwrap_or(spec2006().len());
        let spec_len = |decap: DecapConfig| {
            CampaignSpec::reduced(ChipConfig::core2_duo(decap), cfg.fidelity, n).len()
        };
        let batch = |decap: DecapConfig| {
            ChipBatch::new(ChipConfig::core2_duo(decap)).expect("campaign chip builds")
        };
        let [a, b] = CAMPAIGN_DECAPS;
        Self {
            cfg,
            spec_lens: [spec_len(a()), spec_len(b())],
            _batches: [batch(a()), batch(b())],
        }
    }

    pub fn spec_len(&self) -> usize {
        self.spec_lens.iter().sum()
    }
}

/// One full campaign pass: both decap campaigns, then Tab. I and
/// Fig. 18.
fn campaign_pass(cfg: ExperimentConfig, spec_lens: [usize; 2], rec: Option<&Recorder>) -> Outcome {
    let mut lab = Lab::new(cfg);
    let mut out = Outcome {
        ops: spec_lens.iter().sum::<usize>() as u64,
        ..Outcome::default()
    };
    let mut text = String::new();
    let (mut droops, mut runs) = (0u64, 0u64);
    for (decap, want) in CAMPAIGN_DECAPS.iter().zip(spec_lens) {
        let result = match call(rec, "resilience.Lab::campaign", || lab.campaign(decap())) {
            Ok(r) => r,
            Err(e) => return Outcome::run_error(out.ops, e),
        };
        out.check(checks::run_count("campaign", result.runs().len(), want));
        for run in result.runs() {
            let s = &run.stats;
            out.sim_cycles += s.cycles;
            droops += s.emergencies(PHASE_MARGIN_PCT);
            runs += 1;
            text.push_str(&format!(
                "{:?} {} {:?} {:?} {:?}\n",
                run.id, s.cycles, s.droops, s.overshoots, s.core_counters
            ));
        }
    }
    let tab = call(rec, "resilience.Lab::tab01", || lab.tab01());
    let fig = call(rec, "sched.Lab::fig18", || lab.fig18());
    match (tab, fig) {
        (Ok(tab), Ok(fig)) => text.push_str(&format!("{tab:?}\n{fig:?}\n")),
        (Err(e), _) | (_, Err(e)) => return Outcome::run_error(out.ops, e),
    }
    let mcycles = out.sim_cycles as f64 / 1e6;
    out.droops_per_kcycle = droops as f64 * 1000.0 / out.sim_cycles.max(1) as f64;
    out.ops_per_mcycle = runs as f64 / mcycles.max(f64::MIN_POSITIVE);
    out.digest = fnv64(text.as_bytes());
    out
}

impl Workload for Campaign {
    fn batch(&mut self, rec: Option<&Recorder>) -> Outcome {
        campaign_pass(self.cfg, self.spec_lens, rec)
    }
}

pub fn fleet_spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::new(seed, FLEET_CHIPS, FLEET_RUNS_PER_CHIP);
    spec.fidelity = vsmooth::chip::Fidelity::Custom(FLEET_FIDELITY);
    spec
}

/// A fleet report's simulated totals as an outcome.
fn fleet_outcome(report: &vsmooth::fleet::FleetReport, ops: u64) -> Outcome {
    let cycles: u64 = report.chips.iter().map(|c| c.cycles).sum();
    let droops: u64 = report.chips.iter().map(|c| c.droops).sum();
    let runs: usize = report.chips.iter().map(|c| c.runs).sum();
    Outcome {
        sim_cycles: cycles,
        droops_per_kcycle: droops as f64 * 1000.0 / cycles.max(1) as f64,
        ops_per_mcycle: runs as f64 / (cycles as f64 / 1e6).max(f64::MIN_POSITIVE),
        ops,
        failed: ops.saturating_sub(runs as u64),
        digest: fnv64(report.to_json().as_bytes()),
        errors: Vec::new(),
    }
}

pub struct FleetCkpt {
    campaign: FleetCampaign,
    threads: usize,
    path: PathBuf,
    reference: Option<String>,
    /// One chip template per fleet variant, as in [`Campaign`].
    _batches: Vec<ChipBatch>,
}

impl FleetCkpt {
    /// `dir` is the temporary directory the checkpoint lives in.
    pub fn setup(seed: u64, threads: usize, dir: &std::path::Path) -> Self {
        let spec = fleet_spec(seed);
        let batches = spec
            .variants()
            .iter()
            .map(|v| ChipBatch::new(v.chip_config().expect("variant config")).expect("chip"))
            .collect();
        let campaign = FleetCampaign::new(spec).expect("fleet spec is valid");
        Self {
            campaign,
            threads,
            path: dir.join("fleet.ckpt.json"),
            reference: None,
            _batches: batches,
        }
    }
}

impl Workload for FleetCkpt {
    /// Runs the in-memory sweep once for its report, the artifact every
    /// checkpointed batch must reproduce byte for byte.
    fn prepare(&mut self) -> Result<(), String> {
        let report = self.campaign.run(self.threads).map_err(|e| e.to_string())?;
        self.reference = Some(report.to_json());
        Ok(())
    }

    fn batch(&mut self, rec: Option<&Recorder>) -> Outcome {
        let ops = self.campaign.spec().total_runs() as u64;
        if let Err(e) = std::fs::remove_file(&self.path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Outcome::run_error(ops, e);
            }
        }
        let run = call(rec, "fleet.FleetCampaign::run_checkpointed", || {
            self.campaign
                .run_checkpointed(self.threads, &self.path, None)
        });
        match run {
            Ok(report) => {
                let mut out = fleet_outcome(&report, ops);
                let json = report.to_json();
                out.check(match &self.reference {
                    Some(reference) => checks::identical(
                        "checkpointed fleet report",
                        reference.as_bytes(),
                        json.as_bytes(),
                    ),
                    None => Err("no in-memory reference report".into()),
                });
                out
            }
            Err(e) => Outcome::run_error(ops, e),
        }
    }
}
