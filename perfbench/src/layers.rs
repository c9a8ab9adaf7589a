//! The traced run: per-layer metrics, each taken by timing the calls
//! the harness makes into one layer's public functions inside a span.
//!
//! Every traced run measures every layer, so each workload reports the
//! same metric set; which end-to-end metric each layer metric explains,
//! and on which workload, is listed in `perfbench/README.md`. Overhead
//! ratios always divide by the plain sharded `serve` run at `nproc`
//! shards, interleaved round by round so host drift cancels.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vsmooth::chip::sense::CrossingGrid;
use vsmooth::chip::{Chip, ChipBatch, ChipSession, SliceStats, WindowConfig, PHASE_MARGIN_PCT};
use vsmooth::fleet::{Checkpoint, FleetCampaign};
use vsmooth::monitor::MonitorConfig;
use vsmooth::obs::{http_get, ObsServer};
use vsmooth::profile::{ProfileConfig, ProfileReport};
use vsmooth::sched::{OnlineDroop, PairCandidate, PairPolicy};
use vsmooth::serve::{
    AuditConfig, JobSpec, ObsConfig, Service, ServiceConfig, ServiceReport, ShardsStatus,
    TelemetryHub,
};
use vsmooth::trace::{StreamConfig, Tracer};
use vsmooth::uarch::{IdleLoop, StimulusSource};
use vsmooth::workload::{spec2006, Workload as CatalogWorkload};

use crate::checks;
use crate::spans::{self, Recorder};
use crate::util::{fnv64, median, timed};
use crate::workloads::{self, Outcome, Workload};

/// Interval (and slice) length of the kernel micro-runs, the service's
/// default quantum.
const SLICE: u64 = 2_000;
/// Slices per kernel micro-run (fewer if a program is shorter).
const KERNEL_SLICES: u32 = 150;
/// Repetitions of each timed probe; medians are reported.
const REPS: usize = 5;

/// One named per-layer figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything the traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans_json: String,
    pub self_time: Vec<(&'static str, u64, f64, f64)>,
}

impl Traced {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    fn absorb(&mut self, out: &Outcome) {
        self.attempted += out.ops;
        self.failed += out.failed;
        self.errors.extend(out.errors.iter().cloned());
    }
}

/// `OnlineDroop` behind a wrapper that counts and times every score
/// the service asks for. It keeps the inner policy's name, so reports
/// stay byte-identical to unwrapped runs.
#[derive(Debug, Default)]
struct TimedPolicy {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl PairPolicy for TimedPolicy {
    fn name(&self) -> String {
        OnlineDroop.name()
    }

    fn score_pair(&self, a: &PairCandidate, b: &PairCandidate) -> f64 {
        let start = Instant::now();
        let score = OnlineDroop.score_pair(a, b);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        score
    }
}

/// A trace sink that keeps the bytes (when asked) and times each write
/// in a span under the current harness call.
struct TimingWriter {
    rec: Arc<Recorder>,
    keep: Option<Arc<Mutex<Vec<u8>>>>,
    bytes: Arc<AtomicU64>,
    ns: Arc<AtomicU64>,
}

impl Write for TimingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _span = self.rec.callback("trace.write");
        let start = Instant::now();
        if let Some(keep) = &self.keep {
            keep.lock()
                .map_err(|_| std::io::Error::other("trace buffer poisoned"))?
                .extend_from_slice(buf);
        }
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A streaming tracer into a [`TimingWriter`], plus its counters.
struct TimedTrace {
    tracer: Tracer,
    keep: Option<Arc<Mutex<Vec<u8>>>>,
    bytes: Arc<AtomicU64>,
    ns: Arc<AtomicU64>,
}

impl TimedTrace {
    fn new(rec: &Arc<Recorder>, keep_bytes: bool) -> Self {
        let keep = keep_bytes.then(|| Arc::new(Mutex::new(Vec::new())));
        let bytes = Arc::new(AtomicU64::new(0));
        let ns = Arc::new(AtomicU64::new(0));
        let writer = TimingWriter {
            rec: Arc::clone(rec),
            keep: keep.clone(),
            bytes: Arc::clone(&bytes),
            ns: Arc::clone(&ns),
        };
        Self {
            tracer: Tracer::streaming_to_writer(writer, StreamConfig::default()),
            keep,
            bytes,
            ns,
        }
    }

    /// Completes the stream: (kept bytes, dropped records).
    fn finish(self) -> Result<(Vec<u8>, u64), String> {
        let stats = self
            .tracer
            .finish_stream()
            .ok_or("tracer is not streaming")?
            .map_err(|e| format!("trace stream failed: {e}"))?;
        let bytes = match self.keep {
            Some(keep) => keep.lock().map_err(|_| "trace buffer poisoned")?.clone(),
            None => Vec::new(),
        };
        Ok((bytes, stats.dropped_total()))
    }
}

/// The chip-kernel variants the micro-runs compare.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    Reference,
    Fast,
    FastCrossings,
    FastWindow,
}

/// Runs `slices` kernel slices of `w0`/`w1` on a fresh chip; returns
/// the slice statistics and the host seconds the slices took (warm-up
/// excluded).
fn kernel_run(
    kernel: Kernel,
    chip: Chip,
    w0: &CatalogWorkload,
    w1: &CatalogWorkload,
    slices: u32,
) -> (Vec<SliceStats>, f64) {
    let margin = CrossingGrid::droop_grid().quantized_margin(PHASE_MARGIN_PCT);
    let mut s0 = w0.stream(0, SLICE);
    let mut s1 = w1.stream(1, SLICE);
    let mut out = Vec::with_capacity(slices as usize);
    if kernel == Kernel::Reference {
        let (mut i0, mut i1) = (IdleLoop::default(), IdleLoop::default());
        let mut warm: Vec<&mut dyn StimulusSource> = vec![&mut i0, &mut i1];
        let mut session = ChipSession::begin(chip, &mut warm, SLICE).expect("two-core chip");
        let start = Instant::now();
        for _ in 0..slices {
            let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut s0, &mut s1];
            out.push(session.run_slice(&mut sources, SLICE).expect("two sources"));
        }
        return (out, start.elapsed().as_secs_f64());
    }
    let (mut i0, mut i1) = (IdleLoop::default(), IdleLoop::default());
    let mut session = ChipSession::begin_fast(
        chip,
        || StimulusSource::next(&mut i0),
        || StimulusSource::next(&mut i1),
        SLICE,
    )
    .expect("two-core chip");
    match kernel {
        Kernel::FastCrossings => session.capture_droops(margin),
        Kernel::FastWindow => session.enable_profiling(margin, WindowConfig::default()),
        _ => {}
    }
    let start = Instant::now();
    for _ in 0..slices {
        let (m0, m1) = (s0.current_prepared(), s1.current_prepared());
        let stats = session
            .run_slice_fast(|| s0.step_prepared(&m0), || s1.step_prepared(&m1), SLICE)
            .expect("two-core chip");
        match kernel {
            Kernel::FastCrossings => drop(black_box(session.take_droop_crossings())),
            Kernel::FastWindow => drop(black_box(session.take_droop_windows())),
            _ => {}
        }
        out.push(stats);
    }
    (out, start.elapsed().as_secs_f64())
}

fn kernels(t: &mut Traced, rec: &Recorder, seed: u64) -> f64 {
    let root = rec.enter("bench.kernels", None);
    let parent = Some(root.id());
    let build_s: Vec<f64> = (0..REPS)
        .map(|_| {
            rec.time("chip.ChipBatch::new", parent, || {
                black_box(ChipBatch::new(workloads::serve_chip()).expect("Proc3 chip"))
            })
            .1
        })
        .collect();
    t.put("chip.batch_build_ms", median(&build_s) * 1e3, "ms");

    let batch = ChipBatch::new(workloads::serve_chip()).expect("Proc3 chip");
    let catalog = spec2006();
    let n = catalog.len() as u64;
    let w0 = &catalog[(seed % n) as usize];
    let w1 = &catalog[(seed.wrapping_mul(7).wrapping_add(3) % n) as usize];
    let slices = KERNEL_SLICES
        .min(w0.total_intervals())
        .min(w1.total_intervals());
    let cycles = f64::from(slices) * SLICE as f64;

    let kinds = [
        (Kernel::Reference, "chip.ChipSession::run_slice"),
        (Kernel::Fast, "chip.ChipSession::run_slice_fast"),
        (Kernel::FastCrossings, "chip.run_slice_fast+capture_droops"),
        (Kernel::FastWindow, "chip.run_slice_fast+enable_profiling"),
    ];
    let mut ns = vec![Vec::new(); kinds.len()];
    let mut stream_ns = Vec::new();
    for rep in 0..REPS {
        let mut reference = Vec::new();
        for (i, (kernel, name)) in kinds.iter().enumerate() {
            let ((stats, secs), _) = rec.time(name, parent, || {
                kernel_run(*kernel, batch.build(), w0, w1, slices)
            });
            ns[i].push(secs * 1e9 / cycles);
            if *kernel == Kernel::Reference {
                reference = stats;
            } else if rep == 0 {
                t.check(checks::slices_bit_identical(name, &reference, &stats));
            }
        }
        let (_, secs) = rec.time("workload.EventStream::step_prepared", parent, || {
            let (mut s0, mut s1) = (w0.stream(0, SLICE), w1.stream(1, SLICE));
            for _ in 0..slices {
                let (m0, m1) = (s0.current_prepared(), s1.current_prepared());
                for _ in 0..SLICE {
                    black_box(s0.step_prepared(&m0));
                    black_box(s1.step_prepared(&m1));
                }
            }
        });
        stream_ns.push(secs * 1e9 / cycles);
    }
    let [r, f, c, w] = [0, 1, 2, 3].map(|i| median(&ns[i]));
    t.put("chip.ref_ns_per_cycle", r, "ns/cycle");
    t.put("chip.fast_ns_per_cycle", f, "ns/cycle");
    t.put("chip.fast_crossings_ns_per_cycle", c, "ns/cycle");
    t.put("chip.window_ns_per_cycle", w, "ns/cycle");
    t.put("chip.fast_speedup", r / f, "x");
    t.put(
        "workload.stream_ns_per_cycle",
        median(&stream_ns),
        "ns/cycle",
    );
    f
}

/// Which entry point a `serve` probe calls.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Traced,
    Profiled,
    Monitored,
}

/// Runs the `serve` inputs once through `service` with `tracer`.
fn serve_call(
    service: &Service,
    jobs: &[JobSpec],
    policy: &dyn PairPolicy,
    shards: usize,
    tracer: &Tracer,
    entry: Entry,
) -> Result<(ServiceReport, Option<ProfileReport>), String> {
    let err = |e: vsmooth::serve::ServeError| e.to_string();
    match entry {
        Entry::Traced => Ok((
            service
                .run_traced(jobs, policy, shards, tracer)
                .map_err(err)?,
            None,
        )),
        Entry::Profiled => {
            let (report, profile) = service
                .run_profiled(jobs, policy, shards, tracer, ProfileConfig::default())
                .map_err(err)?;
            Ok((report, Some(profile)))
        }
        Entry::Monitored => {
            let (report, _) = service
                .run_monitored(jobs, policy, shards, tracer, MonitorConfig::default())
                .map_err(err)?;
            Ok((report, None))
        }
    }
}

fn shard_slices(status: &ShardsStatus) -> (u64, u64) {
    status.shards.iter().fold((0, 0), |(o, s), sh| {
        (o + sh.slices_owned, s + sh.slices_stolen)
    })
}

/// Everything one instrumented run leaves behind, for the 1 vs
/// `nproc` shard byte-identity checks.
struct Artifacts {
    render: String,
    profile: String,
    audit: String,
    trace: Vec<u8>,
}

fn serve_layers(t: &mut Traced, rec: &Arc<Recorder>, seed: u64, nproc: usize, fast_ns: f64) {
    let root = rec.enter("bench.serve", None);
    let parent = Some(root.id());
    let jobs = workloads::serve_jobs(seed);
    let service = |cfg: ServiceConfig| Service::new(cfg).expect("serve config is valid");
    let plain = service(workloads::serve_config());
    let audited = service({
        let mut cfg = workloads::serve_config();
        cfg.audit = Some(AuditConfig::default());
        cfg
    });
    let off = Tracer::disabled();
    let run = |name: &'static str, svc: &Service, shards: usize, tracer: &Tracer, entry: Entry| {
        rec.time(name, parent, || {
            serve_call(svc, &jobs, &OnlineDroop, shards, tracer, entry)
        })
    };

    // Per-round ratios over the plain run of the same round: 1 shard,
    // audit, streaming trace, profiler, monitor, obs.
    let mut ratios: [Vec<f64>; 6] = Default::default();
    let mut scrape_ms = Vec::new();
    let mut plain_s = Vec::new();
    let mut last_plain = None;
    let mut audit_events = 0;
    let mut trace_stats = (0u64, 0u64, 0u64);
    let mut windows = 0;
    let mut publishes = Vec::new();
    let mut shards_seen: Option<(ShardsStatus, u64, u64)> = None;
    let mut pair = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (res, base) = run(
            "serve.Service::run[plain]",
            &plain,
            nproc,
            &off,
            Entry::Traced,
        );
        plain_s.push(base);
        match res {
            Ok((report, _)) => {
                t.check(checks::jobs_complete(&jobs, &report));
                last_plain = Some(report);
            }
            Err(e) => t.check(Err(e)),
        }

        let (_, one) = run(
            "serve.Service::run[1 shard]",
            &plain,
            1,
            &off,
            Entry::Traced,
        );
        ratios[0].push(one / base);

        let (res, secs) = run(
            "serve.Service::run[audit]",
            &audited,
            nproc,
            &off,
            Entry::Traced,
        );
        ratios[1].push(secs / base);
        if let Ok((report, _)) = &res {
            audit_events = report.audit.as_ref().map_or(0, |a| a.total);
        }

        let trace = TimedTrace::new(rec, false);
        let (res, secs) = run(
            "serve.Service::run_traced[stream]",
            &plain,
            nproc,
            &trace.tracer,
            Entry::Traced,
        );
        ratios[2].push(secs / base);
        let (bytes, ns) = (
            trace.bytes.load(Ordering::Relaxed),
            trace.ns.load(Ordering::Relaxed),
        );
        match (res, trace.finish()) {
            (Ok(_), Ok((_, dropped))) => trace_stats = (bytes, ns, dropped),
            (Err(e), _) | (_, Err(e)) => t.check(Err(e)),
        }

        let (res, secs) = run(
            "serve.Service::run_profiled",
            &plain,
            nproc,
            &off,
            Entry::Profiled,
        );
        ratios[3].push(secs / base);
        if let Ok((_, Some(profile))) = &res {
            windows = profile.total_windows;
        }

        let (_, secs) = run(
            "serve.Service::run_monitored",
            &plain,
            nproc,
            &off,
            Entry::Monitored,
        );
        ratios[4].push(secs / base);

        let hub = Arc::new(TelemetryHub::new());
        let mut obs_cfg = workloads::serve_config();
        let mut obs = ObsConfig::new(Arc::clone(&hub));
        let hook_rec = Arc::clone(rec);
        obs.on_publish = Some(Arc::new(move |_| drop(hook_rec.callback("obs.publish"))));
        obs_cfg.obs = Some(obs);
        let (res, secs) = run(
            "serve.Service::run[obs]",
            &service(obs_cfg),
            nproc,
            &off,
            Entry::Traced,
        );
        ratios[5].push(secs / base);
        publishes.push(hub.publishes() as f64);
        if let Ok((report, _)) = res {
            match hub.latest().shards.clone() {
                Some(status) => {
                    let slices = report.snapshot.counter("serve_slices_total");
                    shards_seen = Some((status, slices, report.epochs));
                }
                None => t.check(Err("obs-armed sharded run published no ShardsStatus".into())),
            }
            // One scrape of the final snapshot, after the run.
            match ObsServer::with_hub("127.0.0.1:0", Arc::clone(&hub)) {
                Ok(server) => {
                    let addr = server.local_addr();
                    let (resp, secs) = rec.time("obs.http_get[/metrics]", parent, || {
                        http_get(addr, "/metrics")
                    });
                    server.shutdown();
                    match resp {
                        Ok(r) if r.status == 200 => scrape_ms.push(secs * 1e3),
                        Ok(r) => t.check(Err(format!("/metrics answered {}", r.status))),
                        Err(e) => t.check(Err(format!("/metrics scrape failed: {e}"))),
                    }
                }
                Err(e) => t.check(Err(format!("cannot bind the obs server: {e}"))),
            }
        }

        let policy = TimedPolicy::default();
        let (res, _) = rec.time("serve.Service::run[timed policy]", parent, || {
            serve_call(&plain, &jobs, &policy, nproc, &off, Entry::Traced)
        });
        if let (Ok((report, _)), Some(base_report)) = (&res, &last_plain) {
            t.check(checks::identical(
                "report under the timing policy",
                base_report.render().as_bytes(),
                report.render().as_bytes(),
            ));
        }
        pair.0.push(policy.calls.load(Ordering::Relaxed) as f64);
        pair.1.push(policy.ns.load(Ordering::Relaxed) as f64 / 1e3);
    }
    let base = median(&plain_s);
    if let Some(report) = &last_plain {
        let shares = report.chip_cycles as f64 * fast_ns * 1e-9 / (base * nproc as f64);
        t.put("serve.kernel_share", shares, "ratio");
        let (_, render_s) = rec.time("stats.MetricsSnapshot::render_prometheus", parent, || {
            black_box(report.snapshot.render_prometheus())
        });
        t.put("stats.render_ms", render_s * 1e3, "ms");
    }
    t.put("serve.shard_scaling", median(&ratios[0]), "x");
    t.put("sched.pair_calls", median(&pair.0), "count");
    t.put("sched.pair_us", median(&pair.1), "us");
    t.put("serve.audit_events", audit_events as f64, "count");
    t.put("serve.audit_overhead_ratio", median(&ratios[1]), "x");
    t.put("trace.bytes", trace_stats.0 as f64, "bytes");
    t.put("trace.write_ms", trace_stats.1 as f64 / 1e6, "ms");
    t.put("trace.dropped", trace_stats.2 as f64, "count");
    t.put("trace.overhead_ratio", median(&ratios[2]), "x");
    t.put("profile.windows", windows as f64, "count");
    t.put("profile.overhead_ratio", median(&ratios[3]), "x");
    t.put("monitor.overhead_ratio", median(&ratios[4]), "x");
    t.put("obs.publishes", median(&publishes), "count");
    t.put("obs.overhead_ratio", median(&ratios[5]), "x");
    if scrape_ms.is_empty() {
        t.check(Err("no /metrics scrape succeeded".into()));
        scrape_ms.push(f64::NAN);
    }
    t.put("obs.scrape_ms", median(&scrape_ms), "ms");
    match shards_seen {
        Some((status, slices, epochs)) => {
            let (owned, stolen) = shard_slices(&status);
            t.check(checks::sharded_slices(owned + stolen, slices));
            t.put("serve.slices", slices as f64, "count");
            t.put("serve.epochs", epochs as f64, "count");
            t.put(
                "serve.stolen_ratio",
                stolen as f64 / (owned + stolen).max(1) as f64,
                "ratio",
            );
            t.put(
                "serve.ownership_churn",
                status.ownership_churn as f64,
                "count",
            );
            let hwm = status
                .shards
                .iter()
                .map(|s| s.lane_occupancy_hwm)
                .max()
                .unwrap_or(0);
            t.put("serve.lane_hwm", hwm as f64, "count");
            t.put(
                "serve.decision_us_mean",
                status.decision_latency.mean_us(),
                "us",
            );
            t.put(
                "serve.decision_us_max",
                status.decision_latency.max_us as f64,
                "us",
            );
        }
        None => t.check(Err("no sharded run reported its shards".into())),
    }
    drop(root);

    // The full `serve_instrumented` configuration at 1 and `nproc`
    // shards: every artifact must match byte for byte, the streamed
    // trace must validate with nothing dropped, and the shards must
    // account for every slice.
    let root = rec.enter("bench.serve_instrumented", None);
    let parent = Some(root.id());
    let mut artifacts = Vec::new();
    for shards in [1, nproc] {
        let hub = Arc::new(TelemetryHub::new());
        let svc = service(workloads::instrumented_config(Arc::clone(&hub)));
        let trace = TimedTrace::new(rec, true);
        let (res, _) = rec.time("serve.Service::run_profiled[instrumented]", parent, || {
            serve_call(
                &svc,
                &jobs,
                &OnlineDroop,
                shards,
                &trace.tracer,
                Entry::Profiled,
            )
        });
        let finished = trace.finish();
        match (res, finished) {
            (Ok((report, profile)), Ok((bytes, dropped))) => {
                t.check(checks::jobs_complete(&jobs, &report));
                t.check(checks::trace_valid(&bytes, dropped));
                match hub.latest().shards.as_ref() {
                    Some(status) => {
                        let (owned, stolen) = shard_slices(status);
                        t.check(checks::sharded_slices(
                            owned + stolen,
                            report.snapshot.counter("serve_slices_total"),
                        ));
                    }
                    None => t.check(Err("instrumented run published no ShardsStatus".into())),
                }
                artifacts.push(Artifacts {
                    render: checks::deterministic_render(&report),
                    profile: profile.map(|p| p.to_json()).unwrap_or_default(),
                    audit: report
                        .audit
                        .as_ref()
                        .map(|a| a.to_json())
                        .unwrap_or_default(),
                    trace: bytes,
                });
            }
            (Err(e), _) | (_, Err(e)) => t.check(Err(e)),
        }
    }
    if let [one, many] = &artifacts[..] {
        t.check(checks::identical(
            "ServiceReport::render",
            one.render.as_bytes(),
            many.render.as_bytes(),
        ));
        t.check(checks::identical(
            "profile JSON",
            one.profile.as_bytes(),
            many.profile.as_bytes(),
        ));
        t.check(checks::identical(
            "audit JSON",
            one.audit.as_bytes(),
            many.audit.as_bytes(),
        ));
        t.check(checks::identical("streamed trace", &one.trace, &many.trace));
        println!(
            "artifact digests: render={:016x} profile={:016x} audit={:016x} trace={:016x}",
            fnv64(one.render.as_bytes()),
            fnv64(one.profile.as_bytes()),
            fnv64(one.audit.as_bytes()),
            fnv64(&one.trace)
        );
    } else {
        t.check(Err(
            "instrumented runs did not complete at both shard counts".into(),
        ));
    }
}

/// Three campaign batches with every `Lab` call in a span; the layer
/// times are read back from those spans.
fn campaign_layers(t: &mut Traced, rec: &Recorder, nproc: usize) {
    let mut campaign = workloads::Campaign::setup(nproc);
    let mut runs = Vec::new();
    for _ in 0..3 {
        let run = rec.begin_run();
        let _root = rec.enter("bench.campaign", None);
        let out = campaign.batch(Some(rec));
        t.absorb(&out);
        runs.push(run);
    }
    let spans = rec.finish();
    let per_batch = |name: &str| -> Vec<f64> {
        runs.iter()
            .map(|&run| {
                let ns: u64 = spans
                    .iter()
                    .filter(|s| s.run == run && s.name == name)
                    .map(|s| s.dur_ns())
                    .sum();
                ns as f64 / 1e9
            })
            .collect()
    };
    t.put("resilience.runs", campaign.spec_len() as f64, "count");
    t.put(
        "resilience.campaign_s",
        median(&per_batch("resilience.Lab::campaign")),
        "s",
    );
    t.put(
        "resilience.analysis_ms",
        median(&per_batch("resilience.Lab::tab01")) * 1e3,
        "ms",
    );
    t.put(
        "sched.batch_ms",
        median(&per_batch("sched.Lab::fig18")) * 1e3,
        "ms",
    );
}

fn fleet_layers(t: &mut Traced, rec: &Recorder, seed: u64, nproc: usize, dir: &Path) {
    let root = rec.enter("bench.fleet", None);
    let parent = Some(root.id());
    let spec = workloads::fleet_spec(seed);
    let fingerprint = spec.fingerprint();
    let campaign = FleetCampaign::new(spec).expect("fleet spec is valid");
    let path = dir.join("fleet-layers.ckpt.json");
    let copy = dir.join("fleet-layers-copy.ckpt.json");
    let mut ratios = Vec::new();
    for _ in 0..REPS {
        let (plain, base) = rec.time("fleet.FleetCampaign::run", parent, || campaign.run(nproc));
        let _ = std::fs::remove_file(&path);
        let (ckpt, secs) = rec.time("fleet.FleetCampaign::run_checkpointed", parent, || {
            campaign.run_checkpointed(nproc, &path, None)
        });
        ratios.push(secs / base);
        match (plain, ckpt) {
            (Ok(a), Ok(b)) => t.check(checks::identical(
                "checkpointed fleet report",
                a.to_json().as_bytes(),
                b.to_json().as_bytes(),
            )),
            (Err(e), _) | (_, Err(e)) => t.check(Err(e.to_string())),
        }
    }
    t.put("fleet.ckpt_overhead_ratio", median(&ratios), "x");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    t.put("fleet.ckpt_bytes", bytes as f64, "bytes");
    let (mut load_ms, mut save_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (loaded, secs) = rec.time("fleet.Checkpoint::load", parent, || {
            Checkpoint::load(&path, fingerprint)
        });
        load_ms.push(secs * 1e3);
        match loaded {
            Ok(ckpt) => {
                let (saved, secs) = rec.time("fleet.Checkpoint::save", parent, || ckpt.save(&copy));
                save_ms.push(secs * 1e3);
                t.check(saved.map_err(|e| e.to_string()));
            }
            Err(e) => t.check(Err(e.to_string())),
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&copy);
    t.put(
        "fleet.ckpt_load_ms",
        if load_ms.is_empty() {
            f64::NAN
        } else {
            median(&load_ms)
        },
        "ms",
    );
    t.put(
        "fleet.ckpt_save_ms",
        if save_ms.is_empty() {
            f64::NAN
        } else {
            median(&save_ms)
        },
        "ms",
    );
}

/// The workload's own closed loop, alternating an untraced batch with
/// one whose library calls are wrapped in spans, for `seconds`.
fn trace_overhead(
    t: &mut Traced,
    rec: &Recorder,
    wl: &mut dyn Workload,
    name: &'static str,
    seconds: u64,
) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while plain.len() < 3 || Instant::now() < deadline {
        let (out, secs) = timed(|| wl.run_once());
        t.absorb(&out);
        plain.push(secs);
        rec.begin_run();
        let (out, secs) = timed(|| {
            let _batch = rec.enter(name, None);
            wl.batch(Some(rec))
        });
        t.absorb(&out);
        traced.push(secs);
    }
    t.put(
        "bench.trace_overhead_ratio",
        median(&traced) / median(&plain),
        "x",
    );
}

/// The traced run for `workload`.
pub fn run(
    workload: &'static str,
    wl: &mut dyn Workload,
    seed: u64,
    seconds: u64,
    nproc: usize,
    dir: &Path,
) -> Traced {
    let rec = Arc::new(Recorder::default());
    let mut t = Traced::default();
    t.put("host.nproc", nproc as f64, "count");
    rec.begin_run();
    let fast_ns = kernels(&mut t, &rec, seed);
    rec.begin_run();
    serve_layers(&mut t, &rec, seed, nproc, fast_ns);
    campaign_layers(&mut t, &rec, nproc);
    rec.begin_run();
    fleet_layers(&mut t, &rec, seed, nproc, dir);
    trace_overhead(&mut t, &rec, wl, workload, seconds);

    let all = rec.finish();
    t.spans_json = spans::to_json(workload, seed, &all);
    t.self_time = spans::by_name(&all)
        .into_iter()
        .map(|(name, (count, total, own))| (name, count, total as f64 / 1e6, own as f64 / 1e6))
        .collect();
    t
}
