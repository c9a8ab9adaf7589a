//! The service's determinism contract: for a fixed configuration, job
//! stream and policy, the [`ServiceReport`] — including its rendered
//! metrics snapshot — must be byte-identical however many worker
//! threads simulate the chip pool.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use vsmooth::chip::ChipConfig;
use vsmooth::obs::{ObsConfig, ObsSnapshot, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::profile::ProfileConfig;
use vsmooth::sched::{OnlineDroop, OnlineIpc, PairPolicy, RandomPairing};
use vsmooth::serve::{
    synthetic_jobs, AuditConfig, JobSpec, RuntimeMode, ServeError, Service, ServiceConfig,
    ServiceReport,
};
use vsmooth::trace::{validate_chrome_trace, StreamConfig, Tracer};

fn run(policy: &dyn PairPolicy, workers: usize) -> ServiceReport {
    run_traced(policy, workers, &Tracer::disabled())
}

fn run_traced(policy: &dyn PairPolicy, workers: usize, tracer: &Tracer) -> ServiceReport {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 600;
    let service = Service::new(cfg).expect("valid config");
    let jobs = synthetic_jobs(19, 18, 900);
    service
        .run_traced(&jobs, policy, workers, tracer)
        .expect("service run")
}

#[test]
fn service_report_is_byte_identical_across_worker_counts() {
    for policy in [
        &OnlineDroop as &dyn PairPolicy,
        &OnlineIpc,
        &RandomPairing { seed: 3 },
    ] {
        let baseline = run(policy, 1);
        assert_eq!(baseline.jobs_completed, 18);
        for workers in [2, 8] {
            let other = run(policy, workers);
            assert_eq!(
                baseline,
                other,
                "{}: report differs between 1 and {workers} workers",
                policy.name()
            );
            // Byte-level check on the full rendering (structured
            // equality could miss formatting-visible float drift).
            assert_eq!(baseline.render(), other.render());
        }
    }
}

#[test]
fn trace_and_metrics_artifacts_are_byte_identical_across_worker_counts() {
    let artifacts = |workers: usize| {
        let tracer = Tracer::enabled();
        let report = run_traced(&OnlineDroop, workers, &tracer);
        (tracer.to_chrome_json(), report.snapshot.render_prometheus())
    };
    let (trace_1, prom_1) = artifacts(1);
    for workers in [2, 8] {
        let (trace_n, prom_n) = artifacts(workers);
        assert_eq!(
            trace_1, trace_n,
            "trace JSON differs between 1 and {workers} workers"
        );
        assert_eq!(
            prom_1, prom_n,
            "Prometheus snapshot differs between 1 and {workers} workers"
        );
    }
    // The invariant artifact is also a well-formed, non-trivial trace.
    let shape = validate_chrome_trace(&trace_1).expect("valid Chrome trace");
    assert!(shape.spans > 0 && shape.droops > 0);
    assert!(prom_1.contains("droops_total{policy=\"Droop(online)\"}"));
    assert!(prom_1.contains("queue_wait_kcycles{quantile=\"0.95\"}"));
}

/// A `Write` target whose bytes survive the streaming tracer taking
/// ownership of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What an overflowing run left behind with every sink armed: the
/// streamed trace bytes and the last snapshot published before the
/// error.
struct ArmedOverflow {
    trace: Vec<u8>,
    last: Arc<ObsSnapshot>,
}

fn overflow_config(runtime: RuntimeMode) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 2;
    cfg.slice_cycles = 600;
    cfg.queue_capacity = Some(3);
    cfg.runtime = runtime;
    cfg
}

/// Runs `jobs` into the bounded queue and returns the shed
/// `(capacity, job)`. With `armed`, the run goes through
/// `run_profiled` with a streaming tracer, the decision audit and obs
/// publishing every epoch, and also returns what those sinks saw.
fn overflow(
    jobs: &[JobSpec],
    runtime: RuntimeMode,
    workers: usize,
    armed: bool,
) -> ((usize, u64), Option<ArmedOverflow>) {
    let mut cfg = overflow_config(runtime);
    let (result, armed) = if armed {
        let hub = Arc::new(TelemetryHub::new());
        let mut oc = ObsConfig::new(Arc::clone(&hub));
        oc.publish_every = 1;
        cfg.obs = Some(oc);
        cfg.audit = Some(AuditConfig::default());
        let buf = SharedBuf::default();
        let tracer = Tracer::streaming_to_writer(buf.clone(), StreamConfig::default());
        let result = Service::new(cfg)
            .expect("valid config")
            .run_profiled(
                jobs,
                &OnlineDroop,
                workers,
                &tracer,
                ProfileConfig::default(),
            )
            .map(|(report, _)| report);
        tracer
            .finish_stream()
            .expect("streaming tracer")
            .expect("sink flush");
        let trace = buf.0.lock().expect("buffer lock").clone();
        let last = hub.latest();
        (result, Some(ArmedOverflow { trace, last }))
    } else {
        let result = Service::new(cfg)
            .expect("valid config")
            .run(jobs, &OnlineDroop, workers);
        (result, None)
    };
    match result {
        Err(ServeError::QueueOverflow { capacity, job }) => ((capacity, job), armed),
        other => panic!("expected QueueOverflow under {runtime:?}/{workers}, got {other:?}"),
    }
}

#[test]
fn queue_overflow_sheds_the_same_job_under_sharding() {
    // A bounded queue overflowing under two arrival patterns: a burst
    // that overflows during the very first admission sweep, and a
    // trickle that fills the pool first and overflows several epochs
    // in. The run must end in the typed overflow error, shedding the
    // very same job with the very same recorded capacity, whether the
    // pool steps the reference oracle or the fused kernel at any
    // number of shards. Admission order is a decision-loop property,
    // so which job overflows must not depend on execution.
    let burst: Vec<JobSpec> = (0..12)
        .map(|id| JobSpec {
            id,
            workload: "429.mcf".into(),
            arrival_cycle: 0,
        })
        .collect();
    let trickle: Vec<JobSpec> = (0..12)
        .map(|id| JobSpec {
            id,
            workload: "429.mcf".into(),
            arrival_cycle: id * 400,
        })
        .collect();
    for jobs in [&burst, &trickle] {
        let (reference, _) = overflow(jobs, RuntimeMode::Reference, 1, false);
        assert_eq!(reference.0, 3);
        for shards in [1usize, 2, 4, 8] {
            assert_eq!(
                overflow(jobs, RuntimeMode::Sharded, shards, false).0,
                reference,
                "overflow identity differs at {shards} shards"
            );
        }
    }

    // The second variant arms every sink, so the overflow surfaces
    // from the sink fold's replay: the same job is shed, and every
    // sink holds the same bytes at the error as the reference run's.
    let (shed, armed) = overflow(&trickle, RuntimeMode::Reference, 1, true);
    let reference = armed.expect("armed run");
    assert_eq!(shed, overflow(&trickle, RuntimeMode::Reference, 1, false).0);
    let status = reference.last.service.as_ref().expect("periodic publishes");
    assert!(status.epoch > 1, "the trickle overflows several epochs in");
    assert!(!status.done, "an overflowing run never publishes `done`");
    assert!(!reference.last.decisions.is_empty());
    // The overflowing epoch's partial admissions and its shed decision
    // reached the trace: jobs arrive in id order, so exactly the ids
    // below the shed one were admitted.
    let trace = String::from_utf8(reference.trace.clone()).expect("UTF-8 trace");
    let count = |needle: &str| trace.matches(needle).count() as u64;
    assert_eq!(count("\"name\":\"admit\",\"cat\":\"job\""), shed.1);
    assert_eq!(count("\"name\":\"shed\",\"cat\":\"decision\""), 1);
    for shards in [1usize, 2, 4, 8] {
        let (shed_n, armed) = overflow(&trickle, RuntimeMode::Sharded, shards, true);
        let sharded = armed.expect("armed run");
        assert_eq!(
            shed_n, shed,
            "armed overflow identity differs at {shards} shards"
        );
        assert_eq!(
            reference.trace, sharded.trace,
            "streamed trace differs at {shards} shards"
        );
        // Every section but the live `shards` introspection is
        // deterministic.
        let (a, b) = (&reference.last, &sharded.last);
        assert_eq!(a.metrics, b.metrics, "metrics differ at {shards} shards");
        assert_eq!(a.health, b.health, "health differs at {shards} shards");
        assert_eq!(a.service, b.service, "status differs at {shards} shards");
        assert_eq!(
            a.decisions, b.decisions,
            "decisions differ at {shards} shards"
        );
        assert_eq!(
            a.recent_droops, b.recent_droops,
            "droop ring differs at {shards} shards"
        );
        assert_eq!(
            a.profile_json, b.profile_json,
            "profile body differs at {shards} shards"
        );
    }
}
