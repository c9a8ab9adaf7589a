//! Tier-1 differential oracle for the fused chip kernel: every artifact
//! the service produces must be byte-identical between a one-shard
//! [`RuntimeMode::Reference`] pool (the reference cycle loop) and the
//! production [`RuntimeMode::Sharded`] pool at 1, 2, 4 and 8 shards —
//! same seeded job stream, same policy, same config, only the runtime
//! mode and shard count vary. (Test names keep their historical
//! "coordinator" wording for the reference side.)
//!
//! Six artifact classes are pinned:
//!
//! 1. the [`ServiceReport`] (struct equality *and* rendered bytes),
//! 2. the Chrome trace JSON,
//! 3. the `vsmooth-profile-v1` attribution JSON, both as returned and
//!    as published on `/profile` at every epoch,
//! 4. the monitor health report JSON (alerts and postmortems
//!    included),
//! 5. the obs hub snapshot stream (every periodic publish plus the
//!    final one) — including the decision ring riding in each
//!    snapshot,
//! 6. the `vsmooth-audit-v1` decision audit artifact.
//!
//! The single documented exception is `ObsSnapshot::shards`: the
//! per-shard introspection section is live execution state
//! (work-stealing splits, queue depths, wall latency). Its slice
//! tallies must still *sum* to `serve_slices_total` at the final
//! publish.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vsmooth::chip::ChipConfig;
use vsmooth::monitor::MonitorConfig;
use vsmooth::obs::{ObsConfig, ObsSnapshot, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::profile::ProfileConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{AuditConfig, JobSpec, RuntimeMode, Service, ServiceConfig};
use vsmooth::testkit::gen_job_stream;
use vsmooth::trace::{parse_json, Tracer};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(runtime: RuntimeMode) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 600;
    cfg.runtime = runtime;
    cfg
}

fn jobs(seed: u64) -> Vec<JobSpec> {
    gen_job_stream(&mut TestRng::new(seed), 14, 900)
}

#[test]
fn service_reports_match_coordinator_at_every_shard_count() {
    let jobs = jobs(0xA11CE);
    let reference = Service::new(config(RuntimeMode::Reference))
        .unwrap()
        .run(&jobs, &OnlineDroop, 1)
        .unwrap();
    assert_eq!(reference.jobs_completed, jobs.len());
    for shards in SHARD_COUNTS {
        let sharded = Service::new(config(RuntimeMode::Sharded))
            .unwrap()
            .run(&jobs, &OnlineDroop, shards)
            .unwrap();
        assert_eq!(reference, sharded, "report diverged at {shards} shards");
        assert_eq!(
            reference.render(),
            sharded.render(),
            "rendered report diverged at {shards} shards"
        );
    }
}

#[test]
fn trace_json_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xB0B);
    let run = |runtime, workers| {
        let tracer = Tracer::enabled();
        Service::new(config(runtime))
            .unwrap()
            .run_traced(&jobs, &OnlineDroop, workers, &tracer)
            .unwrap();
        tracer.to_chrome_json()
    };
    let reference = run(RuntimeMode::Reference, 1);
    assert!(reference.contains("traceEvents"));
    for shards in SHARD_COUNTS {
        assert_eq!(
            reference,
            run(RuntimeMode::Sharded, shards),
            "trace JSON diverged at {shards} shards"
        );
    }
}

#[test]
fn profile_json_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xCAFE);
    let run = |runtime, workers| {
        let (report, profile) = Service::new(config(runtime))
            .unwrap()
            .run_profiled(
                &jobs,
                &OnlineDroop,
                workers,
                &Tracer::disabled(),
                ProfileConfig::default(),
            )
            .unwrap();
        (report, profile.to_json())
    };
    let (reference_report, reference_json) = run(RuntimeMode::Reference, 1);
    assert!(reference_json.contains("vsmooth-profile-v1"));
    for shards in SHARD_COUNTS {
        let (report, json) = run(RuntimeMode::Sharded, shards);
        assert_eq!(reference_report, report, "report diverged at {shards}");
        assert_eq!(
            reference_json, json,
            "profile JSON diverged at {shards} shards"
        );
    }
}

#[test]
fn health_json_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xD00D);
    let run = |runtime, workers| {
        Service::new(config(runtime))
            .unwrap()
            .run_monitored(
                &jobs,
                &OnlineDroop,
                workers,
                &Tracer::disabled(),
                MonitorConfig::default(),
            )
            .unwrap()
    };
    let (reference_report, reference_health) = run(RuntimeMode::Reference, 1);
    for shards in SHARD_COUNTS {
        let (report, health) = run(RuntimeMode::Sharded, shards);
        assert_eq!(reference_report, report, "report diverged at {shards}");
        assert_eq!(
            reference_health.alerts, health.alerts,
            "alerts diverged at {shards} shards"
        );
        assert_eq!(
            reference_health.to_json(),
            health.to_json(),
            "health JSON diverged at {shards} shards"
        );
        assert_eq!(reference_health.postmortems.len(), health.postmortems.len());
        for (a, b) in reference_health.postmortems.iter().zip(&health.postmortems) {
            assert_eq!(a.to_json(), b.to_json(), "postmortem diverged at {shards}");
        }
    }
}

/// Runs a monitored+profiled service with obs publishing armed and
/// returns every snapshot the hub published, in publish order.
fn observed_snapshots(runtime: RuntimeMode, workers: usize, jobs: &[JobSpec]) -> Vec<ObsSnapshot> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let mut cfg = config(runtime);
    let mut oc = ObsConfig::new(Arc::new(TelemetryHub::new()));
    oc.publish_every = 2;
    oc.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
        sink.lock().unwrap().push(snap.clone());
    }));
    cfg.obs = Some(oc);
    Service::new(cfg)
        .unwrap()
        .run_monitored(
            jobs,
            &OnlineDroop,
            workers,
            &Tracer::disabled(),
            MonitorConfig::default(),
        )
        .unwrap();
    Arc::try_unwrap(seen).unwrap().into_inner().unwrap()
}

#[test]
fn obs_snapshot_stream_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xFEED);
    let reference = observed_snapshots(RuntimeMode::Reference, 1, &jobs);
    assert!(reference.len() > 2, "expected several periodic publishes");
    for shards in SHARD_COUNTS {
        let sharded = observed_snapshots(RuntimeMode::Sharded, shards, &jobs);
        assert_eq!(
            reference.len(),
            sharded.len(),
            "publish count diverged at {shards} shards"
        );
        for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
            assert_eq!(a.metrics, b.metrics, "metrics diverged at {shards}/{i}");
            assert_eq!(a.health, b.health, "health diverged at {shards}/{i}");
            assert_eq!(
                a.recent_droops, b.recent_droops,
                "droop ring diverged at {shards}/{i}"
            );
            assert_eq!(
                a.profile_json.as_deref(),
                b.profile_json.as_deref(),
                "profile body diverged at {shards}/{i}"
            );
            // The service status is fully deterministic since the live
            // per-worker split moved into `ObsSnapshot::shards`.
            assert_eq!(a.service, b.service, "status diverged at {shards}/{i}");
            assert_eq!(
                a.decisions, b.decisions,
                "decision ring diverged at {shards}/{i}"
            );
        }
        // The live introspection section is the documented exception:
        // execution state, but its slice tallies at the final (done)
        // publish are pinned by the slice counter.
        let last = sharded.last().unwrap();
        assert!(last.service.as_ref().unwrap().done);
        let section = last.shards.as_ref().expect("shard runtime publishes");
        assert_eq!(
            section
                .shards
                .iter()
                .map(|s| s.slices_owned + s.slices_stolen)
                .sum::<u64>(),
            last.metrics.counter("serve_slices_total"),
            "final per-shard slice sum diverged at {shards} shards"
        );
    }
}

/// Runs a profiled service with obs publishing every epoch and
/// returns every published `/profile` body in publish order (paired
/// with the snapshot's `done` flag) and the returned report's JSON.
fn published_profiles(
    runtime: RuntimeMode,
    workers: usize,
    jobs: &[JobSpec],
) -> (Vec<(bool, String)>, String) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let mut cfg = config(runtime);
    let mut oc = ObsConfig::new(Arc::new(TelemetryHub::new()));
    oc.publish_every = 1;
    oc.on_publish = Some(Arc::new(move |snap: &ObsSnapshot| {
        let done = snap.service.as_ref().expect("service status").done;
        let body = snap.profile_json.as_deref().expect("profiler armed");
        sink.lock().unwrap().push((done, body.clone()));
    }));
    cfg.obs = Some(oc);
    let (_, profile) = Service::new(cfg)
        .unwrap()
        .run_profiled(
            jobs,
            &OnlineDroop,
            workers,
            &Tracer::disabled(),
            ProfileConfig::default(),
        )
        .unwrap();
    let bodies = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    (bodies, profile.to_json())
}

#[test]
fn published_profile_bodies_match_coordinator_at_every_shard_count() {
    let jobs = jobs(0x9A0F);
    let (reference, reference_final) = published_profiles(RuntimeMode::Reference, 1, &jobs);
    assert!(reference.len() > 2, "expected several periodic publishes");
    // Every body is a vsmooth-profile-v1 document whose window total
    // only ever grows.
    let mut last_windows = 0;
    for (i, (_, body)) in reference.iter().enumerate() {
        let value = parse_json(body).expect("published /profile body parses");
        assert_eq!(
            value.get("schema").and_then(|v| v.as_str()),
            Some("vsmooth-profile-v1"),
            "publish {i}"
        );
        let windows = value
            .get("total_windows")
            .and_then(|v| v.as_f64())
            .expect("total_windows");
        assert!(windows >= last_windows as f64, "total_windows fell at {i}");
        last_windows = windows as u64;
    }
    assert!(last_windows > 0, "expected captured windows");
    // Only the final publish is done, and its body — the cached
    // render — equals a full render of the returned report.
    let (done, last) = reference.last().unwrap();
    assert!(*done);
    assert!(reference[..reference.len() - 1].iter().all(|(d, _)| !d));
    assert_eq!(*last, reference_final, "final /profile body != report JSON");
    for shards in SHARD_COUNTS {
        let (sharded, sharded_final) = published_profiles(RuntimeMode::Sharded, shards, &jobs);
        assert_eq!(
            reference_final, sharded_final,
            "report JSON diverged at {shards}"
        );
        assert_eq!(
            reference.len(),
            sharded.len(),
            "publish count diverged at {shards} shards"
        );
        for (i, (a, b)) in reference.iter().zip(&sharded).enumerate() {
            assert_eq!(a, b, "/profile body diverged at {shards}/{i}");
        }
    }
}

#[test]
fn audit_artifact_matches_coordinator_at_every_shard_count() {
    let jobs = jobs(0xAD17);
    let run = |runtime, workers| {
        let mut cfg = config(runtime);
        cfg.audit = Some(AuditConfig::default());
        Service::new(cfg)
            .unwrap()
            .run(&jobs, &OnlineDroop, workers)
            .unwrap()
    };
    let reference = run(RuntimeMode::Reference, 1);
    let reference_audit = reference.audit.as_ref().expect("audit armed");
    assert!(reference_audit.total > 0, "expected recorded decisions");
    let reference_json = reference_audit.to_json();
    assert!(reference_json.contains("vsmooth-audit-v1"));
    for shards in SHARD_COUNTS {
        let sharded = run(RuntimeMode::Sharded, shards);
        assert_eq!(
            reference.audit, sharded.audit,
            "audit ring diverged at {shards} shards"
        );
        assert_eq!(
            reference_json,
            sharded.audit.as_ref().unwrap().to_json(),
            "vsmooth-audit-v1 bytes diverged at {shards} shards"
        );
    }
}

proptest! {
    /// Seeded property: whatever job stream the generator draws, the
    /// sharded runtime's report and rendered bytes match the reference
    /// oracle's. Case count is pinned by `PROPTEST_CASES`.
    #[test]
    fn seeded_job_streams_agree_across_backends(
        seed in 0u64..u64::MAX,
        shards in sample::select([2usize, 4, 8]),
    ) {
        let jobs = gen_job_stream(&mut TestRng::new(seed), 8, 1_100);
        let reference = Service::new(config(RuntimeMode::Reference))
            .unwrap()
            .run(&jobs, &OnlineDroop, 1)
            .unwrap();
        let sharded = Service::new(config(RuntimeMode::Sharded))
            .unwrap()
            .run(&jobs, &OnlineDroop, shards)
            .unwrap();
        prop_assert_eq!(&reference, &sharded);
        prop_assert_eq!(reference.render(), sharded.render());
    }
}
