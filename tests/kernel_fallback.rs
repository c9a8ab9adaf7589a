//! The fused chip kernel is the only kernel the sharded runtime runs on
//! the platform's chips. Profiled and invariant-armed runs at 1/2/8
//! shards must report zero reference-loop fallback slices, and the
//! count reaches `/metrics` and `/shards` from the same counter. A chip
//! whose shape the kernel is not specialized for proves the counter
//! is live: every one of its slices is counted.

use vsmooth::chip::ChipConfig;
use vsmooth::obs::{http_get, ObsConfig, ObsServer};
use vsmooth::pdn::{DecapConfig, VrmRipple};
use vsmooth::profile::ProfileConfig;
use vsmooth::sched::OnlineDroop;
use vsmooth::serve::{synthetic_jobs, RuntimeMode, Service, ServiceConfig};
use vsmooth::trace::Tracer;

/// Runs 24 seeded jobs on three chips through the sharded runtime with
/// the invariant checker armed (and the profiler too when `profiled`),
/// then reads the fallback counters back from the last published
/// snapshot and both endpoints. Returns the per-reason counts and the
/// slices the run executed.
fn fallbacks(chip: ChipConfig, shards: usize, profiled: bool) -> (Vec<(&'static str, u64)>, u64) {
    let server = ObsServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let mut cfg = ServiceConfig::new(chip);
    cfg.chips = 3;
    cfg.slice_cycles = 600;
    cfg.invariants = true;
    cfg.runtime = RuntimeMode::Sharded;
    cfg.obs = Some(ObsConfig::new(server.hub()));
    let service = Service::new(cfg).expect("valid config");
    let jobs = synthetic_jobs(12, 24, 900);
    if profiled {
        service
            .run_profiled(
                &jobs,
                &OnlineDroop,
                shards,
                &Tracer::disabled(),
                ProfileConfig::default(),
            )
            .expect("profiled run");
    } else {
        service.run(&jobs, &OnlineDroop, shards).expect("run");
    }
    let snap = server.hub().latest();
    let status = snap.shards.as_ref().expect("sharded runs publish /shards");
    let slices = status
        .shards
        .iter()
        .map(|s| s.slices_owned + s.slices_stolen)
        .sum();
    let metrics = http_get(addr, "/metrics").expect("scrape /metrics").body;
    let shards_body = http_get(addr, "/shards").expect("scrape /shards").body;
    server.shutdown();
    for &(reason, count) in &status.kernel_fallback_slices {
        let line = format!("chip_kernel_fallback_slices_total{{reason=\"{reason}\"}} {count}");
        assert!(metrics.contains(&line), "/metrics lacks `{line}`");
        assert!(
            shards_body.contains(&format!("\"{reason}\": {count}")),
            "/shards lacks the {reason} fallback count"
        );
    }
    (status.kernel_fallback_slices.clone(), slices)
}

#[test]
fn profiled_and_invariant_armed_sharded_runs_never_leave_the_fused_kernel() {
    for shards in [1, 2, 8] {
        for profiled in [false, true] {
            let chip = ChipConfig::core2_duo(DecapConfig::proc100());
            let (counts, slices) = fallbacks(chip, shards, profiled);
            assert!(slices > 0, "the run executed no slices");
            assert!(!counts.is_empty(), "no fallback reasons published");
            for (reason, count) in counts {
                assert_eq!(
                    count, 0,
                    "{shards} shards, profiled={profiled}: {count} `{reason}` fallbacks"
                );
            }
        }
    }
}

#[test]
fn unsupported_chip_shapes_count_every_slice_as_a_fallback() {
    let mut chip = ChipConfig::core2_duo(DecapConfig::proc100());
    // A ripple period far beyond the kernel's lookup table.
    chip.ripple = VrmRipple::new(chip.ripple.amplitude(), 1 << 20);
    let (counts, slices) = fallbacks(chip, 2, true);
    assert!(slices > 0, "the run executed no slices");
    assert_eq!(counts, vec![("shape", slices)]);
}
