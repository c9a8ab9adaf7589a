//! End-to-end contract for the streaming telemetry pipeline: the
//! incremental sink must reproduce the in-memory exporter byte for
//! byte (at any worker count), the bounded ring must account for every
//! record it sheds, head-sampling must be a pure function of its seed,
//! and the pipeline must sustain job streams far larger than Full-mode
//! buffering could hold — all without unbounded memory growth.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use vsmooth::chip::ChipConfig;
use vsmooth::obs::{ObsConfig, TelemetryHub};
use vsmooth::pdn::DecapConfig;
use vsmooth::sched::{OnlineDroop, PairPolicy};
use vsmooth::serve::{synthetic_jobs, Service, ServiceConfig, ServiceReport};
use vsmooth::trace::{
    validate_chrome_trace, DropReason, SamplerConfig, StreamConfig, TelemetryStats, Tracer,
};

/// A `Write` target whose bytes survive the sink taking ownership.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counts bytes and discards them: a stand-in for a network or file
/// sink when only the accounting matters.
#[derive(Clone, Default)]
struct CountingWriter(Arc<Mutex<u64>>);

impl CountingWriter {
    fn total(&self) -> u64 {
        *self.0.lock().expect("counter lock")
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        *self.0.lock().expect("counter lock") += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn run_traced(workers: usize, jobs_n: usize, tracer: &Tracer) -> ServiceReport {
    run_traced_with_obs(workers, jobs_n, tracer, None)
}

fn run_traced_with_obs(
    workers: usize,
    jobs_n: usize,
    tracer: &Tracer,
    obs: Option<ObsConfig>,
) -> ServiceReport {
    let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc100()));
    cfg.chips = 3;
    cfg.slice_cycles = 600;
    cfg.obs = obs;
    let service = Service::new(cfg).expect("valid config");
    let jobs = synthetic_jobs(19, jobs_n, 900);
    service
        .run_traced(&jobs, &OnlineDroop as &dyn PairPolicy, workers, tracer)
        .expect("service run")
}

fn streaming_run(workers: usize, jobs_n: usize, cfg: StreamConfig) -> (Vec<u8>, TelemetryStats) {
    let buf = SharedBuf::default();
    let tracer = Tracer::streaming_to_writer(buf.clone(), cfg);
    run_traced(workers, jobs_n, &tracer);
    let stats = tracer
        .finish_stream()
        .expect("streaming tracer")
        .expect("sink flush");
    (buf.bytes(), stats)
}

#[test]
fn streaming_bytes_match_the_batch_exporter_at_every_worker_count() {
    let batch = {
        let tracer = Tracer::enabled();
        run_traced(1, 18, &tracer);
        tracer.to_chrome_json()
    };
    for workers in [1usize, 2, 8] {
        let (bytes, stats) = streaming_run(workers, 18, StreamConfig::default());
        let streamed = String::from_utf8(bytes).expect("utf-8 trace");
        assert_eq!(
            batch, streamed,
            "streaming bytes diverge from batch export at {workers} workers"
        );
        assert_eq!(stats.dropped_total(), 0, "default config must not drop");
        assert_eq!(stats.records_written, stats.records_seen);
        assert_eq!(stats.sink.bytes_flushed, streamed.len() as u64);
    }
    let shape = validate_chrome_trace(&batch).expect("valid Chrome trace");
    assert!(shape.spans > 0 && shape.droops > 0);
}

#[test]
fn obs_recent_ring_never_drains_the_streaming_exporter() {
    // The obs hub's /trace/recent ring and the streaming trace sink
    // both want droop records. They must be fed independently: the
    // merge layer clones crossings into the obs ring, it never pops
    // them out of the Tracer. Attaching a hub to an otherwise
    // identical run must therefore leave the streamed bytes — and all
    // the pipeline accounting — untouched, while the ring still fills.
    let (plain_bytes, plain_stats) = streaming_run(2, 18, StreamConfig::default());

    let hub = Arc::new(TelemetryHub::new());
    let buf = SharedBuf::default();
    let tracer = Tracer::streaming_to_writer(buf.clone(), StreamConfig::default());
    run_traced_with_obs(2, 18, &tracer, Some(ObsConfig::new(Arc::clone(&hub))));
    let observed_stats = tracer
        .finish_stream()
        .expect("streaming tracer")
        .expect("sink flush");

    assert_eq!(
        plain_bytes,
        buf.bytes(),
        "attaching an obs hub must not change the streamed trace bytes"
    );
    assert_eq!(plain_stats.records_seen, observed_stats.records_seen);
    assert_eq!(plain_stats.records_written, observed_stats.records_written);
    assert_eq!(observed_stats.dropped_total(), 0);

    // ... and the ring actually saw the run: droops were cloned in,
    // not diverted from the exporter.
    let snap = hub.latest();
    assert!(
        !snap.recent_droops.is_empty(),
        "the obs ring must hold recent droop crossings after the run"
    );
    assert!(snap.service.as_ref().is_some_and(|s| s.done));
}

#[test]
fn sink_less_ring_overflow_is_typed_and_exact() {
    let cfg = StreamConfig {
        ring_capacity: 32,
        ..StreamConfig::default()
    };
    let tracer = Tracer::streaming(cfg);
    run_traced(1, 18, &tracer);
    let stats = tracer.telemetry().expect("streaming telemetry");
    assert!(
        stats.records_seen > 32,
        "workload too small to overflow the ring"
    );
    // Evict-oldest: exactly (seen - capacity) records shed, all of them
    // attributed to RingFull and nothing else.
    assert_eq!(stats.dropped(DropReason::RingFull), stats.records_seen - 32);
    assert_eq!(stats.dropped(DropReason::SampledOut), 0);
    assert_eq!(stats.dropped(DropReason::SinkError), 0);
    assert_eq!(stats.peak_ring_occupancy, 32);
    assert_eq!(tracer.len(), 32);
}

#[test]
fn sampler_bytes_are_identical_across_identically_seeded_runs() {
    let cfg = || StreamConfig {
        sampler: Some(SamplerConfig {
            seed: 0xfeed_beef,
            keep_per_1024: 128,
            droop_retain_cycles: 4_096,
        }),
        ..StreamConfig::default()
    };
    let (bytes_a, stats_a) = streaming_run(1, 18, cfg());
    let (bytes_b, stats_b) = streaming_run(4, 18, cfg());
    assert_eq!(
        bytes_a, bytes_b,
        "identically seeded samplers must agree byte-for-byte"
    );
    assert_eq!(stats_a.sampler_kept, stats_b.sampler_kept);
    assert_eq!(stats_a.sampler_forced, stats_b.sampler_forced);
    assert_eq!(
        stats_a.dropped(DropReason::SampledOut),
        stats_b.dropped(DropReason::SampledOut)
    );
    assert!(
        stats_a.dropped(DropReason::SampledOut) > 0,
        "a 1/8 keep rate should shed records on this workload"
    );
    assert!(
        stats_a.sampler_forced > 0,
        "droop instants and metadata are always forced through"
    );
    // The sampled stream is still a valid Chrome trace document.
    let doc = String::from_utf8(bytes_a).expect("utf-8 trace");
    validate_chrome_trace(&doc).expect("sampled trace stays well-formed");
}

#[test]
fn bounded_ring_sustains_ten_times_full_mode_volume_without_drops() {
    // Baseline: how many records does Full mode buffer for the standard
    // scenario? The streaming pipeline must absorb >= 10x that volume
    // through a ring a fraction of the size.
    let full = {
        let tracer = Tracer::enabled();
        run_traced(1, 18, &tracer);
        tracer.len() as u64
    };
    assert!(full > 0);

    let writer = CountingWriter::default();
    let cfg = StreamConfig {
        ring_capacity: 512,
        ..StreamConfig::default()
    };
    let capacity = cfg.ring_capacity;
    let tracer = Tracer::streaming_to_writer(writer.clone(), cfg);
    // One service instance, repeated job waves until the pipeline has
    // seen at least 10x the Full-mode record count.
    let mut waves = 0u32;
    while tracer.telemetry().expect("telemetry").records_seen < 10 * full {
        run_traced(2, 18, &tracer);
        waves += 1;
        assert!(waves < 64, "volume target should be reached quickly");
    }
    let stats = tracer
        .finish_stream()
        .expect("streaming tracer")
        .expect("sink flush");
    assert!(stats.records_seen >= 10 * full);
    assert_eq!(
        stats.dropped_total(),
        0,
        "sink-backed ring must not drop with sampling off"
    );
    assert_eq!(stats.records_written, stats.records_seen);
    assert!(
        stats.peak_ring_occupancy < capacity,
        "watermark draining must keep the ring under capacity \
         (peak {} vs capacity {capacity})",
        stats.peak_ring_occupancy
    );
    assert_eq!(stats.sink.bytes_flushed, writer.total());
    assert!(stats.sink.flushes > 1, "chunked flushing should engage");
}
