//! Output checks. Each returns `Err` with a reason when an artifact
//! does not match what the program promises; every failure counts in
//! the workload's `failed` total.

use vsmooth::serve::{JobSpec, ServiceReport};
use vsmooth::trace::export::validate_chrome_trace;

/// The series a streaming tracer records from the host clock: the
/// wall-clock latency of each chunk write. It is operational telemetry
/// and differs on every run by design.
const WALL_CLOCK_SERIES: &str = "telemetry_flush_latency_us";

/// `ServiceReport::render()` without the wall-clock series, i.e. every
/// line that must repeat exactly for identical inputs.
pub fn deterministic_render(report: &ServiceReport) -> String {
    report
        .render()
        .lines()
        .filter(|line| !line.contains(WALL_CLOCK_SERIES))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Every submitted job completed, each exactly once.
pub fn jobs_complete(jobs: &[JobSpec], report: &ServiceReport) -> Result<(), String> {
    if report.jobs_submitted != jobs.len() || report.jobs_completed != jobs.len() {
        return Err(format!(
            "{} of {} submitted jobs completed (report says {} submitted)",
            report.jobs_completed,
            jobs.len(),
            report.jobs_submitted
        ));
    }
    let mut done: Vec<u64> = report.completed.iter().map(|c| c.spec.id).collect();
    done.sort_unstable();
    let mut want: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    want.sort_unstable();
    if done != want {
        return Err("completed job ids differ from the submitted ids".into());
    }
    Ok(())
}

/// Two renderings of one artifact are byte-identical.
pub fn identical(what: &str, a: &[u8], b: &[u8]) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    Err(format!(
        "{what} differs: {} vs {} bytes, first difference at byte {at}",
        a.len(),
        b.len()
    ))
}

/// A streamed trace parses as a Chrome trace document and lost no
/// record on the way.
pub fn trace_valid(bytes: &[u8], dropped: u64) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("trace is not UTF-8: {e}"))?;
    let shape = validate_chrome_trace(text).map_err(|e| format!("invalid trace: {e}"))?;
    if shape.events == 0 {
        return Err("trace holds no events".into());
    }
    if dropped != 0 {
        return Err(format!("trace pipeline dropped {dropped} records"));
    }
    Ok(())
}

/// A campaign produced one run per entry of its specification.
pub fn run_count(what: &str, runs: usize, spec_len: usize) -> Result<(), String> {
    if runs == spec_len {
        Ok(())
    } else {
        Err(format!("{what}: {runs} runs for a {spec_len}-entry spec"))
    }
}

/// Σ(owned + stolen) slices over the shards equals the service's own
/// slice counter: proof the run went through the shard runtime.
pub fn sharded_slices(shard_slices: u64, serve_slices: u64) -> Result<(), String> {
    if shard_slices == serve_slices && serve_slices > 0 {
        Ok(())
    } else {
        Err(format!(
            "shards ran {shard_slices} slices, service counted {serve_slices}"
        ))
    }
}

/// Fast-kernel and reference-loop slice statistics agree bit for bit.
pub fn slices_bit_identical(
    what: &str,
    reference: &[vsmooth::chip::SliceStats],
    other: &[vsmooth::chip::SliceStats],
) -> Result<(), String> {
    if reference.len() != other.len() {
        return Err(format!(
            "{what}: {} slices vs {} reference slices",
            other.len(),
            reference.len()
        ));
    }
    for (i, (r, o)) in reference.iter().zip(other).enumerate() {
        // The Debug rendering prints every f64 in shortest round-trip
        // form, so equal text means equal bits.
        if format!("{r:?}") != format!("{o:?}") {
            return Err(format!("{what}: slice {i} differs from the reference loop"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth::chip::{ChipConfig, SliceStats};
    use vsmooth::pdn::DecapConfig;
    use vsmooth::sched::OnlineDroop;
    use vsmooth::serve::{synthetic_jobs, Service, ServiceConfig};

    fn small_run() -> (Vec<JobSpec>, ServiceReport) {
        let mut cfg = ServiceConfig::new(ChipConfig::core2_duo(DecapConfig::proc3()));
        cfg.chips = 2;
        cfg.slice_cycles = 500;
        let jobs = synthetic_jobs(3, 4, 1_000);
        let report = Service::new(cfg)
            .expect("valid config")
            .run(&jobs, &OnlineDroop, 1)
            .expect("service run");
        (jobs, report)
    }

    #[test]
    fn jobs_complete_rejects_a_missing_or_foreign_job() {
        let (jobs, report) = small_run();
        assert!(jobs_complete(&jobs, &report).is_ok());
        let mut short = report.clone();
        short.jobs_completed -= 1;
        short.completed.pop();
        assert!(jobs_complete(&jobs, &short).is_err());
        let mut foreign = report;
        foreign.completed[0].spec.id = 999;
        assert!(jobs_complete(&jobs, &foreign).is_err());
    }

    #[test]
    fn deterministic_render_drops_only_the_wall_clock_series() {
        let (_, mut report) = small_run();
        let plain = deterministic_render(&report);
        assert_eq!(plain, report.render());
        report
            .metrics
            .push_str("histogram telemetry_flush_latency_us n=1\n");
        assert_eq!(deterministic_render(&report), plain);
        report
            .metrics
            .push_str("counter   telemetry_flushes_total 1\n");
        assert_ne!(deterministic_render(&report), plain);
    }

    #[test]
    fn identical_rejects_one_changed_byte() {
        assert!(identical("x", b"abc", b"abc").is_ok());
        let err = identical("x", b"abc", b"abd").expect_err("must differ");
        assert!(err.contains("byte 2"), "{err}");
        assert!(identical("x", b"abc", b"ab").is_err());
    }

    #[test]
    fn trace_valid_rejects_garbage_empty_and_drops() {
        let doc = br#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}"#;
        assert!(trace_valid(doc, 0).is_ok());
        assert!(trace_valid(doc, 1).is_err());
        assert!(trace_valid(br#"{"traceEvents":[]}"#, 0).is_err());
        assert!(trace_valid(b"{\"traceEvents\":[", 0).is_err());
    }

    #[test]
    fn run_count_and_sharded_slices_reject_mismatches() {
        assert!(run_count("c", 48, 48).is_ok());
        assert!(run_count("c", 47, 48).is_err());
        assert!(sharded_slices(10, 10).is_ok());
        assert!(sharded_slices(9, 10).is_err());
        assert!(sharded_slices(0, 0).is_err());
    }

    #[test]
    fn slices_bit_identical_rejects_a_last_bit_change() {
        let a = SliceStats {
            cycles: 10,
            droops: 1,
            max_droop_pct: 1.25,
            mean_dev_pct: -0.5,
            core_deltas: Vec::new(),
        };
        let mut b = a.clone();
        let a = std::slice::from_ref(&a);
        assert!(slices_bit_identical("k", a, std::slice::from_ref(&b)).is_ok());
        b.mean_dev_pct = f64::from_bits(b.mean_dev_pct.to_bits() + 1);
        assert!(slices_bit_identical("k", a, &[b]).is_err());
        assert!(slices_bit_identical("k", a, &[]).is_err());
    }
}
