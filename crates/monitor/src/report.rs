//! The end-of-run [`HealthReport`]: alerts, postmortems, and the
//! final windowed signals, with deterministic JSON/text renders and a
//! metrics exporter.

use crate::recorder::{alert_json, PostmortemBundle};
use crate::slo::{Alert, AlertPhase, Severity};
use crate::window::WindowSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use vsmooth_stats::MetricsRegistry;
use vsmooth_trace::{escape_json, json_f64};

/// Schema tag stamped on every health-report JSON document.
pub const HEALTH_SCHEMA: &str = "vsmooth-health-v1";

/// Everything the monitor observed over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Epochs evaluated.
    pub epochs: u64,
    /// The final window snapshot.
    pub last: WindowSnapshot,
    /// Every alert fired, in firing order (resolved ones carry their
    /// resolution cycle).
    pub alerts: Vec<Alert>,
    /// One sealed postmortem per fired alert, in firing order.
    pub postmortems: Vec<PostmortemBundle>,
    /// Final lifecycle phase of each rule, in declaration order.
    pub rule_phases: Vec<(String, AlertPhase)>,
}

/// The compact health digest embedded in `ServiceReport` (kept small
/// and `Serialize`/`PartialEq` so report equality checks stay cheap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// Epochs evaluated.
    pub epochs: u64,
    /// Alerts fired over the run.
    pub alerts_fired: usize,
    /// Of those, alerts that resolved before the run ended.
    pub alerts_resolved: usize,
    /// Postmortem bundles sealed.
    pub postmortems: usize,
    /// Paging-severity alerts still firing when the run ended.
    pub pages_firing: usize,
    /// Final windowed droop rate, events per kilocycle.
    pub droop_rate_per_kilocycle: f64,
    /// Final windowed mean voltage margin, percent.
    pub mean_margin_pct: f64,
    /// Final windowed throttle fraction.
    pub throttle_fraction: f64,
}

/// A cheap live health view taken from a running [`Monitor`] without
/// cloning alerts or postmortems: current rule phases, alert tallies,
/// and the latest window snapshot. This is what the `/healthz`
/// endpoint renders between epochs — `healthy()` applies the same
/// paging-severity definition as [`HealthReport::pages_firing`].
///
/// [`Monitor`]: crate::Monitor
#[derive(Debug, Clone, PartialEq)]
pub struct HealthStatus {
    /// Epochs evaluated so far.
    pub epochs: u64,
    /// Alerts fired so far.
    pub alerts_fired: usize,
    /// Of those, alerts already resolved.
    pub alerts_resolved: usize,
    /// Rules currently in the firing phase, in declaration order.
    pub firing: Vec<(String, Severity)>,
    /// The most recent window snapshot.
    pub last: WindowSnapshot,
}

impl HealthStatus {
    /// Firing rules at paging severity.
    pub fn pages_firing(&self) -> usize {
        self.firing.iter().filter(|(_, s)| s.pages()).count()
    }

    /// True when no paging-severity alert is firing.
    pub fn healthy(&self) -> bool {
        self.pages_firing() == 0
    }

    /// `"OK"` or `"FIRING"` — the marker CI greps and `/healthz` maps
    /// to 200/503.
    pub fn verdict(&self) -> &'static str {
        verdict(self.pages_firing())
    }

    /// Plain-text body for `/healthz`: one verdict line plus the
    /// firing rules and windowed signals behind it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ({} epochs, {} alerts fired, {} resolved, {} paging)",
            self.verdict(),
            self.epochs,
            self.alerts_fired,
            self.alerts_resolved,
            self.pages_firing(),
        );
        for (rule, severity) in &self.firing {
            let _ = writeln!(out, "firing [{}] {rule}", severity.label());
        }
        let _ = writeln!(
            out,
            "window: droop_rate={:.4}/kcycle mean_margin={:.4}% min_margin={:.4}% throttle={:.4}",
            self.last.droop_rate_per_kilocycle,
            self.last.mean_margin_pct,
            self.last.min_margin_pct,
            self.last.throttle_fraction,
        );
        out
    }
}

/// The shared health verdict: `"OK"` when no paging-severity alert is
/// firing, `"FIRING"` otherwise.
pub fn verdict(pages_firing: usize) -> &'static str {
    if pages_firing == 0 {
        "OK"
    } else {
        "FIRING"
    }
}

impl HealthReport {
    /// Paging-severity alerts still unresolved at the end of the run.
    pub fn pages_firing(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.severity.pages() && a.resolved_at_cycle.is_none())
            .count()
    }

    /// `"OK"` or `"FIRING"`, per the shared [`verdict`] definition.
    pub fn verdict(&self) -> &'static str {
        verdict(self.pages_firing())
    }

    /// The compact digest for embedding in service reports.
    pub fn summary(&self) -> HealthSummary {
        HealthSummary {
            epochs: self.epochs,
            alerts_fired: self.alerts.len(),
            alerts_resolved: self
                .alerts
                .iter()
                .filter(|a| a.resolved_at_cycle.is_some())
                .count(),
            postmortems: self.postmortems.len(),
            pages_firing: self.pages_firing(),
            droop_rate_per_kilocycle: self.last.droop_rate_per_kilocycle,
            mean_margin_pct: self.last.mean_margin_pct,
            throttle_fraction: self.last.throttle_fraction,
        }
    }

    /// Registers the run's health series in a metrics registry:
    /// `alerts_total{rule,severity}` per alert,
    /// `monitor_postmortems_total`, and the final windowed gauges.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        for alert in &self.alerts {
            metrics.counter_with(
                "alerts_total",
                &[("rule", &alert.rule), ("severity", alert.severity.label())],
                1,
            );
        }
        metrics.counter_add("monitor_postmortems_total", self.postmortems.len() as u64);
        metrics.counter_add("monitor_epochs_total", self.epochs);
        metrics.gauge_set(
            "monitor_droop_rate_per_kilocycle",
            self.last.droop_rate_per_kilocycle,
        );
        metrics.gauge_set("monitor_mean_margin_pct", self.last.mean_margin_pct);
        metrics.gauge_set("monitor_min_margin_pct", self.last.min_margin_pct);
        metrics.gauge_set("monitor_throttle_fraction", self.last.throttle_fraction);
        metrics.gauge_set("monitor_mean_queue_depth", self.last.mean_queue_depth);
    }

    /// Deterministic `vsmooth-health-v1` JSON. Postmortem bundles are
    /// embedded verbatim, so the document also contains each
    /// `vsmooth-postmortem-v1` sub-document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\n  \"schema\": \"{HEALTH_SCHEMA}\",\n  \"epochs\": {},\n  \"last_window\": ",
            self.epochs
        ));
        out.push_str(&format!(
            "{{\"end_cycle\": {}, \"cycles\": {}, \"droops\": {}, \
             \"droop_rate_per_kilocycle\": {}, \"mean_margin_pct\": {}, \"min_margin_pct\": {}, \
             \"throttle_fraction\": {}, \"mean_queue_depth\": {}}}",
            self.last.end_cycle,
            self.last.cycles,
            self.last.droops,
            json_f64(self.last.droop_rate_per_kilocycle),
            json_f64(self.last.mean_margin_pct),
            json_f64(self.last.min_margin_pct),
            json_f64(self.last.throttle_fraction),
            json_f64(self.last.mean_queue_depth),
        ));
        out.push_str(",\n  \"rule_phases\": [");
        for (i, (name, phase)) in self.rule_phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rule\": \"{}\", \"phase\": \"{}\"}}",
                escape_json(name),
                phase.label()
            ));
        }
        out.push_str("],\n  \"alerts\": [\n");
        for (i, alert) in self.alerts.iter().enumerate() {
            out.push_str("    ");
            alert_json(&mut out, alert);
            out.push_str(if i + 1 == self.alerts.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"postmortems\": [\n");
        for (i, pm) in self.postmortems.iter().enumerate() {
            // Indent the embedded bundle two levels for readability;
            // re-indentation is whitespace-only, so the sub-document
            // still parses and carries its own schema tag.
            let body = pm.to_json();
            for line in body.trim_end().lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            if i + 1 != self.postmortems.len() {
                out.truncate(out.trim_end().len());
                out.push_str(",\n");
            }
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable health digest, deterministic for equal reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let firing = if self.pages_firing() > 0 {
            " [FIRING]"
        } else {
            ""
        };
        let _ = writeln!(out, "health: {} epochs evaluated{firing}", self.epochs);
        let _ = writeln!(
            out,
            "  window: droop_rate={:.4}/kcycle mean_margin={:.4}% min_margin={:.4}% throttle={:.4} queue={:.2}",
            self.last.droop_rate_per_kilocycle,
            self.last.mean_margin_pct,
            self.last.min_margin_pct,
            self.last.throttle_fraction,
            self.last.mean_queue_depth,
        );
        for (name, phase) in &self.rule_phases {
            let _ = writeln!(out, "  rule {name:<24} {}", phase.label());
        }
        if self.alerts.is_empty() {
            let _ = writeln!(out, "  alerts: none");
        }
        for alert in &self.alerts {
            let resolved = match alert.resolved_at_cycle {
                Some(c) => format!("resolved@{c}"),
                None => "unresolved".to_string(),
            };
            let _ = writeln!(
                out,
                "  alert [{}] {} fired@{} ({}) droops={} rate={:.4}",
                alert.severity.label(),
                alert.rule,
                alert.fired_at_cycle,
                resolved,
                alert.window.droops,
                alert.window.droop_rate_per_kilocycle,
            );
        }
        let _ = writeln!(out, "  postmortems sealed: {}", self.postmortems.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::validate_postmortem;
    use crate::recorder::{FlightRecorder, RecorderConfig};
    use crate::slo::Severity;
    use vsmooth_trace::parse_json;

    fn report_with_alert() -> HealthReport {
        let window = WindowSnapshot {
            end_cycle: 8_000,
            epochs: 4,
            cycles: 4_000,
            droops: 12,
            droop_rate_per_kilocycle: 3.0,
            mean_margin_pct: 1.1,
            min_margin_pct: -0.2,
            throttle_fraction: 0.3,
            mean_queue_depth: 2.0,
        };
        let alert = Alert {
            rule: "droop_rate_anomaly".into(),
            severity: Severity::Warning,
            fired_at_cycle: 8_000,
            resolved_at_cycle: Some(15_000),
            window: window.clone(),
        };
        let recorder = FlightRecorder::new(RecorderConfig::default());
        let pm = recorder.seal(&alert);
        HealthReport {
            epochs: 20,
            last: window,
            alerts: vec![alert],
            postmortems: vec![pm],
            rule_phases: vec![("droop_rate_anomaly".into(), AlertPhase::Idle)],
        }
    }

    #[test]
    fn summary_counts_fired_and_resolved() {
        let s = report_with_alert().summary();
        assert_eq!(s.epochs, 20);
        assert_eq!(s.alerts_fired, 1);
        assert_eq!(s.alerts_resolved, 1);
        assert_eq!(s.postmortems, 1);
        assert!((s.droop_rate_per_kilocycle - 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_parses_and_embeds_postmortem_schema() {
        let report = report_with_alert();
        let json = report.to_json();
        let doc = parse_json(&json).expect("health JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(HEALTH_SCHEMA)
        );
        assert_eq!(doc.get("epochs").and_then(|v| v.as_f64()), Some(20.0));
        let alerts = doc.get("alerts").and_then(|v| v.as_array()).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].get("resolved_at_cycle").and_then(|v| v.as_f64()),
            Some(15_000.0)
        );
        // The embedded bundle is itself a valid postmortem document.
        let pms = doc.get("postmortems").and_then(|v| v.as_array()).unwrap();
        assert_eq!(pms.len(), 1);
        assert_eq!(
            pms[0].get("schema").and_then(|v| v.as_str()),
            Some(crate::recorder::POSTMORTEM_SCHEMA)
        );
        assert!(json.contains("vsmooth-postmortem-v1"));
    }

    #[test]
    fn standalone_postmortem_json_still_validates() {
        let report = report_with_alert();
        let json = report.postmortems[0].to_json();
        validate_postmortem(&json).expect("bundle validates standalone");
    }

    #[test]
    fn json_and_render_are_deterministic() {
        let a = report_with_alert();
        let b = report_with_alert();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("alert [warning] droop_rate_anomaly"));
    }

    #[test]
    fn export_metrics_registers_alert_and_gauge_series() {
        let report = report_with_alert();
        let metrics = MetricsRegistry::new();
        report.export_metrics(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter_labeled(
                "alerts_total",
                &[("rule", "droop_rate_anomaly"), ("severity", "warning")]
            ),
            1
        );
        assert_eq!(snap.counter("monitor_postmortems_total"), 1);
        assert_eq!(snap.gauge("monitor_throttle_fraction"), Some(0.3));
        assert!(snap.render_prometheus().contains("alerts_total"));
    }

    #[test]
    fn unresolved_paging_alert_flips_the_verdict() {
        let mut report = report_with_alert();
        // A resolved warning neither pages nor marks the render.
        assert_eq!(report.pages_firing(), 0);
        assert_eq!(report.verdict(), "OK");
        assert!(!report.render().contains("[FIRING]"));
        assert_eq!(report.summary().pages_firing, 0);

        // An unresolved critical alert is the one shared definition
        // of unhealthy: summary, render marker, and verdict all flip.
        report.alerts.push(Alert {
            rule: "recovery_budget_burn".into(),
            severity: Severity::Critical,
            fired_at_cycle: 9_000,
            resolved_at_cycle: None,
            window: report.last.clone(),
        });
        assert_eq!(report.pages_firing(), 1);
        assert_eq!(report.verdict(), "FIRING");
        assert!(report.render().contains("[FIRING]"));
        assert_eq!(report.summary().pages_firing, 1);

        // An unresolved *warning* does not page.
        report.alerts.last_mut().unwrap().severity = Severity::Warning;
        assert_eq!(report.pages_firing(), 0);
        assert_eq!(report.verdict(), "OK");
    }

    #[test]
    fn health_status_applies_the_same_paging_definition() {
        let status = HealthStatus {
            epochs: 12,
            alerts_fired: 2,
            alerts_resolved: 1,
            firing: vec![("droop_rate_anomaly".into(), Severity::Warning)],
            last: WindowSnapshot::default(),
        };
        assert!(status.healthy());
        assert_eq!(status.verdict(), "OK");
        assert!(status.render().starts_with("OK"));

        let paging = HealthStatus {
            firing: vec![
                ("droop_rate_anomaly".into(), Severity::Warning),
                ("recovery_budget_burn".into(), Severity::Critical),
            ],
            ..status
        };
        assert_eq!(paging.pages_firing(), 1);
        assert!(!paging.healthy());
        assert_eq!(paging.verdict(), "FIRING");
        assert!(paging.render().starts_with("FIRING"));
        assert!(paging
            .render()
            .contains("firing [critical] recovery_budget_burn"));
    }

    #[test]
    fn empty_report_renders_and_serializes() {
        let report = HealthReport {
            epochs: 0,
            last: WindowSnapshot::default(),
            alerts: vec![],
            postmortems: vec![],
            rule_phases: vec![],
        };
        assert!(report.render().contains("alerts: none"));
        let doc = parse_json(&report.to_json()).expect("parses");
        assert_eq!(
            doc.get("alerts")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(0)
        );
    }
}
