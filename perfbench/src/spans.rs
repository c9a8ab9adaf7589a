//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every call it makes into a layer's
//! public functions; callbacks the library makes back into the harness
//! (the timing trace writer, the obs publish hook) open child spans
//! under whichever call is current. Spans stay in memory until the run
//! ends and are then written out once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::{json_num, json_str};

/// One finished span. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The workload run this span belongs to; all spans of one run
    /// share it.
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    next_id: AtomicU64,
    /// Id of the innermost open harness span (0 = none): the parent of
    /// spans opened from library callbacks.
    current: AtomicU64,
    current_run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            base: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            current_run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; records itself when dropped.
pub struct Open<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    run: u64,
    name: &'static str,
    start_ns: u64,
    restore: Option<u64>,
}

impl Open<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        if let Some(prev) = self.restore {
            self.rec.current.store(prev, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: self.run,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned lock only means another recording thread
        // panicked; the span list itself is still whole.
        match self.rec.spans.lock() {
            Ok(mut spans) => spans.push(span),
            Err(poisoned) => poisoned.into_inner().push(span),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new workload run: spans opened until the next call
    /// share the returned run id.
    pub fn begin_run(&self) -> u64 {
        self.current_run.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Opens a harness span under `parent` and makes it the parent of
    /// library callbacks until it closes.
    pub fn enter(&self, name: &'static str, parent: Option<u64>) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let prev = self.current.swap(id, Ordering::SeqCst);
        Open {
            rec: self,
            id,
            parent,
            run: self.current_run.load(Ordering::SeqCst),
            name,
            start_ns: self.now_ns(),
            restore: Some(prev),
        }
    }

    /// Opens a harness span under the current one.
    pub fn child(&self, name: &'static str) -> Open<'_> {
        let current = self.current.load(Ordering::SeqCst);
        self.enter(name, (current != 0).then_some(current))
    }

    /// Opens a span from a library callback, under the current harness
    /// span.
    pub fn callback(&self, name: &'static str) -> Open<'_> {
        let current = self.current.load(Ordering::SeqCst);
        Open {
            rec: self,
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            parent: (current != 0).then_some(current),
            run: self.current_run.load(Ordering::SeqCst),
            name,
            start_ns: self.now_ns(),
            restore: None,
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.enter(name, parent);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        drop(open);
        (out, secs)
    }

    /// Every span recorded so far, in start order.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = match self.spans.lock() {
            Ok(spans) => spans.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the part of it that
/// the union of its children's intervals covers (children on several
/// threads may overlap each other).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals: (count, total ns, self ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// The span file: every span with its self time, then per-name totals.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    out.push_str("{\"schema\":\"vsmooth-perfbench-spans-v1\",");
    out.push_str(&format!(
        "\"workload\":{},\"seed\":{seed},",
        json_str(workload)
    ));
    out.push_str("\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{},\"run\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.run,
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0)
        ));
    }
    out.push_str("\n],\"self_time\":[");
    for (i, (name, (count, total, own))) in by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":{},\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
            json_str(name),
            json_num(*total as f64 / 1e6),
            json_num(*own as f64 / 1e6)
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..50 overlap (two
        // threads), plus 90..120 spilling past the parent's end.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn callbacks_nest_under_the_open_harness_span() {
        let rec = Recorder::default();
        let run = rec.begin_run();
        {
            let outer = rec.enter("outer", None);
            let outer_id = outer.id();
            drop(rec.callback("cb"));
            drop(outer);
            let spans = rec.finish();
            let cb = spans
                .iter()
                .find(|s| s.name == "cb")
                .expect("callback span");
            assert_eq!(cb.parent, Some(outer_id));
            assert!(spans.iter().all(|s| s.run == run));
        }
        drop(rec.callback("orphan"));
        let orphan = rec.finish().into_iter().find(|s| s.name == "orphan");
        assert_eq!(orphan.expect("orphan span").parent, None);
    }
}
