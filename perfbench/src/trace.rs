//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions:
//! name, start, end, parent and op id, kept in memory per thread and
//! written out once at exit as Chrome trace-event JSON plus a per-layer
//! self-time table. A disabled trace records nothing: [`Trace::span`]
//! just runs its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the run's trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// The op this span belongs to (`None` outside ops: set-up, probes).
    pub op: Option<u64>,
    /// Recording thread (0 = main).
    pub tid: u32,
    /// True for spans laid out from a layer's own profile counters (the
    /// host's load/compute/store phases) rather than timed by the bench.
    pub derived: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Trace {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u64>,
}

impl Trace {
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Trace {
            on,
            origin,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// Runs `f` inside a span called `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
            derived: false,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as op `id`: a root span called `name` whose descendants
    /// all carry the op id.
    pub fn op<R>(&mut self, id: u64, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let outer = self.op.replace(id);
        let out = self.span(name, f);
        self.op = outer;
        out
    }

    /// Lays `parts` end to end as derived children of the most recently
    /// closed span called `parent_name` — how phases a layer profiles
    /// itself (and the bench cannot wrap) enter the trace.
    pub fn derive_children(&mut self, parent_name: &'static str, parts: &[(&'static str, u64)]) {
        if !self.on {
            return;
        }
        let Some(parent) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let (mut at, end, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op)
        };
        for &(name, dur) in parts {
            let stop = (at + dur).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                op,
                tid: self.tid,
                derived: true,
            });
            at = stop;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// All spans of one run, from every thread, with the per-layer views.
pub struct Recording {
    /// Spans grouped by thread; parent indices refer within each group.
    pub threads: Vec<Vec<Span>>,
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

impl Recording {
    /// Child-covered nanoseconds of every span, per thread.
    fn child_ns(spans: &[Span]) -> Vec<u64> {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        covered
    }

    /// Calls, total and self time per span name. Self time is a span's
    /// duration minus the part its children cover.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for spans in &self.threads {
            let covered = Self::child_ns(spans);
            for (s, c) in spans.iter().zip(&covered) {
                let e = out.entry(s.name).or_default();
                e.calls += 1;
                e.total_ns += s.dur_ns();
                e.self_ns += s.dur_ns().saturating_sub(*c);
            }
        }
        out
    }

    /// Per op root span: (duration, nanoseconds its children cover).
    pub fn op_coverage(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for spans in &self.threads {
            let covered = Self::child_ns(spans);
            for (s, c) in spans.iter().zip(&covered) {
                if s.parent.is_none() && s.op.is_some() {
                    out.push((s.dur_ns(), *c));
                }
            }
        }
        out
    }

    /// The recording as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), loadable in Perfetto or chrome://tracing.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        let mut first = true;
        for spans in &self.threads {
            for (i, sp) in spans.iter().enumerate() {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(
                    s,
                    "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"op\":{},\"derived\":{}}}}}",
                    sp.name,
                    sp.name.split('.').next().unwrap_or(sp.name),
                    sp.start_ns as f64 / 1e3,
                    sp.dur_ns() as f64 / 1e3,
                    sp.tid,
                    i,
                    sp.parent.map_or("null".to_string(), |p| p.to_string()),
                    sp.op.map_or("null".to_string(), |o| o.to_string()),
                    sp.derived,
                );
            }
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        s
    }

    /// The per-layer self-time table, one row per span name.
    pub fn self_time_table(&self) -> String {
        let layers = self.layers();
        let total_self: u64 = layers.values().map(|l| l.self_ns).sum();
        let mut s = format!(
            "{:<26} {:>8} {:>12} {:>12} {:>8}\n",
            "span", "calls", "total_ms", "self_ms", "self_%"
        );
        for (name, l) in &layers {
            let _ = writeln!(
                s,
                "{:<26} {:>8} {:>12.3} {:>12.3} {:>8.2}",
                name,
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / total_self.max(1) as f64
            );
        }
        s
    }
}
