//! In-memory spans around the benchmark's calls into each layer, and
//! counter deltas read from the `soup-obs` registry at the same places.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub rep: usize,
}

/// Handle of an open span; closing it yields the elapsed seconds whether
/// or not the span is kept.
pub struct Open {
    id: u64,
    name: String,
    layer: &'static str,
    start: Instant,
}

/// Times every call it wraps; keeps the spans only while `on`.
pub struct Tracer {
    origin: Instant,
    pub on: bool,
    pub rep: usize,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            on: false,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread: same time origin and switch, spans
    /// parented under this tracer's innermost open span. Hand it back with
    /// [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            on: self.on,
            rep: self.rep,
            stack: self.stack.last().copied().into_iter().collect(),
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    pub fn open(&mut self, layer: &'static str, name: impl Into<String>) -> Open {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let open = Open {
            id,
            name: name.into(),
            layer,
            start: Instant::now(),
        };
        self.stack.push(id);
        open
    }

    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.id), "spans close innermost first");
        if self.on {
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                layer: open.layer,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Run `f` inside a span; returns its result and the seconds it took.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(layer, name);
        let out = f();
        (out, self.close(open))
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Seconds inside spans of `rep` that no child span covers, summed per
    /// layer. Children on other threads may overlap each other, so a
    /// parent's self time saturates at zero.
    pub fn self_seconds_by_layer(&self, rep: usize) -> BTreeMap<&'static str, f64> {
        let child_ns = self.child_ns();
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.rep == rep) {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    fn child_ns(&self) -> BTreeMap<u64, u64> {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_insert(0) += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let child_ns = self.child_ns();
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":{:?},\"layer\":{:?},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"rep\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                parent,
                s.rep,
                (s.end_ns - s.start_ns).saturating_sub(covered)
            )?;
        }
        w.flush()
    }
}

/// The registry's counters, gauges and histogram digests at one instant.
pub struct Counters {
    snap: soup_obs::registry::MetricsSnapshot,
}

impl Counters {
    pub fn now() -> Self {
        Self {
            snap: soup_obs::registry::snapshot(),
        }
    }

    /// Counter totals gathered elsewhere (a worker process's registry).
    pub fn from_totals(totals: BTreeMap<String, u64>) -> Self {
        Self {
            snap: soup_obs::registry::MetricsSnapshot {
                counters: totals.into_iter().collect(),
                ..Default::default()
            },
        }
    }

    pub fn empty() -> Self {
        Self::from_totals(BTreeMap::new())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.snap
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Growth of counter `name` since `earlier`.
    pub fn delta(&self, earlier: &Counters, name: &str) -> f64 {
        self.counter(name).saturating_sub(earlier.counter(name)) as f64
    }
}
