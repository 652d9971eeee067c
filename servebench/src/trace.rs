//! Spans recorded by the benchmark around every client call and every
//! direct layer call: name, start, end, parent and request id. Spans stay
//! in memory and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's span recorder. Ids are unique across recorders that share
/// an epoch because each recorder owns a distinct `lane` prefix.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

/// Parent id of a root span.
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Tracer {
        Tracer { on, epoch, lane, next: 0, spans: Vec::new() }
    }

    /// Turn recording on or off for the spans that follow.
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f`, recording it as span `name` when tracing is on. Returns
    /// the result and the span's id (0 when off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        if !self.on {
            return (f(), 0);
        }
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        (out, id)
    }

    /// Reserve an id for a span whose extent is recorded later with
    /// [`Tracer::close`] (a parent that encloses other spans).
    pub fn open(&mut self, start: Instant) -> (u64, Instant) {
        self.next += 1;
        ((self.lane << 40) | self.next, start)
    }

    pub fn close(&mut self, opened: (u64, Instant), name: &'static str, parent: u64) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(opened.1), self.ns(Instant::now()));
            self.spans.push(Span { id: opened.0, parent, req: 0, name, start_ns, end_ns });
        }
    }

    /// Durations in microseconds of every span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }
}

/// Write spans as JSON lines, sorted by start.
pub fn write_spans(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 3);
        let outer = t.open(Instant::now());
        let (v, child) = t.span("child", outer.0, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(v, 42);
        t.close(outer, "outer", ROOT);
        assert_eq!(t.spans.len(), 2);
        let c = &t.spans[0];
        assert_eq!((c.id, c.parent, c.req, c.name), (child, outer.0, 7, "child"));
        assert_eq!(child >> 40, 3, "ids carry the recorder's lane");
        assert!(c.micros() >= 2000.0);
        assert!(t.spans[1].micros() >= c.micros(), "the parent encloses its child");

        let mut off = Tracer::new(false, epoch, 1);
        let (v, id) = off.span("x", ROOT, 0, || 5);
        assert_eq!((v, id), (5, 0));
        let opened = off.open(Instant::now());
        off.close(opened, "y", ROOT);
        assert!(off.spans.is_empty());
    }
}
