//! In-memory spans around the layer calls the benchmark makes.
//!
//! Every layer call goes through [`Tracer::call`], which always returns
//! the call's host time (the untraced run builds its end-to-end metrics
//! from those) and, when tracing is on, also records a [`Span`]. Spans
//! stay in memory until the run ends and are then written out as JSON.

use std::collections::BTreeMap;
use std::path::Path;
// lint:allow(wall-clock) the benchmark measures host time; nothing here feeds the simulation
use std::time::Instant;

use attila_json::Json;

/// Host time since the clock started: the benchmark's only clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        // lint:allow(wall-clock) see the import above
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One timed call: its name, the pass it belongs to, the span it ran
/// inside, and its start and end in nanoseconds since the tracer began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while switched on; a pure stopwatch while off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Clock,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Clock::start(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off; later calls follow the new setting.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    /// Tags the spans recorded from now on with pass id `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span that later calls nest under until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.origin.ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Runs `f` and returns its result with its host time in seconds,
    /// recording a span named `name` when tracing is on.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = self.origin.ns();
        let out = f();
        let end_ns = self.origin.ns();
        if self.on {
            self.spans.push(Span {
                name,
                pass: self.pass,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
            });
        }
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per `(pass, span name)`: each span's duration
    /// minus the part of it that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children) as f64 * 1e-9;
            *out.entry((span.pass, span.name)).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("pass".into(), Json::Num(f64::from(s.pass))),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).render())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_recording(true);
        t.set_pass(3);
        t.open("pass");
        let (v, secs) = t.call("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close();
        assert_eq!(v, ());
        assert!(secs >= 0.005);
        let times = t.self_times();
        assert!(times[&(3, "leaf")] >= 0.005);
        assert!(times[&(3, "pass")] < times[&(3, "leaf")]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new();
        t.open("pass");
        let (_, secs) = t.call("leaf", || ());
        t.close();
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
