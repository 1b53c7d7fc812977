//! In-memory spans around the calls the benchmark makes into the
//! library. Spans are recorded only in a traced run; untraced, `span`
//! just calls its closure. The summary is written out when the run
//! ends.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// The span recorder of one run.
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records only if `on`; times count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Spans {
        Spans {
            on,
            origin,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether this run is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`, nested in the innermost
    /// open span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        result
    }

    /// Runs `f` with recording switched off (the untraced baseline a
    /// traced run compares itself against).
    pub fn paused<R>(&mut self, f: impl FnOnce(&mut Spans) -> R) -> R {
        let on = std::mem::replace(&mut self.on, false);
        let result = f(self);
        self.on = on;
        result
    }

    /// Total seconds of every closed span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Total seconds covered by top-level spans.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.end.is_finite())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// One line per span name: count, total seconds and self seconds
    /// (total minus the time its child spans cover).
    pub fn summary(&self) -> String {
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let total = span.end - span.start;
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end - c.start)
                .sum();
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += total - children;
                }
                None => rows.push((span.name.clone(), 1, total, total - children)),
            }
        }
        let mut out =
            String::from("span                              count    total_s     self_s\n");
        for (name, count, total, own) in rows {
            let _ = writeln!(out, "{name:<32} {count:>6} {total:>10.4} {own:>10.4}");
        }
        out
    }
}
