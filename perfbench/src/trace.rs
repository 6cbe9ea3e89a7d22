//! Host-time spans recorded from outside the program, around each call
//! into a layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), a scope (the scheme or cell it
//! worked on), a lane (the thread it ran on), start and end, and the span
//! that opened it. Spans stay in memory until the run ends; then
//! [`Tracer::attribute`] folds them into self time per layer and
//! [`Tracer::write_chrome_trace`] writes them once through the
//! `bda-obs` trace writer. A disabled tracer records nothing and never
//! reads the clock.

use std::sync::Mutex;
use std::time::Instant;

use bda_obs::TraceBuilder;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub scope: String,
    pub lane: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; it closes when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: Option<usize>,
    lane: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &str, scope: &str, parent: Option<usize>, lane: u64) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                id: None,
                lane,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(SpanRec {
            name: name.to_string(),
            scope: scope.to_string(),
            lane,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Span {
            tracer: self,
            id: Some(spans.len() - 1),
            lane,
        }
    }

    /// Open a top-level span on the main lane.
    pub fn root(&self, name: &str, scope: &str) -> Span<'_> {
        self.open(name, scope, None, 0)
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Fold the recorded spans into self time per layer. A span's self
    /// time is its duration minus the part of it its child spans cover;
    /// the self time of top-level spans is what no layer accounts for.
    pub fn attribute(&self) -> Attribution {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = Attribution::default();
        for (i, s) in spans.iter().enumerate() {
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let self_s = s.dur_ns().saturating_sub(covered) as f64 / 1e9;
            if s.parent.is_none() {
                out.wall_s += s.dur_ns() as f64 / 1e9;
                out.unattributed_s += self_s;
            } else {
                *out.by_layer.entry(s.layer().to_string()).or_default() += self_s;
            }
        }
        out
    }

    /// Write every span as a Chrome trace-event document (microseconds).
    pub fn write_chrome_trace(&self, path: &std::path::Path, process: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut tb = TraceBuilder::new();
        tb.process_name(1, process);
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            let name = if lane == 0 {
                "main".to_string()
            } else {
                format!("worker {lane}")
            };
            tb.thread_name(1, lane, &name);
        }
        for (i, s) in spans.iter().enumerate() {
            let name = if s.scope.is_empty() {
                s.name.clone()
            } else {
                format!("{} {}", s.name, s.scope)
            };
            tb.span(
                1,
                s.lane,
                &name,
                s.start_ns / 1_000,
                s.dur_ns().div_ceil(1_000),
                &[
                    ("id", i as u64 + 1),
                    ("parent", s.parent.map_or(0, |p| p as u64 + 1)),
                ],
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, tb.finish())
    }
}

impl Span<'_> {
    /// Open a child span on this span's lane.
    pub fn child(&self, name: &str, scope: &str) -> Span<'_> {
        self.child_on(self.lane, name, scope)
    }

    /// Open a child span on another lane (work handed to a worker thread).
    pub fn child_on(&self, lane: u64, name: &str, scope: &str) -> Span<'_> {
        match self.id {
            Some(_) => self.tracer.open(name, scope, self.id, lane),
            None => Span {
                tracer: self.tracer,
                id: None,
                lane,
            },
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end_ns = end;
            }
        }
    }
}

/// Self time per layer plus what the top-level spans leave unexplained.
#[derive(Debug, Default)]
pub struct Attribution {
    pub by_layer: std::collections::BTreeMap<String, f64>,
    pub unattributed_s: f64,
    pub wall_s: f64,
}

impl Attribution {
    /// Share of the traced wall time some layer accounts for.
    pub fn coverage(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        1.0 - self.unattributed_s / self.wall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            scope: String::new(),
            lane: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        *t.spans.lock().unwrap() = vec![
            rec("workload.rep", None, 0, 100),
            rec("engine.run_batch", Some(0), 10, 50),
            // Overlapping children (two worker lanes) count once.
            rec("sweep.cell", Some(0), 40, 80),
            rec("schemes.build", Some(2), 40, 60),
        ];
        let a = t.attribute();
        assert!((a.wall_s - 100e-9).abs() < 1e-15);
        assert!((a.unattributed_s - 30e-9).abs() < 1e-15);
        assert!((a.by_layer["engine"] - 40e-9).abs() < 1e-15);
        assert!((a.by_layer["sweep"] - 20e-9).abs() < 1e-15);
        assert!((a.by_layer["schemes"] - 20e-9).abs() < 1e-15);
        assert!((a.coverage() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let root = t.root("workload.rep", "x");
            let _c = root.child("engine.run_batch", "flat");
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::new(true);
        {
            let root = t.root("workload.rep", "x");
            let c = root.child_on(2, "sweep.cell", "flat");
            drop(c);
        }
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].lane, 2);
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
