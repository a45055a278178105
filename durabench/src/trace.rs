//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing here reaches inside the engine: a span covers one
//! public call made from this package.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the call served (spans of one request share it).
    pub req: u64,
}

/// A span recorder. Disabled recorders cost one branch per call, so the
/// untraced run pays nothing measurable.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; returns the
    /// span's index (or `None` when disabled) with `f`'s result.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let idx = {
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        let out = f(Some(idx));
        let end = self.now_ns();
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)[idx].end_ns = end;
        out
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own as f64 / 1e6;
        }
        out
    }

    /// Mean self time per call of the spans named `name`, in µs.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let (n, ms) = self.self_ms().get(name).copied().unwrap_or((0, 0.0));
        ms * 1e3 / n.max(1) as f64
    }

    /// Write every span as a tab-separated line:
    /// `index name req parent start_ns end_ns`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", 1, None, |p| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 1, p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let spans = t.spans.lock().unwrap().clone();
        let ms = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        assert_eq!(spans[1].parent, Some(0));
        let m = t.self_ms();
        let (n_in, inner) = m["inner"];
        let (n_out, outer) = m["outer"];
        assert_eq!((n_in, n_out), (1, 1));
        assert!(inner >= 3.0 && outer >= 2.0, "{m:?}");
        assert!((inner - ms(&spans[1])).abs() < 1e-9);
        assert!((outer - (ms(&spans[0]) - ms(&spans[1]))).abs() < 1e-9);
        assert!((t.mean_self_us("inner") - inner * 1e3).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, |p| p), None);
        assert!(t.self_ms().is_empty());
    }
}
