//! Wall-clock spans recorded from outside the library crates.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span (name, start, end, parent, item id). Spans stay in memory for the
//! round and are aggregated when it ends; a layer's self time is its
//! span's duration minus the time its child spans cover. With tracing off
//! every [`Tracer::enter`]/[`Tracer::exit`] is a branch and nothing else.

use std::time::Instant;

use sc_telemetry::json::Json;
use sc_telemetry::FoldedStacks;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `neural.conv.fwd.proposed`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span in the same round, if any.
    pub parent: Option<usize>,
    /// Item the call worked on: an image index, or `segment << 32 |
    /// call` for serving.
    pub item: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder of one round.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, item: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.stack.last().copied(), item });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a harness bug).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            assert_eq!(self.stack.pop(), Some(idx), "spans must close innermost first");
            self.spans[idx].end = end;
        }
    }

    /// The clock spans are measured against.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Adds a span timed elsewhere against [`Tracer::origin`] (ns),
    /// nested in the innermost open span. Calls must come in start order.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, item: u64) {
        if self.on {
            self.spans.push(Span { name, start, end, parent: self.stack.last().copied(), item });
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the durations of its direct
    /// children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans.iter().zip(&child).map(|(s, &c)| s.dur() - c).collect()
    }

    /// Summed durations of the spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur).sum()
    }

    /// Adds every span's self time (ns) under its root-to-span name path:
    /// a wall-time profile in the folded-stack format the cycle
    /// flamegraphs use.
    pub fn fold_into(&self, folded: &mut FoldedStacks) {
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let path = match s.parent {
                Some(p) => format!("{};{}", paths[p], s.name),
                None => s.name.to_string(),
            };
            folded.add(&path, self_ns);
            paths.push(path);
        }
    }

    /// Checks the nesting invariants: every span lies inside its parent,
    /// siblings do not overlap, and each root's duration equals the sum
    /// of the self times in its subtree.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if p >= i || s.start < ps.start || s.end > ps.end {
                    return Err(format!("span {i} ({}) is not inside its parent {p}", s.name));
                }
                if s.start < last_child_end[p] {
                    return Err(format!("span {i} ({}) overlaps an earlier sibling", s.name));
                }
                last_child_end[p] = s.end;
            }
        }
        let self_ns = self.self_times();
        let mut subtree = vec![0u64; self.spans.len()];
        for i in (0..self.spans.len()).rev() {
            subtree[i] += self_ns[i];
            if let Some(p) = self.spans[i].parent {
                subtree[p] += subtree[i];
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && subtree[i] != s.dur() {
                return Err(format!(
                    "root {i} ({}) lasts {} ns but its self times sum to {} ns",
                    s.name,
                    s.dur(),
                    subtree[i]
                ));
            }
        }
        Ok(())
    }

    /// One JSON line per span.
    pub fn render_jsonl(&self, round: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
            let line = Json::obj(vec![
                ("round", Json::UInt(round as u64)),
                ("id", Json::UInt(i as u64)),
                ("parent", parent),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::UInt(s.start)),
                ("end_ns", Json::UInt(s.end)),
                ("item", Json::UInt(s.item)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| std::hint::black_box(a.wrapping_add(b * b)))
    }

    #[test]
    fn nested_spans_validate_and_self_times_sum_to_roots() {
        let mut tr = Tracer::new(true);
        for round in 0..3u64 {
            let root = tr.enter("root", round);
            spin(1000);
            for i in 0..4 {
                let a = tr.enter("a", i);
                let b = tr.enter("b", i);
                spin(500);
                tr.exit(b);
                spin(200);
                tr.exit(a);
            }
            tr.exit(root);
        }
        tr.validate().expect("well-nested spans");
        assert_eq!(tr.spans().iter().filter(|s| s.name == "a").count(), 12);
        let roots: u64 = tr.spans().iter().filter(|s| s.parent.is_none()).map(Span::dur).sum();
        assert_eq!(roots, tr.total_ns("root"));
        assert_eq!(tr.self_times().iter().sum::<u64>(), roots);
        let self_a: u64 = tr
            .spans()
            .iter()
            .zip(tr.self_times())
            .filter(|(s, _)| s.name == "a")
            .map(|p| p.1)
            .sum();
        assert_eq!(tr.total_ns("a"), self_a + tr.total_ns("b"));

        let mut folded = FoldedStacks::new();
        tr.fold_into(&mut folded);
        assert_eq!(folded.total(), roots);
        assert!(folded.iter().any(|(p, _)| p == "root;a;b"));
    }

    #[test]
    fn validate_rejects_a_child_outside_its_parent() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("root", 0);
        let child = tr.enter("child", 0);
        tr.exit(child);
        tr.exit(root);
        tr.spans[1].end = tr.spans[0].end + 1;
        assert!(tr.validate().is_err());
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("x", 0);
        tr.exit(s);
        assert!(tr.spans().is_empty());
        assert!(tr.validate().is_ok());
    }
}
