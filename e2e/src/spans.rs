//! Harness spans: one record around each call into a layer of the
//! program, kept in memory and written out as a Chrome trace when the
//! run ends. Spans inside the program are the `obs` crate's business;
//! these are recorded from the benchmark's own files, so they exist no
//! matter what the code under test instruments.

use crate::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or closed-loop iteration) the span belongs to.
    pub request: Option<u64>,
}

/// In-memory span log with a stack of open spans for parent links.
/// When disabled (the end-to-end run) it still times the call, but
/// records nothing.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            // Room for every per-request span of a 60 s window, so the
            // timed loop never grows the log.
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh identifier for one request (or closed-loop iteration);
    /// every span recorded for it carries this number.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the seconds
    /// it took. Spans opened by `f` become children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                request,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = index {
            self.spans[i].end_ns = end_ns;
            self.open.pop();
        }
        (result, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Records a span whose ends were measured elsewhere (a ticket's
    /// wait is known from the server's own latency, not from a blocking
    /// call), as a child of the innermost open span.
    pub fn add(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: Option<u64>) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                request,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// What is wrong with the log, one line each: a parent that does not
    /// exist, a child filed under another request than its parent, or a
    /// request that has some but not all of the `per_request` spans.
    pub fn violations(&self, per_request: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                out.push(format!("span {i} {} ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let Some(parent) = self.spans.get(p).filter(|_| p < i) else {
                out.push(format!("span {i} {} names missing parent {p}", s.name));
                continue;
            };
            if parent.request.is_some() && parent.request != s.request {
                out.push(format!(
                    "span {i} {} has request {:?} but its parent {} has {:?}",
                    s.name, s.request, parent.name, parent.request
                ));
            }
        }
        let requests: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| per_request.contains(&s.name))
            .filter_map(|s| s.request)
            .collect();
        for name in per_request {
            let have: std::collections::BTreeSet<u64> = self
                .spans
                .iter()
                .filter(|s| s.name == *name)
                .filter_map(|s| s.request)
                .collect();
            if let Some(missing) = requests.difference(&have).next() {
                out.push(format!(
                    "request {missing} has no {name} span ({} of {} requests do)",
                    have.len(),
                    requests.len()
                ));
            }
        }
        out
    }

    /// The log as Chrome `trace_event` JSON (complete events, µs), which
    /// Perfetto and `chrome://tracing` load. Requests are spread over
    /// eight display rows so overlapping ones stay readable.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let tid = s.request.map_or(0, |r| 1 + r % 8);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i}",
                escape(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn nesting_sets_parents_and_the_trace_parses() {
        let mut rec = Recorder::new(true);
        rec.time("setup", None, |rec| {
            rec.time("models.build", None, |_| ());
        });
        rec.time("window", None, |rec| {
            for _ in 0..3 {
                let r = rec.next_request();
                rec.time("engine.run", Some(r), |_| ());
                let now = rec.now_ns();
                rec.add("ticket.wait", now, now + 10, Some(r));
            }
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(2));
        assert!(rec.violations(&["engine.run", "ticket.wait"]).is_empty());
        let trace = Json::parse(&rec.chrome_trace()).unwrap();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().len(), 9);
    }

    #[test]
    fn violations_are_reported() {
        let mut rec = Recorder::new(true);
        rec.time("loadgen.submit", Some(1), |rec| {
            rec.time("engine.run", Some(2), |_| ());
        });
        rec.spans.push(Span {
            name: "orphan",
            start_ns: 5,
            end_ns: 6,
            parent: Some(99),
            request: None,
        });
        let v = rec.violations(&["loadgen.submit", "engine.run"]);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v[0].contains("has request Some(2)"));
        assert!(v[1].contains("missing parent 99"));
        assert!(v[2].contains("request 2 has no loadgen.submit"));
        assert!(v[3].contains("request 1 has no engine.run"));
        // Requests of spans nobody asked about are not held to the rule.
        assert_eq!(rec.violations(&["engine.run"]).len(), 2);
    }

    #[test]
    fn disabled_recorder_times_but_records_nothing() {
        let mut rec = Recorder::new(false);
        let (v, s) = rec.time("x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        rec.add("y", 0, 1, None);
        assert!(rec.spans().is_empty());
    }
}
