//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the library, around each public call the
//! benchmark makes; nothing inside the program is instrumented. The
//! recorder keeps spans in memory while it is on and the caller writes
//! them out at exit. Timing a call is the same `Instant` pair whether or
//! not the recorder is on, so the untraced run pays only for the clock
//! reads its latency figures need anyway.

use std::time::Instant;

/// One recorded span. `end_ns == 0` marks a span still open.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index into the Table I task list, for per-task calls.
    pub task: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// Heap allocations made during the call (counting allocator; 0 while
    /// allocation tracking is off).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Durations in nanoseconds of the spans matching `name` (and `task`,
/// when given).
pub fn durations(spans: &[Span], name: &str, task: Option<usize>) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name && (task.is_none() || s.task == task))
        .map(Span::duration_ns)
        .collect()
}

/// In-memory span list plus the stack of open parent spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on; allocation counting starts with it.
    pub fn enable(&mut self) {
        univsa_telemetry::enable_mem_tracking();
        self.on = true;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a parent span; calls timed until [`close`](Self::close) nest
    /// under it.
    pub fn open(&mut self, name: &'static str, task: Option<usize>) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            task,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end_ns = self.ns(Instant::now()).max(self.spans[id].start_ns + 1);
    }

    /// Times one call into the library and records it as a leaf span.
    /// Returns the call's result and its duration in nanoseconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        task: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let allocs_before = self.on.then(|| univsa_telemetry::mem_stats().alloc_count);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        if let Some(before) = allocs_before {
            let allocs = univsa_telemetry::mem_stats().alloc_count - before;
            let start_ns = self.ns(t0);
            self.spans.push(Span {
                name,
                task,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.open.last().copied(),
                allocs,
            });
        }
        (out, ns)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap: the client is a single
    /// thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// The spans as JSON lines, one object per span with its self time.
    pub fn to_jsonl(&self, task_names: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let task = s
                .task
                .map_or("null".to_string(), |t| format!("\"{}\"", task_names[t]));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"task\":{task},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}
