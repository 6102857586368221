//! Spans recorded by the benchmark's own files around each call into a
//! layer. A span is `{name, rank, id, parent, op, start_ns, end_ns}`;
//! `op` is the iteration number all ranks share, so the spans of one
//! iteration on every rank can be joined. Spans go to a preallocated
//! per-rank vector and are written out when the workload ends.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// `rank` of spans recorded on the driver thread (set-up, service epochs).
pub const DRIVER: i32 = -1;
const NO_PARENT: u32 = u32::MAX;

/// Nanoseconds since the first call in this process: one time base for
/// every rank thread and the driver.
pub fn now_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: i32,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn has_parent(&self) -> bool {
        self.parent != NO_PARENT
    }
}

/// What the measured loops call at each layer boundary. The untraced run
/// uses [`Off`], whose calls compile to nothing, so end-to-end numbers
/// never pay for tracing.
pub trait Rec: Send + 'static {
    fn enter(&mut self, name: &'static str, op: u64);
    fn exit(&mut self);
    fn into_spans(self) -> Vec<Span>;
}

pub struct Off;

impl Rec for Off {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _op: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
    fn into_spans(self) -> Vec<Span> {
        Vec::new()
    }
}

pub struct Spans {
    rank: i32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(rank: i32, capacity: usize) -> Self {
        Self {
            rank,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Time `f` as one span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name, 0);
        let out = f(self);
        self.exit();
        out
    }
}

impl Rec for Spans {
    #[inline]
    fn enter(&mut self, name: &'static str, op: u64) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        self.spans.push(Span {
            name,
            rank: self.rank,
            id,
            parent,
            op,
            start_ns: now_ns(),
            end_ns: 0,
        });
    }

    #[inline]
    fn exit(&mut self) {
        let end = now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = end;
    }

    fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Self time of every span of one recorder: its duration minus the part
/// its children cover. Indexed like the input.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Write every recorder's spans as JSON lines.
pub fn write_jsonl(path: &Path, recorders: &[Vec<Span>]) -> std::io::Result<usize> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for spans in recorders {
        for s in spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"rank\":{},\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.rank, s.id, parent, s.op, s.start_ns, s.end_ns
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}
