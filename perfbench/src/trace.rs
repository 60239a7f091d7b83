//! The traced run's span recorder: the benchmark wraps each public call
//! it makes into the program in a span (name, start, end, parent,
//! request id), keeps the spans in memory, and writes them out once the
//! run ends, as a Chrome trace-event document.

use std::io::Write;
use std::time::Instant;

/// Spans written per tracer at most; the rest are counted as dropped.
const MAX_WRITTEN: usize = 4_000;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub req: u64,
}

impl SpanRec {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1000.0
    }
}

/// One thread's spans. A tracer built with [`Tracer::off`] records
/// nothing, so the untraced run goes through the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span; returns its handle for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Writes every tracer's spans to `path` as Chrome trace events (one
/// `tid` per tracer). Returns the number of spans written.
pub fn write_chrome(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut written = 0usize;
    let mut dropped = 0usize;
    for (tid, tracer) in tracers.iter().enumerate() {
        dropped += tracer.spans.len().saturating_sub(MAX_WRITTEN);
        for span in tracer.spans.iter().take(MAX_WRITTEN) {
            if written > 0 {
                out.write_all(b",\n")?;
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1000.0,
                span.micros(),
                span.req
            )?;
            written += 1;
        }
    }
    write!(out, "\n],\"dropped\":{dropped}}}\n")?;
    out.flush()?;
    Ok(written)
}
