//! The trace writer: filter configuration and sinks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use crate::event::{EventClass, TraceEvent, LINE_CAP};

/// Which events a [`Tracer`] keeps. `None` on a dimension means "no filter".
///
/// The `--trace-filter` string form is semicolon-separated clauses:
///
/// ```text
/// flows=0,3;links=12;classes=queue,cc
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceConfig {
    /// Keep only events of these flows.
    pub flows: Option<Vec<u32>>,
    /// Keep only queue/link events on these links (events that carry no
    /// link id, e.g. acks, are unaffected by this dimension).
    pub links: Option<Vec<u32>>,
    /// Keep only events of these classes.
    pub classes: Option<Vec<EventClass>>,
}

impl TraceConfig {
    /// Keep everything.
    pub fn all() -> Self {
        TraceConfig::default()
    }

    /// Parse a `--trace-filter` spec. The empty string keeps everything.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = TraceConfig::all();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (key, vals) = clause
                .split_once('=')
                .ok_or_else(|| format!("filter clause `{clause}` is not key=values"))?;
            match key.trim() {
                "flows" => {
                    cfg.flows = Some(parse_ids(vals)?);
                }
                "links" => {
                    cfg.links = Some(parse_ids(vals)?);
                }
                "classes" => {
                    cfg.classes = Some(
                        vals.split(',')
                            .map(|s| EventClass::parse(s.trim()))
                            .collect::<Result<_, _>>()?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown filter dimension `{other}` (expected flows/links/classes)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Whether `ev` passes the filter.
    pub fn accepts(&self, ev: &TraceEvent) -> bool {
        if let Some(classes) = &self.classes {
            if !classes.contains(&ev.class()) {
                return false;
            }
        }
        if let Some(flows) = &self.flows {
            // Events that carry no flow id (e.g. queue clears) are unaffected
            // by this dimension, mirroring the link dimension below.
            if let Some(flow) = ev.flow() {
                if !flows.contains(&flow) {
                    return false;
                }
            }
        }
        if let Some(links) = &self.links {
            if let Some(link) = ev.link() {
                if !links.contains(&link) {
                    return false;
                }
            }
        }
        true
    }
}

fn parse_ids(vals: &str) -> Result<Vec<u32>, String> {
    vals.split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map_err(|_| format!("`{s}` is not an id"))
        })
        .collect()
}

/// Bytes of encoded lines the JSONL sink gathers before handing them to its
/// writer in one call. Also the most a run killed before its tracer is
/// flushed or dropped can lose.
const BLOCK_BYTES: usize = 64 * 1024;

enum Sink {
    /// Last-N in-memory buffer.
    Ring {
        buf: VecDeque<TraceEvent>,
        cap: usize,
    },
    /// Streaming JSON-lines writer: whole lines gather in `block`, which
    /// goes to `out` in one `write_all` once it holds [`BLOCK_BYTES`].
    Jsonl {
        out: Box<dyn Write + Send>,
        block: Vec<u8>,
    },
    /// Live in-process consumer (invariant checkers, custom aggregators).
    Callback(Box<dyn FnMut(&TraceEvent) + Send>),
}

/// Event sink handed to the simulator. The disabled tracer costs one branch
/// ([`Tracer::enabled`]) per would-be event on the hot path.
pub struct Tracer {
    sink: Option<Sink>,
    /// Active filter; events it rejects are not counted or stored.
    pub config: TraceConfig,
    emitted: u64,
    /// First write error of the JSONL sink, kept for [`Tracer::flush`]: the
    /// simulator hot path cannot propagate errors.
    io_error: Option<io::Error>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    fn with_sink(sink: Option<Sink>, config: TraceConfig) -> Self {
        Tracer {
            sink,
            config,
            emitted: 0,
            io_error: None,
        }
    }

    /// A tracer that keeps nothing ([`Tracer::enabled`] is false).
    pub fn disabled() -> Self {
        Tracer::with_sink(None, TraceConfig::all())
    }

    /// Keep the last `cap` events in memory, unfiltered.
    pub fn ring(cap: usize) -> Self {
        Tracer::ring_filtered(cap, TraceConfig::all())
    }

    /// Keep the last `cap` events passing `config` in memory.
    pub fn ring_filtered(cap: usize, config: TraceConfig) -> Self {
        Tracer::with_sink(
            Some(Sink::Ring {
                buf: VecDeque::with_capacity(cap.min(4096)),
                cap: cap.max(1),
            }),
            config,
        )
    }

    /// Stream events passing `config` as JSON lines to a file at `path`.
    pub fn jsonl_file(path: impl AsRef<Path>, config: TraceConfig) -> io::Result<Self> {
        let f = File::create(path)?;
        Ok(Tracer::jsonl_writer(Box::new(f), config))
    }

    /// Stream events passing `config` as JSON lines to an arbitrary writer.
    ///
    /// Lines reach `out` in blocks of just over 64 KiB, each ending on a
    /// line boundary, and the rest on [`Tracer::flush`] or drop; `out` needs
    /// no buffering of its own.
    pub fn jsonl_writer(out: Box<dyn Write + Send>, config: TraceConfig) -> Self {
        // Room for a full block plus the line that crosses the threshold.
        let block = Vec::with_capacity(BLOCK_BYTES + LINE_CAP);
        Tracer::with_sink(Some(Sink::Jsonl { out, block }), config)
    }

    /// Hand events passing `config` to an in-process callback as they occur.
    /// This is how `uno-testkit` arms live invariant checking on a run.
    pub fn callback(f: Box<dyn FnMut(&TraceEvent) + Send>, config: TraceConfig) -> Self {
        Tracer::with_sink(Some(Sink::Callback(f)), config)
    }

    /// True when a sink is attached. Instrumentation sites branch on this
    /// before building an event, so the disabled path does no work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Number of events accepted by the filter so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Record one event (no-op without a sink or when the filter rejects).
    pub fn emit(&mut self, ev: TraceEvent) {
        let Some(sink) = &mut self.sink else {
            return;
        };
        if !self.config.accepts(&ev) {
            return;
        }
        self.emitted += 1;
        match sink {
            Sink::Ring { buf, cap } => {
                if buf.len() == *cap {
                    buf.pop_front();
                }
                buf.push_back(ev);
            }
            Sink::Jsonl { out, block } => {
                ev.write_json(block);
                block.push(b'\n');
                if block.len() >= BLOCK_BYTES {
                    write_block(out, block, &mut self.io_error);
                }
            }
            Sink::Callback(f) => f(&ev),
        }
    }

    /// The buffered events, oldest first (empty unless a ring sink is used).
    pub fn ring_events(&self) -> Vec<TraceEvent> {
        match &self.sink {
            Some(Sink::Ring { buf, .. }) => buf.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// Hand a streaming sink's gathered lines to its writer and flush it.
    /// Returns the first write error since the last call, if any.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(Sink::Jsonl { out, block }) = &mut self.sink {
            write_block(out, block, &mut self.io_error);
            if let Err(e) = out.flush() {
                self.io_error.get_or_insert(e);
            }
        }
        self.io_error.take().map_or(Ok(()), Err)
    }
}

/// Write and empty `block`, keeping the first error in `first_err`.
fn write_block(out: &mut dyn Write, block: &mut Vec<u8>, first_err: &mut Option<io::Error>) {
    if block.is_empty() {
        return;
    }
    if let Err(e) = out.write_all(block) {
        first_err.get_or_insert(e);
    }
    block.clear();
}

impl Drop for Tracer {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enq(flow: u32, link: u32) -> TraceEvent {
        TraceEvent::Enqueue {
            t: 1,
            link,
            flow,
            seq: 0,
            size: 4096,
            qlen: 4096,
        }
    }

    fn ack(flow: u32) -> TraceEvent {
        TraceEvent::Ack {
            t: 2,
            flow,
            seq: 0,
            bytes: 4096,
            ecn: false,
            rtt: 14_000,
            done: false,
        }
    }

    #[test]
    fn filter_spec_round_trip() {
        let cfg = TraceConfig::parse("flows=0,3;links=12;classes=queue,cc").unwrap();
        assert_eq!(cfg.flows, Some(vec![0, 3]));
        assert_eq!(cfg.links, Some(vec![12]));
        assert_eq!(cfg.classes, Some(vec![EventClass::Queue, EventClass::Cc]));
        assert_eq!(TraceConfig::parse("").unwrap(), TraceConfig::all());
        assert!(TraceConfig::parse("bogus=1").is_err());
        assert!(TraceConfig::parse("flows=x").is_err());
        assert!(TraceConfig::parse("flows").is_err());
    }

    #[test]
    fn filter_semantics() {
        let cfg = TraceConfig::parse("flows=1;links=5").unwrap();
        assert!(cfg.accepts(&enq(1, 5)));
        assert!(!cfg.accepts(&enq(0, 5)), "wrong flow");
        assert!(!cfg.accepts(&enq(1, 6)), "wrong link");
        // Ack carries no link: the link dimension must not reject it.
        assert!(cfg.accepts(&ack(1)));
        let classes = TraceConfig::parse("classes=rc").unwrap();
        assert!(!classes.accepts(&ack(1)));
        assert!(classes.accepts(&TraceEvent::Nack {
            t: 0,
            flow: 1,
            block: 0
        }));
    }

    #[test]
    fn ring_keeps_last_n() {
        let mut t = Tracer::ring(3);
        assert!(t.enabled());
        for i in 0..5 {
            t.emit(enq(i, 0));
        }
        let kept: Vec<u32> = t.ring_events().iter().filter_map(|e| e.flow()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(t.emitted(), 5);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(enq(0, 0));
        assert_eq!(t.emitted(), 0);
        assert!(t.ring_events().is_empty());
    }

    #[test]
    fn flowless_events_pass_flow_filter() {
        let cfg = TraceConfig::parse("flows=1").unwrap();
        assert!(cfg.accepts(&TraceEvent::QueueClear {
            t: 0,
            link: 9,
            pkts: 1,
            bytes: 4096,
        }));
    }

    #[test]
    fn callback_sink_sees_accepted_events() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let mut t = Tracer::callback(
            Box::new(move |ev| s2.lock().unwrap().push(*ev)),
            TraceConfig::parse("flows=7").unwrap(),
        );
        assert!(t.enabled());
        t.emit(enq(7, 1));
        t.emit(enq(8, 1)); // filtered out
        t.emit(ack(7));
        assert_eq!(t.emitted(), 2);
        assert_eq!(*seen.lock().unwrap(), vec![enq(7, 1), ack(7)]);
    }

    /// A writer that records each `write` call's bytes separately.
    #[derive(Clone, Default)]
    struct Writes(std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>);

    impl Writes {
        fn calls(&self) -> Vec<Vec<u8>> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn jsonl(writes: &Writes) -> Tracer {
        Tracer::jsonl_writer(Box::new(writes.clone()), TraceConfig::all())
    }

    fn line_len(ev: &TraceEvent) -> usize {
        ev.to_json().len() + 1
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let writes = Writes::default();
        let mut t = Tracer::jsonl_writer(
            Box::new(writes.clone()),
            TraceConfig::parse("flows=7").unwrap(),
        );
        t.emit(enq(7, 1));
        t.emit(enq(8, 1)); // filtered out
        t.emit(ack(7));
        t.flush().unwrap();
        let text = String::from_utf8(writes.calls().concat()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(TraceEvent::from_json_line(lines[0]).unwrap(), enq(7, 1));
        assert_eq!(TraceEvent::from_json_line(lines[1]).unwrap(), ack(7));
    }

    #[test]
    fn jsonl_holds_bytes_until_the_block_fills() {
        let writes = Writes::default();
        let mut t = jsonl(&writes);
        let mut pending = 0;
        let mut i = 0;
        while pending + line_len(&enq(i, 0)) < BLOCK_BYTES {
            pending += line_len(&enq(i, 0));
            t.emit(enq(i, 0));
            i += 1;
        }
        assert!(writes.calls().is_empty(), "wrote before the block filled");
        // The line that reaches the block size sends the whole block at once.
        t.emit(enq(i, 0));
        let calls = writes.calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].len(), pending + line_len(&enq(i, 0)));
        assert_eq!(
            calls[0].iter().filter(|&&b| b == b'\n').count(),
            i as usize + 1
        );
    }

    #[test]
    fn jsonl_flush_and_drop_write_the_partial_block() {
        let writes = Writes::default();
        let mut t = jsonl(&writes);
        t.emit(enq(1, 0));
        assert!(writes.calls().is_empty());
        t.flush().unwrap();
        assert_eq!(
            writes.calls(),
            vec![format!("{}\n", enq(1, 0).to_json()).into_bytes()]
        );
        t.flush().unwrap();
        assert_eq!(writes.calls().len(), 1, "an empty block is not written");
        t.emit(ack(2));
        drop(t);
        let calls = writes.calls();
        assert_eq!(calls.len(), 2, "drop writes the tail");
        assert_eq!(calls[1], format!("{}\n", ack(2).to_json()).into_bytes());
    }

    #[test]
    fn jsonl_writes_end_on_line_boundaries() {
        let writes = Writes::default();
        let mut t = jsonl(&writes);
        let events: Vec<TraceEvent> = (0..10_000u32)
            .map(|i| if i % 3 == 0 { ack(i) } else { enq(i, i % 7) })
            .collect();
        for ev in &events {
            t.emit(*ev);
        }
        drop(t);
        let calls = writes.calls();
        assert!(calls.len() > 3, "{} writes", calls.len());
        for (k, call) in calls.iter().enumerate() {
            assert_eq!(call.last(), Some(&b'\n'), "write {k} ends mid-line");
            if k + 1 < calls.len() {
                assert!((BLOCK_BYTES..BLOCK_BYTES + LINE_CAP).contains(&call.len()));
            }
        }
        let text = String::from_utf8(calls.concat()).unwrap();
        let back: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_json_line(l).unwrap())
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_flush_returns_the_first_write_error() {
        /// Fails every `write`, numbering its errors.
        struct Failing(u32);
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::Error::other(format!("failure {}", self.0)))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut t = Tracer::jsonl_writer(Box::new(Failing(0)), TraceConfig::all());
        for i in 0..BLOCK_BYTES as u32 / 16 {
            t.emit(enq(i, 0)); // several full blocks, each write failing
        }
        assert_eq!(t.flush().unwrap_err().to_string(), "failure 1");
        assert!(t.flush().is_ok(), "an error is reported once");
        t.emit(enq(0, 0));
        let later = t.flush().unwrap_err().to_string();
        assert!(
            later.starts_with("failure ") && later != "failure 1",
            "{later}"
        );
    }
}
