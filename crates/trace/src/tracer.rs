//! The trace writer: filter configuration and sinks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{EventClass, TraceEvent};

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

enum Sink {
    /// Last-N in-memory buffer.
    Ring {
        buf: VecDeque<TraceEvent>,
        cap: usize,
    },
    /// Streaming JSON-lines writer.
    Jsonl { out: Box<dyn Write + Send> },
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
    line: String,
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
            line: String::with_capacity(128),
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
        Ok(Tracer::jsonl_writer(Box::new(BufWriter::new(f)), config))
    }

    /// Stream events passing `config` as JSON lines to an arbitrary writer.
    pub fn jsonl_writer(out: Box<dyn Write + Send>, config: TraceConfig) -> Self {
        Tracer::with_sink(Some(Sink::Jsonl { out }), config)
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
            Sink::Jsonl { out } => {
                self.line.clear();
                ev.write_json(&mut self.line);
                self.line.push('\n');
                if let Err(e) = out.write_all(self.line.as_bytes()) {
                    // Defer: the simulator hot path cannot propagate errors.
                    if self.io_error.is_none() {
                        self.io_error = Some(e);
                    }
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

    /// Flush a streaming sink, surfacing any deferred write error.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.io_error.take() {
            return Err(e);
        }
        if let Some(Sink::Jsonl { out }) = &mut self.sink {
            out.flush()?;
        }
        Ok(())
    }
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

    #[test]
    fn jsonl_writer_streams_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut t = Tracer::jsonl_writer(
            Box::new(shared.clone()),
            TraceConfig::parse("flows=7").unwrap(),
        );
        t.emit(enq(7, 1));
        t.emit(enq(8, 1)); // filtered out
        t.emit(ack(7));
        t.flush().unwrap();
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(TraceEvent::from_json_line(lines[0]).unwrap(), enq(7, 1));
        assert_eq!(TraceEvent::from_json_line(lines[1]).unwrap(), ack(7));
    }
}
