//! The trace writer: filter configuration and sinks.

use std::any::Any;
use std::fs::File;
use std::io::{self, Write};
use std::mem;
use std::panic;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

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

/// Bytes of encoded lines the JSONL writer thread gathers before handing
/// them to its writer in one call.
const BLOCK_BYTES: usize = 64 * 1024;

/// Accepted events the simulation thread gathers before handing them to
/// the JSONL writer thread: 160 KiB of 40-byte events. A power of two, so
/// a batch grown from empty by `push` ends at exactly this capacity.
const BATCH_EVENTS: usize = 4096;

/// Full batches that may wait for the writer thread; a hand-over beyond
/// that blocks until the writer takes one. At most `CHANNEL_DEPTH + 2`
/// batches exist at once: these, the one the writer is encoding and the
/// one the simulation thread is filling.
const CHANNEL_DEPTH: usize = 2;

/// A writer-thread panic, carried to the owning thread to re-raise.
type Panic = Box<dyn Any + Send + 'static>;

enum Sink {
    /// Streaming JSON-lines writer: accepted events gather in batches that
    /// a writer thread encodes and writes.
    Jsonl(Jsonl),
    /// Live in-process consumer (invariant checkers, custom aggregators).
    Callback(Box<dyn FnMut(&TraceEvent) + Send>),
}

/// The JSONL sink's simulation-thread side.
struct Jsonl {
    /// Accepted events not yet handed to the writer thread.
    batch: Vec<TraceEvent>,
    writer: Writer,
}

enum Writer {
    /// Nothing handed over yet: no thread, and the writer and its block
    /// wait here for the first batch.
    Idle {
        out: Box<dyn Write + Send>,
        block: Vec<u8>,
    },
    Running(WriterThread),
    /// The writer thread panicked and the panic was re-raised; later events
    /// are counted but dropped.
    Stopped,
}

struct WriterThread {
    batches: SyncSender<Batch>,
    /// Emptied batches, for reuse.
    emptied: Receiver<Vec<TraceEvent>>,
    /// One report per flush batch: the first write error since the last.
    reports: Receiver<io::Result<()>>,
    handle: JoinHandle<()>,
}

/// Events for the writer thread to encode and write, in order.
struct Batch {
    events: Vec<TraceEvent>,
    /// After these events, write the partial block, flush the writer and
    /// report.
    flush: bool,
}

impl Jsonl {
    /// Append one accepted event, handing the batch over once it is full.
    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        self.batch.push(ev);
        if self.batch.len() == BATCH_EVENTS {
            if let Err(panic) = self.hand_over(false) {
                reraise(panic);
            }
        }
    }

    /// Hand the batch to the writer thread, starting the thread on the
    /// first hand-over. With `flush`, return once the writer has written
    /// every event handed over and flushed its writer, with the first write
    /// error since the last flush. `Err` carries a writer-thread panic.
    #[inline(never)]
    fn hand_over(&mut self, flush: bool) -> Result<io::Result<()>, Panic> {
        if let Writer::Idle { out, .. } = &mut self.writer {
            if self.batch.is_empty() {
                // A flush before any event: nothing to start a thread for.
                return Ok(out.flush());
            }
            self.start();
        }
        let Writer::Running(w) = &mut self.writer else {
            self.batch.clear();
            return Ok(Ok(()));
        };
        let events = mem::take(&mut self.batch);
        let report = match w.batches.send(Batch { events, flush }) {
            Err(_) => None,
            Ok(()) if flush => w.reports.recv().ok(),
            Ok(()) => Some(Ok(())),
        };
        let Some(report) = report else {
            // The thread hung up, so it panicked.
            return Err(self
                .stop()
                .unwrap_or_else(|| Box::new("the trace writer thread stopped")));
        };
        self.batch = w
            .emptied
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH_EVENTS));
        Ok(report)
    }

    /// Move the writer and its block to a new writer thread.
    #[cold]
    fn start(&mut self) {
        let Writer::Idle { out, block } = mem::replace(&mut self.writer, Writer::Stopped) else {
            return;
        };
        let (batches, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
        // Neither return channel can fill: at most `CHANNEL_DEPTH + 2`
        // batches exist, and a flush waits for its report.
        let (emptied_tx, emptied) = mpsc::sync_channel(CHANNEL_DEPTH + 2);
        let (reports_tx, reports) = mpsc::sync_channel(1);
        let handle = thread::Builder::new()
            .name("uno-trace-writer".into())
            .spawn(move || write_batches(rx, emptied_tx, reports_tx, out, block))
            .expect("cannot start the trace writer thread");
        self.writer = Writer::Running(WriterThread {
            batches,
            emptied,
            reports,
            handle,
        });
    }

    /// Close the writer thread's channel and join it, returning its panic
    /// if it panicked.
    fn stop(&mut self) -> Option<Panic> {
        match mem::replace(&mut self.writer, Writer::Stopped) {
            Writer::Running(w) => {
                drop(w.batches);
                w.handle.join().err()
            }
            _ => None,
        }
    }
}

/// The writer thread's loop: encode each batch's events into the block,
/// hand the block to `out` whenever it reaches [`BLOCK_BYTES`], and send
/// the emptied batch back. A flush batch then writes the partial block,
/// flushes `out` and reports the first error since the last report. Ends
/// when the owner closes the channel.
fn write_batches(
    batches: Receiver<Batch>,
    emptied: SyncSender<Vec<TraceEvent>>,
    reports: SyncSender<io::Result<()>>,
    mut out: Box<dyn Write + Send>,
    mut block: Vec<u8>,
) {
    let mut first_error = None;
    for Batch { mut events, flush } in batches {
        for ev in &events {
            ev.write_json(&mut block);
            block.push(b'\n');
            if block.len() >= BLOCK_BYTES {
                write_block(&mut *out, &mut block, &mut first_error);
            }
        }
        events.clear();
        let _ = emptied.send(events);
        if flush {
            write_block(&mut *out, &mut block, &mut first_error);
            if let Err(e) = out.flush() {
                first_error.get_or_insert(e);
            }
            let _ = reports.send(first_error.take().map_or(Ok(()), Err));
        }
    }
}

/// Re-raise a writer-thread panic, unless this thread is already unwinding.
fn reraise(panic: Panic) {
    if !thread::panicking() {
        panic::resume_unwind(panic);
    }
}

/// Event sink handed to the simulator. The disabled tracer costs one branch
/// ([`Tracer::enabled`]) per would-be event on the hot path.
pub struct Tracer {
    sink: Option<Sink>,
    /// Active filter; events it rejects are not counted or stored.
    pub config: TraceConfig,
    emitted: u64,
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
        }
    }

    /// A tracer that keeps nothing ([`Tracer::enabled`] is false).
    pub fn disabled() -> Self {
        Tracer::with_sink(None, TraceConfig::all())
    }

    /// Stream events passing `config` as JSON lines to a file at `path`.
    pub fn jsonl_file(path: impl AsRef<Path>, config: TraceConfig) -> io::Result<Self> {
        let f = File::create(path)?;
        Ok(Tracer::jsonl_writer(Box::new(f), config))
    }

    /// Stream events passing `config` as JSON lines to an arbitrary writer.
    ///
    /// Accepted events go to a writer thread in batches; it encodes them and
    /// hands `out` blocks of just over 64 KiB, each ending on a line
    /// boundary, and the rest on [`Tracer::flush`] or drop, so `out` needs
    /// no buffering of its own. The thread starts with the first batch: a
    /// tracer that never emits starts none.
    pub fn jsonl_writer(out: Box<dyn Write + Send>, config: TraceConfig) -> Self {
        // Room for a full block plus the line that crosses the threshold.
        let block = Vec::with_capacity(BLOCK_BYTES + LINE_CAP);
        Tracer::with_sink(
            Some(Sink::Jsonl(Jsonl {
                batch: Vec::new(),
                writer: Writer::Idle { out, block },
            })),
            config,
        )
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
            Sink::Jsonl(jsonl) => jsonl.push(ev),
            Sink::Callback(f) => f(&ev),
        }
    }

    /// Have a streaming sink's writer thread write every accepted event and
    /// flush its writer, and wait for it. Returns the first write error
    /// since the last call, if any. A panic on the writer thread is
    /// re-raised here.
    pub fn flush(&mut self) -> io::Result<()> {
        let Some(Sink::Jsonl(jsonl)) = &mut self.sink else {
            return Ok(());
        };
        jsonl.hand_over(true).unwrap_or_else(|panic| {
            reraise(panic);
            Err(io::Error::other("the trace writer thread panicked"))
        })
    }

    /// Whether a JSONL sink's writer thread was started.
    #[cfg(test)]
    fn writer_started(&self) -> bool {
        matches!(
            &self.sink,
            Some(Sink::Jsonl(Jsonl {
                writer: Writer::Running(_),
                ..
            }))
        )
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
    /// A JSONL sink writes every accepted event, then its writer thread is
    /// joined; its panic is re-raised unless this thread is unwinding.
    fn drop(&mut self) {
        if let Some(Sink::Jsonl(jsonl)) = &mut self.sink {
            let flushed = jsonl.hand_over(true);
            if let Some(panic) = flushed.err().or_else(|| jsonl.stop()) {
                reraise(panic);
            }
        }
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
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(enq(0, 0));
        assert_eq!(t.emitted(), 0);
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
        // The line that reaches the block size closes the first block; the
        // line after it starts the next.
        t.emit(enq(i, 0));
        t.emit(ack(i + 1));
        t.flush().unwrap();
        let calls = writes.calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].len(), pending + line_len(&enq(i, 0)));
        assert_eq!(
            calls[0].iter().filter(|&&b| b == b'\n').count(),
            i as usize + 1
        );
        assert_eq!(calls[1], format!("{}\n", ack(i + 1).to_json()).into_bytes());
    }

    #[test]
    fn jsonl_bytes_match_the_reference_across_batches() {
        use crate::event::tests::{every_variant, SplitMix};
        // Several full batches and a partial one, every variant with random
        // fields (the float ones included).
        let mut rng = SplitMix(0x7EAC);
        let mut events = Vec::new();
        while events.len() < 3 * BATCH_EVENTS + 123 {
            events.extend(every_variant(&mut rng));
        }
        let writes = Writes::default();
        let mut t = jsonl(&writes);
        for ev in &events {
            t.emit(*ev);
        }
        drop(t);
        let want: Vec<u8> = events
            .iter()
            .flat_map(|ev| format!("{}\n", ev.to_json()).into_bytes())
            .collect();
        assert!(writes.calls().concat() == want, "trace bytes differ");
    }

    #[test]
    fn flush_waits_for_a_slow_writer() {
        /// Takes 5 ms over every write.
        struct Slow(Writes);
        impl Write for Slow {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                thread::sleep(std::time::Duration::from_millis(5));
                self.0.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let writes = Writes::default();
        let mut t = Tracer::jsonl_writer(Box::new(Slow(writes.clone())), TraceConfig::all());
        let events: Vec<TraceEvent> = (0..BATCH_EVENTS as u32 + 10).map(|i| enq(i, 0)).collect();
        for ev in &events {
            t.emit(*ev);
        }
        t.flush().unwrap();
        let written = writes.calls().concat().len();
        assert_eq!(written, events.iter().map(line_len).sum::<usize>());
    }

    #[test]
    fn a_tracer_that_emits_nothing_starts_no_thread() {
        let writes = Writes::default();
        let mut t = Tracer::jsonl_writer(
            Box::new(writes.clone()),
            TraceConfig::parse("flows=1").unwrap(),
        );
        t.emit(enq(2, 0)); // filtered out
        t.flush().unwrap();
        assert!(!t.writer_started());
        t.emit(enq(1, 0));
        assert!(!t.writer_started(), "started before a hand-over");
        t.flush().unwrap();
        assert!(t.writer_started());
        assert_eq!(writes.calls().len(), 1);
    }

    #[test]
    fn batches_hold_40_byte_events() {
        // The live-batch memory bound, (CHANNEL_DEPTH + 2) batches of
        // BATCH_EVENTS events, is 640 KiB at this size.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
        assert_eq!((CHANNEL_DEPTH + 2) * BATCH_EVENTS * 40, 640 << 10);
        // A simulator, tracer included, still moves to a sweep worker.
        fn send<T: Send>() {}
        send::<Tracer>();
    }

    /// A writer whose every `write` panics.
    struct Panicking;

    impl Write for Panicking {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            panic!("writer exploded")
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Run `f` on its own thread and return what it returns, failing the
    /// test if it takes more than ten seconds.
    fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("hung or panicked")
    }

    /// The message of a caught panic, if it is a string literal.
    fn message(caught: std::thread::Result<()>) -> Option<&'static str> {
        caught.err()?.downcast_ref::<&str>().copied()
    }

    #[test]
    fn a_writer_panic_is_reraised_by_flush_hand_over_and_drop() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let tracer = || Tracer::jsonl_writer(Box::new(Panicking), TraceConfig::all());
        let by_flush = within_10s(move || {
            let mut t = tracer();
            t.emit(enq(0, 0));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let _ = t.flush();
            }));
            // Re-raised once: the stopped sink's drop is quiet.
            drop(t);
            message(caught)
        });
        assert_eq!(by_flush, Some("writer exploded"));
        let by_hand_over = within_10s(move || {
            let mut t = tracer();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..(CHANNEL_DEPTH + 3) * BATCH_EVENTS {
                    t.emit(enq(i as u32, 0));
                }
            }));
            drop(t);
            message(caught)
        });
        assert_eq!(by_hand_over, Some("writer exploded"));
        let by_drop = within_10s(move || {
            let mut t = tracer();
            t.emit(enq(0, 0));
            message(catch_unwind(AssertUnwindSafe(move || drop(t))))
        });
        assert_eq!(by_drop, Some("writer exploded"));
        // Dropped while its owner unwinds, the sink does not re-raise (that
        // would abort the process): the owner's panic is the one caught.
        let while_unwinding = within_10s(move || {
            message(catch_unwind(AssertUnwindSafe(move || {
                let mut t = tracer();
                t.emit(enq(0, 0));
                panic!("owner failed");
            })))
        });
        assert_eq!(while_unwinding, Some("owner failed"));
    }

    #[test]
    fn a_panicking_owner_still_writes_every_event() {
        let writes = Writes::default();
        let w = writes.clone();
        let caught = std::panic::catch_unwind(move || {
            let mut t = jsonl(&w);
            for i in 0..BATCH_EVENTS as u32 + 5 {
                t.emit(enq(i, 0));
            }
            panic!("owner failed");
        });
        assert!(caught.is_err());
        let lines = writes.calls().concat();
        assert_eq!(
            lines.iter().filter(|&&b| b == b'\n').count(),
            BATCH_EVENTS + 5
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
