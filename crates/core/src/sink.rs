//! Log sinks: in-memory buffering, JSONL persistence, and the async batched
//! channel sink that moves logging off the inference thread.
//!
//! # Drain protocol
//!
//! The [`ChannelSink`] decouples the hot path from persistence: `write`
//! appends to a bounded buffer shared with a background writer thread and
//! returns immediately; the writer swaps the whole buffer out and forwards
//! it to the wrapped sink in size- or count-triggered batches. A producer
//! wakes the writer only when a batch is due (`batch_records` /
//! `batch_bytes` reached), when it has to park on a full buffer, or on
//! flush/close — until then records ride along at no context switch.
//! `capacity` bounds the records admitted and not yet handed to the wrapped
//! sink. [`LogSink::write_batch`] is one admission: the whole batch is
//! enqueued or the whole batch is counted dropped (a batch larger than
//! `capacity` is admitted once the buffer is empty), and `blocked` moves by
//! one per admission that had to wait. Three operations control the
//! buffered records' lifecycle:
//!
//! * [`ChannelSink::flush`] — blocks until every record enqueued *before*
//!   the call has been handed to the underlying sink (and that sink has been
//!   flushed).
//! * [`ChannelSink::close`] — flushes, stops the writer thread and returns
//!   the final [`SinkBackpressure`] accounting. Idempotent.
//! * Drop — closes implicitly; records enqueued before drop are persisted.
//!
//! Writes arriving after `close` are counted as dropped, never silently
//! lost: the [`SinkBackpressure`] counters always satisfy
//! `enqueued + dropped == write calls` and, once `close` returns,
//! `persisted == enqueued`. A write racing `close` either lands before the
//! writer's last swap (and is persisted) or is counted as dropped — the
//! closed flag is read under the lock the append takes, which makes the
//! accounting exact. A writer thread that dies (the wrapped sink panicked)
//! closes the sink on its way out: later writes are counted dropped and
//! `flush` reports the loss instead of waiting.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::log::LogRecord;
use crate::{ExrayError, Result};

/// A destination for telemetry records. Sinks are thread-safe: the monitor
/// logs from wherever inference runs.
pub trait LogSink: Send + Sync {
    /// Appends one record.
    fn write(&self, record: LogRecord);

    /// Appends a batch of records. The default loops over [`LogSink::write`];
    /// sinks with per-call locking override this to amortize the lock over
    /// the whole batch.
    fn write_batch(&self, records: Vec<LogRecord>) {
        for record in records {
            self.write(record);
        }
    }

    /// Bytes persisted/buffered so far (storage accounting for Table 2).
    fn bytes_written(&self) -> u64;

    /// Pushes buffered output to durable storage. A no-op for sinks without
    /// an internal buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ExrayError::Io`] on filesystem failures.
    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

/// Records plus byte accounting, guarded by one lock so a reader can never
/// observe the two out of sync (a record counted in `bytes` but not yet in
/// `records`, or vice versa).
#[derive(Debug, Default)]
struct MemoryBuffer {
    records: Vec<LogRecord>,
    bytes: u64,
}

/// Buffers records in memory; the default sink, drained by the offline
/// validator.
#[derive(Debug, Default)]
pub struct MemorySink {
    buffer: Mutex<MemoryBuffer>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns everything buffered so far.
    pub fn drain(&self) -> Vec<LogRecord> {
        let mut buffer = self.buffer.lock();
        buffer.bytes = 0;
        std::mem::take(&mut buffer.records)
    }

    /// Copies everything buffered so far without draining.
    pub fn snapshot(&self) -> Vec<LogRecord> {
        self.buffer.lock().records.clone()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buffer.lock().records.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.lock().records.is_empty()
    }

    /// Record count and byte count read under one lock acquisition — the
    /// pair is guaranteed mutually consistent even mid-contention.
    pub fn len_and_bytes(&self) -> (usize, u64) {
        let buffer = self.buffer.lock();
        (buffer.records.len(), buffer.bytes)
    }
}

impl LogSink for MemorySink {
    fn write(&self, record: LogRecord) {
        let mut buffer = self.buffer.lock();
        buffer.bytes += record.byte_size();
        buffer.records.push(record);
    }

    fn write_batch(&self, records: Vec<LogRecord>) {
        let mut buffer = self.buffer.lock();
        buffer.bytes += records.iter().map(LogRecord::byte_size).sum::<u64>();
        buffer.records.extend(records);
    }

    fn bytes_written(&self) -> u64 {
        self.buffer.lock().bytes
    }
}

/// Writes records as JSON lines to a file (the "EXray logs on the SD card").
#[derive(Debug)]
pub struct JsonlFileSink {
    writer: Mutex<JsonlWriter>,
}

#[derive(Debug)]
struct JsonlWriter {
    out: BufWriter<File>,
    bytes: u64,
}

impl JsonlWriter {
    fn write_line(&mut self, record: &LogRecord) {
        if let Ok(line) = serde_json::to_string(record) {
            self.bytes += line.len() as u64 + 1;
            let _ = writeln!(self.out, "{line}");
        }
    }
}

impl JsonlFileSink {
    /// Creates (truncating) the log file.
    ///
    /// # Errors
    ///
    /// Returns [`ExrayError::Io`] on filesystem failures.
    pub fn create(path: &Path) -> Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(ExrayError::Io)?;
        }
        let file = File::create(path).map_err(ExrayError::Io)?;
        Ok(JsonlFileSink {
            writer: Mutex::new(JsonlWriter {
                out: BufWriter::new(file),
                bytes: 0,
            }),
        })
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Returns [`ExrayError::Io`] on failure.
    pub fn flush(&self) -> Result<()> {
        self.writer.lock().out.flush().map_err(ExrayError::Io)
    }

    /// Reads a JSONL log file back into records.
    ///
    /// # Errors
    ///
    /// Returns [`ExrayError::Io`] / [`ExrayError::Format`] on failure.
    pub fn read(path: &Path) -> Result<Vec<LogRecord>> {
        let data = std::fs::read_to_string(path).map_err(ExrayError::Io)?;
        data.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).map_err(|e| ExrayError::Format(e.to_string())))
            .collect()
    }
}

impl LogSink for JsonlFileSink {
    fn write(&self, record: LogRecord) {
        self.writer.lock().write_line(&record);
    }

    fn write_batch(&self, records: Vec<LogRecord>) {
        let mut writer = self.writer.lock();
        for record in &records {
            writer.write_line(record);
        }
    }

    fn bytes_written(&self) -> u64 {
        self.writer.lock().bytes
    }

    fn flush(&self) -> Result<()> {
        JsonlFileSink::flush(self)
    }
}

/// Duplicates records to two sinks (e.g. memory for validation + JSONL for
/// persistence).
pub struct TeeSink<A: LogSink, B: LogSink> {
    a: A,
    b: B,
}

impl<A: LogSink, B: LogSink> TeeSink<A, B> {
    /// Combines two sinks.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }

    /// The first sink.
    pub fn first(&self) -> &A {
        &self.a
    }

    /// The second sink.
    pub fn second(&self) -> &B {
        &self.b
    }
}

impl<A: LogSink, B: LogSink> LogSink for TeeSink<A, B> {
    fn write(&self, record: LogRecord) {
        self.a.write(record.clone());
        self.b.write(record);
    }

    fn write_batch(&self, records: Vec<LogRecord>) {
        self.a.write_batch(records.clone());
        self.b.write_batch(records);
    }

    fn bytes_written(&self) -> u64 {
        self.a.bytes_written().max(self.b.bytes_written())
    }

    fn flush(&self) -> Result<()> {
        self.a.flush()?;
        self.b.flush()
    }
}

/// What [`ChannelSink::write`] does when the bounded buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the caller until the writer thread frees a slot (lossless; the
    /// inference thread absorbs the backpressure as latency). A caller
    /// already blocked when `close` lands is still admitted and persisted.
    #[default]
    Block,
    /// Drop the incoming record and count it (lossy; inference latency is
    /// protected at the cost of telemetry completeness).
    DropNewest,
}

/// Tuning for a [`ChannelSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSinkConfig {
    /// Most records admitted and not yet handed to the wrapped sink.
    pub capacity: usize,
    /// Flush the pending batch once it holds this many records.
    pub batch_records: usize,
    /// ... or once it holds this many (approximate serialized) bytes,
    /// whichever triggers first.
    pub batch_bytes: u64,
    /// Behavior when the buffer is full.
    pub overflow: OverflowPolicy,
}

impl Default for ChannelSinkConfig {
    fn default() -> Self {
        ChannelSinkConfig {
            capacity: 1024,
            batch_records: 64,
            batch_bytes: 256 * 1024,
            overflow: OverflowPolicy::Block,
        }
    }
}

/// Backpressure and batching accounting of a [`ChannelSink`] — the
/// "telemetry overhead" side of the Table-2 storage metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkBackpressure {
    /// Records successfully enqueued to the writer thread.
    pub enqueued: u64,
    /// Records dropped (buffer full under [`OverflowPolicy::DropNewest`],
    /// or write attempted after close).
    pub dropped: u64,
    /// Admissions (one per `write` or `write_batch`) that found the buffer
    /// full and had to block ([`OverflowPolicy::Block`] only) — each is
    /// hot-path latency paid for losslessness.
    pub blocked: u64,
    /// Batches handed to the underlying sink.
    pub batches: u64,
    /// Records persisted through those batches.
    pub persisted: u64,
}

impl SinkBackpressure {
    /// Stable `(name, help, value)` triples for metrics exporters. The
    /// names are wire-stable suffixes (exporters prepend their own
    /// namespace, e.g. `mlexray_sink_<name>_total`); appending new
    /// counters is allowed, renaming existing ones is not.
    pub fn export(&self) -> [(&'static str, &'static str, u64); 5] {
        [
            (
                "enqueued",
                "Records successfully enqueued to the sink writer thread.",
                self.enqueued,
            ),
            (
                "dropped",
                "Records dropped at enqueue (buffer full or sink closed).",
                self.dropped,
            ),
            (
                "blocked",
                "Admissions that blocked on a full buffer (lossless mode).",
                self.blocked,
            ),
            (
                "batches",
                "Batches handed to the underlying sink.",
                self.batches,
            ),
            (
                "persisted",
                "Records persisted through those batches.",
                self.persisted,
            ),
        ]
    }
}

/// Everything producers, flushers and the writer thread share, behind one
/// lock: the records not yet taken by the writer, the ones it holds, the
/// flush tickets, and the books.
#[derive(Default)]
struct Buffer {
    /// Admitted records the writer has not taken yet.
    pending: Vec<LogRecord>,
    pending_bytes: u64,
    /// Records the writer has swapped out and not yet handed to the wrapped
    /// sink; they still occupy `capacity`.
    in_flight: usize,
    /// Producers parked on a full buffer.
    parked: usize,
    /// Flush tickets issued, and the highest one the writer has served.
    flush_requested: u64,
    flush_served: u64,
    /// No further record is admitted. Read under the lock the append takes,
    /// so a write racing `close` lands before the writer's last swap (and
    /// is persisted) or is counted dropped.
    closed: bool,
    /// The writer thread has returned or unwound: nobody will serve a
    /// ticket or free a slot any more.
    writer_gone: bool,
    stats: SinkBackpressure,
}

impl Buffer {
    /// Whether `count` more records fit. A batch larger than `capacity` is
    /// admitted once the buffer is empty, so it can never wait forever.
    fn fits(&self, count: usize, config: &ChannelSinkConfig) -> bool {
        let held = self.pending.len() + self.in_flight;
        held == 0 || held + count <= config.capacity
    }

    /// Whether `pending` has reached a batch threshold.
    fn batch_due(&self, config: &ChannelSinkConfig) -> bool {
        self.pending.len() >= config.batch_records || self.pending_bytes >= config.batch_bytes
    }

    /// Whether the writer thread has a reason to swap `pending` out now.
    /// Every update that can turn this true is followed by a notify on
    /// `work`. A closed sink with producers still parked waits for them: the
    /// last swap is the one that finds nobody parked.
    fn writer_due(&self, config: &ChannelSinkConfig) -> bool {
        self.batch_due(config)
            || (self.parked > 0 && !self.pending.is_empty())
            || self.flush_requested > self.flush_served
            || (self.closed && self.parked == 0)
    }
}

struct Shared {
    /// The tuning, every threshold raised to at least 1.
    config: ChannelSinkConfig,
    buffer: std::sync::Mutex<Buffer>,
    /// The writer thread waits here: a batch is due, a producer is parked, a
    /// flush ticket is outstanding, or the sink closed.
    work: Condvar,
    /// Parked producers and flushers wait here: a slot was freed, a ticket
    /// was served, or the writer is gone.
    progress: Condvar,
}

impl Shared {
    /// Nothing panics while holding this lock (the wrapped sink is called
    /// outside it) and every update leaves the buffer valid, so a poisoned
    /// lock is recovered rather than turned into a panic on the inference
    /// thread.
    fn lock(&self) -> MutexGuard<'_, Buffer> {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`Condvar::wait`] with the same poison recovery as [`Shared::lock`].
fn wait<'a>(on: &Condvar, guard: MutexGuard<'a, Buffer>) -> MutexGuard<'a, Buffer> {
    on.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Marks the sink closed and wakes everyone when the writer thread exits,
/// normally or by a panic of the wrapped sink: a parked producer or a
/// flusher must never wait on a thread that is gone.
struct WriterExit<'a>(&'a Shared);

impl Drop for WriterExit<'_> {
    fn drop(&mut self) {
        {
            let mut buffer = self.0.lock();
            buffer.closed = true;
            buffer.writer_gone = true;
        }
        self.0.work.notify_all();
        self.0.progress.notify_all();
    }
}

/// The writer thread: swap the pending records out whenever a batch is due,
/// hand them to `inner` in chunks of at most `batch_records` with the lock
/// released, serve the flush tickets issued before the swap.
fn run_writer(shared: &Shared, inner: &dyn LogSink) {
    let _exit = WriterExit(shared);
    let batch_records = shared.config.batch_records;
    // `pending` and `taken` trade places on every swap, so steady state
    // allocates nothing on the producer side.
    let mut taken: Vec<LogRecord> = Vec::new();
    loop {
        let (tickets, closing) = {
            let mut buffer = shared.lock();
            while !buffer.writer_due(&shared.config) {
                buffer = wait(&shared.work, buffer);
            }
            std::mem::swap(&mut buffer.pending, &mut taken);
            buffer.pending_bytes = 0;
            buffer.in_flight = taken.len();
            buffer.stats.persisted += taken.len() as u64;
            buffer.stats.batches += taken.len().div_ceil(batch_records) as u64;
            let tickets = buffer.flush_requested;
            (
                (tickets > buffer.flush_served).then_some(tickets),
                buffer.closed && buffer.parked == 0,
            )
        };
        let mut rest = taken.drain(..);
        loop {
            let chunk: Vec<LogRecord> = rest.by_ref().take(batch_records).collect();
            if chunk.is_empty() {
                break;
            }
            let handed = chunk.len();
            inner.write_batch(chunk);
            let mut buffer = shared.lock();
            buffer.in_flight -= handed;
            if buffer.parked > 0 {
                shared.progress.notify_all();
            }
        }
        drop(rest);
        if tickets.is_some() || closing {
            let _ = inner.flush();
        }
        if let Some(served) = tickets {
            shared.lock().flush_served = served;
            shared.progress.notify_all();
        }
        // Read under the lock of the swap: the sink was closed and nobody
        // was parked, so nothing was admitted after it and that swap took
        // the last record.
        if closing {
            break;
        }
    }
}

/// Moves [`LogRecord`]s off the inference thread: `write` appends to a
/// shared bounded buffer, and a background writer thread swaps it out and
/// forwards it to the wrapped sink in size-/count-triggered batches. See
/// the module docs for the flush/close drain protocol.
pub struct ChannelSink {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
    inner: Arc<dyn LogSink>,
}

impl std::fmt::Debug for ChannelSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buffer = self.shared.lock();
        f.debug_struct("ChannelSink")
            .field("stats", &buffer.stats)
            .field("closed", &buffer.closed)
            .finish_non_exhaustive()
    }
}

impl ChannelSink {
    /// Spawns the writer thread over `inner` with the given tuning.
    pub fn new(inner: Arc<dyn LogSink>, config: ChannelSinkConfig) -> Self {
        let shared = Arc::new(Shared {
            config: ChannelSinkConfig {
                capacity: config.capacity.max(1),
                batch_records: config.batch_records.max(1),
                batch_bytes: config.batch_bytes.max(1),
                overflow: config.overflow,
            },
            buffer: std::sync::Mutex::new(Buffer::default()),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        let (worker_shared, worker_inner) = (shared.clone(), inner.clone());
        let worker = std::thread::Builder::new()
            .name("mlexray-log-writer".into())
            .spawn(move || run_writer(&worker_shared, worker_inner.as_ref()))
            .expect("spawn log-writer thread");
        ChannelSink {
            shared,
            worker: Mutex::new(Some(worker)),
            inner,
        }
    }

    /// Convenience: an async batched JSONL file sink.
    ///
    /// # Errors
    ///
    /// Returns [`ExrayError::Io`] on filesystem failures.
    pub fn jsonl(path: &Path, config: ChannelSinkConfig) -> Result<Self> {
        Ok(ChannelSink::new(
            Arc::new(JsonlFileSink::create(path)?),
            config,
        ))
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &Arc<dyn LogSink> {
        &self.inner
    }

    /// Current backpressure accounting.
    pub fn stats(&self) -> SinkBackpressure {
        self.shared.lock().stats
    }

    /// Blocks until every record enqueued before this call is persisted to
    /// the underlying sink (and the underlying sink is flushed).
    ///
    /// # Errors
    ///
    /// Returns [`ExrayError::Format`] if the sink is already closed, or if
    /// the writer thread died before serving the flush.
    pub fn flush(&self) -> Result<()> {
        let mut buffer = self.shared.lock();
        if buffer.closed {
            return Err(ExrayError::Format("flush after close".into()));
        }
        buffer.flush_requested += 1;
        let ticket = buffer.flush_requested;
        self.shared.work.notify_one();
        while buffer.flush_served < ticket && !buffer.writer_gone {
            buffer = wait(&self.shared.progress, buffer);
        }
        if buffer.flush_served >= ticket {
            Ok(())
        } else {
            Err(ExrayError::Format("log-writer thread gone".into()))
        }
    }

    /// Drains outstanding records, stops the writer thread and returns the
    /// final accounting. Safe to call more than once; later calls just
    /// return the (frozen) stats. Writes racing with or arriving after
    /// `close` are either persisted (appended before the writer's last
    /// swap) or counted as dropped — the accounting stays exact either way.
    pub fn close(&self) -> SinkBackpressure {
        self.shared.lock().closed = true;
        self.shared.work.notify_one();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        self.stats()
    }

    /// One admission of `count` records weighing `bytes`: all of them are
    /// appended by `append`, or all are counted dropped.
    fn admit(&self, count: usize, bytes: u64, append: impl FnOnce(&mut Vec<LogRecord>)) {
        let config = &self.shared.config;
        let mut buffer = self.shared.lock();
        let mut admitted = !buffer.closed && buffer.fits(count, config);
        if !admitted && !buffer.closed && config.overflow == OverflowPolicy::Block {
            buffer.stats.blocked += 1;
            buffer.parked += 1;
            self.shared.work.notify_one();
            // Parked before `close`, admitted before the writer's last
            // swap: only a writer that is gone sheds a parked producer.
            while !buffer.writer_gone && !buffer.fits(count, config) {
                buffer = wait(&self.shared.progress, buffer);
            }
            buffer.parked -= 1;
            admitted = !buffer.writer_gone;
        }
        if !admitted {
            buffer.stats.dropped += count as u64;
            return;
        }
        append(&mut buffer.pending);
        buffer.pending_bytes += bytes;
        buffer.stats.enqueued += count as u64;
        // The writer is woken only when it has something to do now — a batch
        // is due, or this append sits in front of a producer that is still
        // parked; until then records ride along in `pending` at no context
        // switch.
        let wake = buffer.writer_due(config);
        drop(buffer);
        if wake {
            self.shared.work.notify_one();
        }
    }
}

impl Drop for ChannelSink {
    fn drop(&mut self) {
        self.close();
    }
}

impl LogSink for ChannelSink {
    fn write(&self, record: LogRecord) {
        self.admit(1, record.byte_size(), |pending| pending.push(record));
    }

    /// One admission for the whole batch: every record is enqueued, or
    /// every record is counted dropped.
    fn write_batch(&self, records: Vec<LogRecord>) {
        if records.is_empty() {
            return;
        }
        let bytes = records.iter().map(LogRecord::byte_size).sum();
        self.admit(records.len(), bytes, |pending| pending.extend(records));
    }

    /// Bytes the *underlying* sink has persisted so far; records still in
    /// the buffer are not yet counted.
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn flush(&self) -> Result<()> {
        ChannelSink::flush(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogValue;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn rec(frame: u64) -> LogRecord {
        LogRecord {
            frame,
            key: "k".into(),
            value: LogValue::Scalar(1.0),
        }
    }

    /// Forwards to a memory sink, but only while the gate is unlocked —
    /// holding the gate stalls the writer thread so the bounded buffer
    /// fills deterministically.
    #[derive(Default)]
    struct GatedSink {
        gate: Mutex<()>,
        inner: MemorySink,
    }
    impl LogSink for GatedSink {
        fn write(&self, record: LogRecord) {
            let _gate = self.gate.lock();
            self.inner.write(record);
        }
        fn bytes_written(&self) -> u64 {
            self.inner.bytes_written()
        }
    }

    #[test]
    fn memory_sink_buffers_and_drains() {
        let sink = MemorySink::new();
        sink.write(rec(0));
        sink.write(rec(1));
        assert_eq!(sink.len(), 2);
        assert!(sink.bytes_written() > 0);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());
        assert_eq!(sink.bytes_written(), 0);
    }

    #[test]
    fn memory_sink_len_and_bytes_stay_consistent_under_contention() {
        // Regression: `records` and `bytes` used to live behind two
        // independent mutexes, so a reader could observe bytes for a record
        // that was not yet pushed. With fixed-size records, any consistent
        // snapshot must satisfy bytes == len * record_size exactly.
        let sink = Arc::new(MemorySink::new());
        let record_size = rec(0).byte_size();
        let writers = 4;
        let per_writer = 500;
        std::thread::scope(|scope| {
            for _ in 0..writers {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        sink.write(rec(i));
                    }
                });
            }
            let sink = sink.clone();
            scope.spawn(move || {
                for _ in 0..2000 {
                    let (len, bytes) = sink.len_and_bytes();
                    assert_eq!(
                        bytes,
                        len as u64 * record_size,
                        "records/bytes observed out of sync"
                    );
                }
            });
        });
        let (len, bytes) = sink.len_and_bytes();
        assert_eq!(len, writers * per_writer as usize);
        assert_eq!(bytes, len as u64 * record_size);
    }

    #[test]
    fn jsonl_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mlexray-sink-{}", std::process::id()));
        let path = dir.join("log.jsonl");
        let sink = JsonlFileSink::create(&path).unwrap();
        sink.write(rec(0));
        sink.write(rec(1));
        sink.flush().unwrap();
        let back = JsonlFileSink::read(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].frame, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tee_duplicates() {
        let tee = TeeSink::new(MemorySink::new(), MemorySink::new());
        tee.write(rec(0));
        assert_eq!(tee.first().len(), 1);
        assert_eq!(tee.second().len(), 1);
        // A batch reaches both sides as a batch: a `ChannelSink` behind a
        // tee still sees one admission.
        let behind = ChannelSink::new(
            Arc::new(MemorySink::new()),
            ChannelSinkConfig {
                capacity: 2,
                overflow: OverflowPolicy::DropNewest,
                ..Default::default()
            },
        );
        let tee = TeeSink::new(MemorySink::new(), behind);
        tee.write(rec(0));
        tee.write_batch(vec![rec(1), rec(2), rec(3)]);
        assert_eq!(tee.first().len(), 4);
        let stats = tee.second().close();
        assert_eq!((stats.enqueued, stats.dropped), (1, 3), "{stats:?}");
    }

    #[test]
    fn channel_sink_batches_and_drains_on_close() {
        let inner = Arc::new(MemorySink::new());
        let sink = ChannelSink::new(
            inner.clone(),
            ChannelSinkConfig {
                capacity: 8,
                batch_records: 4,
                ..Default::default()
            },
        );
        for i in 0..10 {
            sink.write(rec(i));
        }
        let stats = sink.close();
        assert_eq!(stats.enqueued, 10);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.persisted, 10);
        // 10 records at batch_records=4 need at least ceil(10/4) = 3 batches,
        // but the writer may have drained eagerly into smaller batches.
        assert!(stats.batches >= 3, "{stats:?}");
        assert_eq!(inner.len(), 10);
    }

    #[test]
    fn channel_sink_flush_makes_records_visible() {
        let inner = Arc::new(MemorySink::new());
        let sink = ChannelSink::new(
            inner.clone(),
            ChannelSinkConfig {
                batch_records: 1_000_000, // never trigger a count flush
                batch_bytes: u64::MAX,
                ..Default::default()
            },
        );
        sink.write(rec(0));
        sink.write(rec(1));
        sink.flush().unwrap();
        assert_eq!(inner.len(), 2);
        sink.close();
    }

    #[test]
    fn channel_sink_counts_writes_after_close_as_dropped() {
        let inner = Arc::new(MemorySink::new());
        let sink = ChannelSink::new(inner.clone(), ChannelSinkConfig::default());
        sink.close();
        sink.write(rec(0));
        sink.write(rec(1));
        let stats = sink.stats();
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.enqueued, 0);
        assert_eq!(inner.len(), 0);
    }

    #[test]
    fn channel_sink_drop_newest_sheds_when_full() {
        let gated = Arc::new(GatedSink::default());
        let sink = ChannelSink::new(
            gated.clone(),
            ChannelSinkConfig {
                capacity: 2,
                batch_records: 1,
                overflow: OverflowPolicy::DropNewest,
                ..Default::default()
            },
        );
        let writes = 6u64;
        {
            let _stall = gated.gate.lock();
            // Whether the writer has swapped a record out or not, it still
            // occupies the buffer: at most 2 of these fit.
            for i in 0..writes {
                sink.write(rec(i));
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let stats = sink.stats();
            assert!(stats.dropped >= writes - 3, "{stats:?}");
            assert_eq!(stats.enqueued + stats.dropped, writes, "{stats:?}");
            assert_eq!(stats.blocked, 0, "DropNewest must never block");
        }
        let stats = sink.close();
        assert_eq!(stats.persisted, stats.enqueued, "{stats:?}");
        assert_eq!(gated.inner.len() as u64, stats.enqueued);
    }

    #[test]
    fn channel_sink_jsonl_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mlexray-chsink-{}", std::process::id()));
        let path = dir.join("async.jsonl");
        let sink = ChannelSink::jsonl(&path, ChannelSinkConfig::default()).unwrap();
        for i in 0..5 {
            sink.write(rec(i));
        }
        let stats = sink.close();
        assert_eq!(stats.persisted, 5);
        let back = JsonlFileSink::read(&path).unwrap();
        assert_eq!(back.len(), 5);
        assert!(sink.bytes_written() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn channel_sink_holds_a_batch_until_it_is_due() {
        let inner = Arc::new(MemorySink::new());
        let sink = ChannelSink::new(
            inner.clone(),
            ChannelSinkConfig {
                batch_records: 1_000_000, // never trigger a count flush
                batch_bytes: u64::MAX,
                ..Default::default()
            },
        );
        sink.write_batch((0..16).map(rec).collect());
        let stats = sink.stats();
        assert_eq!((stats.enqueued, stats.batches), (16, 0), "{stats:?}");
        assert!(inner.is_empty(), "nothing is due: the writer must sleep");
        sink.flush().unwrap();
        let stats = sink.stats();
        assert_eq!((stats.batches, stats.persisted), (1, 16), "{stats:?}");
        assert_eq!(inner.len(), 16);
    }

    #[test]
    fn channel_sink_write_batch_is_one_admission() {
        let gated = Arc::new(GatedSink::default());
        let sink = ChannelSink::new(
            gated.clone(),
            ChannelSinkConfig {
                capacity: 4,
                batch_records: 1,
                overflow: OverflowPolicy::DropNewest,
                ..Default::default()
            },
        );
        {
            // Whether the stalled writer has already swapped the first
            // batch out or not, its three records still occupy the buffer.
            let _stall = gated.gate.lock();
            sink.write_batch(vec![rec(0), rec(1), rec(2)]);
            sink.write_batch(vec![rec(3), rec(4), rec(5)]);
            sink.write(rec(6));
            let stats = sink.stats();
            assert_eq!((stats.enqueued, stats.dropped), (4, 3), "{stats:?}");
            assert_eq!(stats.blocked, 0, "DropNewest must never block");
        }
        let stats = sink.close();
        assert_eq!(stats.persisted, 4, "{stats:?}");
        let frames: Vec<u64> = gated.inner.drain().iter().map(|r| r.frame).collect();
        assert_eq!(frames, [0, 1, 2, 6]);
    }

    #[test]
    fn channel_sink_admits_a_batch_larger_than_capacity_when_empty() {
        let inner = Arc::new(MemorySink::new());
        let sink = ChannelSink::new(
            inner.clone(),
            ChannelSinkConfig {
                capacity: 4,
                ..Default::default()
            },
        );
        sink.write_batch((0..10).map(rec).collect());
        let stats = sink.close();
        assert_eq!((stats.enqueued, stats.dropped), (10, 0), "{stats:?}");
        assert_eq!((stats.persisted, stats.blocked), (10, 0), "{stats:?}");
        assert_eq!(inner.len(), 10);
    }

    #[test]
    fn channel_sink_flush_racing_close_returns() {
        for round in 0..50u64 {
            let sink = Arc::new(ChannelSink::new(
                Arc::new(MemorySink::new()),
                ChannelSinkConfig::default(),
            ));
            sink.write(rec(round));
            let start = Arc::new(std::sync::Barrier::new(2));
            // Detached on purpose: a flusher that hangs must fail the test
            // at the deadline below, not hang a join.
            let racers = [true, false].map(|flusher| {
                let (sink, start) = (sink.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    if flusher {
                        // Ok (served before the close) or Err (closed first).
                        let _ = sink.flush();
                    } else {
                        sink.close();
                    }
                })
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while !racers.iter().all(|racer| racer.is_finished()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "flush and close must both return"
                );
                std::thread::yield_now();
            }
            for racer in racers {
                racer.join().expect("neither side panics");
            }
            let stats = sink.stats();
            assert_eq!((stats.enqueued, stats.persisted), (1, 1), "{stats:?}");
        }
    }

    #[test]
    fn channel_sink_full_below_a_batch_strands_no_producer() {
        // The buffer is full long before a batch is due (capacity 1, 64
        // records to a batch): a producer that parks, is woken, and loses
        // the freed slot to another producer must still get the writer's
        // attention — nobody flushes or closes until every producer is back.
        for round in 0..20 {
            let sink = Arc::new(ChannelSink::new(
                Arc::new(MemorySink::new()),
                ChannelSinkConfig {
                    capacity: 1,
                    ..Default::default()
                },
            ));
            let (producers, writes) = (4u64, 25u64);
            // Detached on purpose: a stranded producer must fail the test
            // at the deadline below, not hang a join.
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let sink = sink.clone();
                    std::thread::spawn(move || {
                        for i in 0..writes {
                            sink.write(rec(p * writes + i));
                        }
                    })
                })
                .collect();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while !handles.iter().all(|handle| handle.is_finished()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: a producer is stranded: {:?}",
                    sink.stats()
                );
                std::thread::yield_now();
            }
            for handle in handles {
                handle.join().expect("no producer panics");
            }
            let stats = sink.close();
            assert_eq!(
                (stats.enqueued, stats.dropped, stats.persisted),
                (producers * writes, 0, producers * writes),
                "{stats:?}"
            );
        }
    }

    #[test]
    fn channel_sink_close_admits_a_parked_producer() {
        let gated = Arc::new(GatedSink::default());
        let sink = ChannelSink::new(
            gated.clone(),
            ChannelSinkConfig {
                capacity: 1,
                batch_records: 1,
                overflow: OverflowPolicy::Block,
                ..Default::default()
            },
        );
        let stall = gated.gate.lock();
        sink.write(rec(0));
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| sink.write(rec(1)));
            while sink.stats().blocked == 0 {
                std::thread::yield_now();
            }
            let closer = scope.spawn(|| sink.close());
            while !sink.shared.lock().closed {
                std::thread::yield_now();
            }
            // Closed with a producer parked behind a stalled writer: `Block`
            // is lossless, so the record goes in before the last swap.
            drop(stall);
            parked.join().expect("the parked producer is admitted");
            let stats = closer.join().expect("close returns");
            assert_eq!(
                (stats.enqueued, stats.dropped, stats.persisted),
                (2, 0, 2),
                "{stats:?}"
            );
        });
        sink.write(rec(2));
        assert_eq!(
            sink.stats().dropped,
            1,
            "closed to everyone who comes later"
        );
        assert_eq!(gated.inner.len(), 2);
    }

    #[test]
    fn channel_sink_with_a_dead_writer_hangs_nobody() {
        /// Persists its first batch; the second waits for the gate and
        /// then panics, taking the writer thread down.
        #[derive(Default)]
        struct PanickingSink {
            gate: Mutex<()>,
            batches: AtomicU64,
        }
        impl LogSink for PanickingSink {
            fn write(&self, _record: LogRecord) {}
            fn write_batch(&self, _records: Vec<LogRecord>) {
                if self.batches.fetch_add(1, Ordering::SeqCst) == 1 {
                    drop(self.gate.lock());
                    panic!("wrapped sink failed (expected by this test)");
                }
            }
            fn bytes_written(&self) -> u64 {
                0
            }
        }

        let inner = Arc::new(PanickingSink::default());
        let sink = ChannelSink::new(
            inner.clone(),
            ChannelSinkConfig {
                capacity: 2,
                batch_records: 1,
                overflow: OverflowPolicy::Block,
                ..Default::default()
            },
        );
        sink.write(rec(0));
        sink.flush().expect("the first batch is persisted");
        let stall = inner.gate.lock();
        // Record 1 stalls in the writer's hands, record 2 fills the buffer,
        // record 3 has to park.
        sink.write(rec(1));
        sink.write(rec(2));
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| sink.write(rec(3)));
            while sink.stats().blocked == 0 {
                std::thread::yield_now();
            }
            drop(stall);
            parked.join().expect("the parked producer is woken");
        });
        assert!(sink.flush().is_err(), "nobody is left to serve a flush");
        for frame in 4..10 {
            sink.write(rec(frame));
        }
        let stats = sink.close();
        assert_eq!(stats.enqueued + stats.dropped, 10, "{stats:?}");
        assert_eq!((stats.enqueued, stats.dropped), (3, 7), "{stats:?}");
        assert_eq!(stats.blocked, 1, "{stats:?}");
    }
}
