//! Streaming trace file writer.

use crate::error::IoError;
use crate::file::{encode_record_header, FileHeader};
use ktrace_core::CompletedBuffer;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// Writes a trace file: header first, then fixed-size buffer records in
/// completion order. Any `Write` sink works ("written out to disk, or
/// streamed over the network").
pub struct TraceFileWriter<W: Write> {
    sink: W,
    buffer_words: usize,
}

impl TraceFileWriter<BufWriter<std::fs::File>> {
    /// Creates a trace file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        header: &FileHeader,
    ) -> Result<TraceFileWriter<BufWriter<std::fs::File>>, IoError> {
        let file = std::fs::File::create(path)?;
        TraceFileWriter::new(BufWriter::new(file), header)
    }
}

/// Writes all of `bytes`, riding out a flaky sink: short writes resume
/// (no byte duplicated), `Interrupted` is always retried, and transient
/// errors (`WouldBlock`, `TimedOut`) are retried up to `retries`
/// consecutive times with linearly growing `backoff` between attempts.
/// Returns the total number of transient-error retries it took.
fn write_retrying<W: Write>(
    sink: &mut W,
    bytes: &[u8],
    retries: u32,
    backoff: Duration,
) -> Result<u32, IoError> {
    let mut off = 0usize;
    let mut attempts = 0u32;
    let mut total_retries = 0u32;
    while off < bytes.len() {
        match sink.write(&bytes[off..]) {
            Ok(0) => {
                return Err(IoError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "sink accepted zero bytes",
                )))
            }
            Ok(n) => {
                off += n;
                attempts = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if attempts < retries
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                attempts += 1;
                total_retries = total_retries.saturating_add(1);
                std::thread::sleep(backoff * attempts);
            }
            Err(e) => return Err(IoError::Io(e)),
        }
    }
    Ok(total_retries)
}

impl<W: Write> TraceFileWriter<W> {
    /// Wraps any sink, writing the header immediately. With no retries the
    /// write behaves like `write_all`.
    pub fn new(sink: W, header: &FileHeader) -> Result<TraceFileWriter<W>, IoError> {
        TraceFileWriter::new_retrying(sink, header, 0, Duration::ZERO)
    }

    /// Wraps any sink like [`new`](TraceFileWriter::new), but writes the
    /// header with transient-error retry (see
    /// [`write_buffer_retrying`](TraceFileWriter::write_buffer_retrying)).
    pub fn new_retrying(
        mut sink: W,
        header: &FileHeader,
        retries: u32,
        backoff: Duration,
    ) -> Result<TraceFileWriter<W>, IoError> {
        write_retrying(&mut sink, &header.encode(), retries, backoff)?;
        Ok(TraceFileWriter {
            sink,
            buffer_words: header.buffer_words as usize,
        })
    }

    /// Encodes one completed buffer as record bytes (header + words).
    fn encode_record(&self, buf: &CompletedBuffer) -> Vec<u8> {
        assert_eq!(
            buf.words.len(),
            self.buffer_words,
            "buffer geometry must match the file header"
        );
        let header = encode_record_header(buf.cpu as u32, buf.seq, buf.complete);
        let mut bytes = Vec::with_capacity(header.len() + self.buffer_words * 8);
        bytes.extend_from_slice(&header);
        for w in &buf.words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    /// Appends one completed buffer as a record, with no retries.
    pub fn write_buffer(&mut self, buf: &CompletedBuffer) -> Result<(), IoError> {
        self.write_buffer_retrying(buf, 0, Duration::ZERO)?;
        Ok(())
    }

    /// Appends one completed buffer, riding out a flaky sink: short writes
    /// resume mid-record (no byte duplicated), `Interrupted` is always
    /// retried, and transient errors (`WouldBlock`, `TimedOut`) are retried
    /// up to `retries` consecutive times with linearly growing `backoff`
    /// between attempts. Anything else — or a retry budget exhausted — is
    /// returned, and the sink should be considered dead (a partial record
    /// may be in flight; the salvage reader re-anchors past it). On success,
    /// returns how many transient-error retries the record took (telemetry
    /// fodder).
    pub fn write_buffer_retrying(
        &mut self,
        buf: &CompletedBuffer,
        retries: u32,
        backoff: Duration,
    ) -> Result<u32, IoError> {
        let bytes = self.encode_record(buf);
        write_retrying(&mut self.sink, &bytes, retries, backoff)
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> Result<W, IoError> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::EventRegistry;

    fn header(buffer_words: u32) -> FileHeader {
        FileHeader {
            ncpus: 1,
            buffer_words,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        }
    }

    fn buf(cpu: usize, seq: u64, words: Vec<u64>, complete: bool) -> CompletedBuffer {
        let expected = words.len() as u64;
        CompletedBuffer {
            cpu,
            seq,
            words,
            complete,
            committed_words: if complete { expected } else { expected - 1 },
            expected_words: expected,
            events: 0,
        }
    }

    #[test]
    fn writes_header_and_fixed_records() {
        let h = header(16);
        let mut w = TraceFileWriter::new(Vec::new(), &h).unwrap();
        w.write_buffer(&buf(0, 0, vec![1; 16], true)).unwrap();
        w.write_buffer(&buf(0, 1, vec![2; 16], false)).unwrap();
        let bytes = w.finish().unwrap();
        let (_, hdr_len) = FileHeader::decode(&bytes).unwrap();
        assert_eq!(bytes.len(), hdr_len + 2 * h.record_size());
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn wrong_geometry_panics() {
        let h = header(16);
        let mut w = TraceFileWriter::new(Vec::new(), &h).unwrap();
        w.write_buffer(&buf(0, 0, vec![1; 8], true)).unwrap();
    }
}
