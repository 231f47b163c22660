//! The [`TraceSource`] abstraction: one contract over the ways a stored
//! trace is read.
//!
//! * [`FileSource`] — the strict on-disk reader ([`TraceFileReader`]).
//! * [`SalvageSource`] — the forgiving reader over a (possibly damaged)
//!   byte image ([`ktrace_io::salvage_trace`]).
//! * `ktrace_collectd::CollectSource` — a collector's per-node shard files.
//!
//! A live logger's snapshot is [`Trace::from_logger`], and a drained network
//! stream is the strict reader over the received bytes (the wire format *is*
//! the file format); neither needs a source of its own.
//!
//! Every source yields a [`Trace`]: events in canonical
//! [`order_key`](ktrace_core::reader::RawEvent::order_key) order plus the
//! registry and clock rate. The contract sources must honor: **the data
//! events** (everything outside the `CONTROL` major) **of one underlying
//! trace are identical through every source that can see the whole trace**.
//! Control events are transport artifacts — a drained file carries fillers a
//! live snapshot has not written yet — so queries that must agree across
//! sources should filter `major == CONTROL` out (the parity matrix test pins
//! exactly this).

use ktrace_io::{salvage_trace, IoError, Trace, TraceFileReader};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a source could not be read.
#[derive(Debug)]
pub enum QueryError {
    /// The underlying reader failed.
    Io(IoError),
    /// The source's bytes could not be obtained at all.
    Unreadable(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Io(e) => write!(f, "trace source unreadable: {e}"),
            QueryError::Unreadable(msg) => write!(f, "trace source unreadable: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<IoError> for QueryError {
    fn from(e: IoError) -> QueryError {
        QueryError::Io(e)
    }
}

/// One way of reading a trace. See the module docs for the cross-source
/// contract.
pub trait TraceSource {
    /// Human-readable tag for reports and errors.
    fn describe(&self) -> String;

    /// Reads everything the source can see.
    fn load(&mut self) -> Result<Trace, QueryError>;

    /// Reads only events with `t0 <= time < t1`. The default filters a full
    /// load; sources with §3.2 random access override it to touch only the
    /// records that can overlap the window.
    fn load_window(&mut self, t0: u64, t1: u64) -> Result<Trace, QueryError> {
        Ok(self.load()?.window(t0, t1))
    }
}

/// The strict on-disk trace file.
#[derive(Debug, Clone)]
pub struct FileSource {
    path: PathBuf,
}

impl FileSource {
    /// A source reading `path` on every load.
    pub fn new(path: impl AsRef<Path>) -> FileSource {
        FileSource {
            path: path.as_ref().to_path_buf(),
        }
    }
}

impl TraceSource for FileSource {
    fn describe(&self) -> String {
        format!("file:{}", self.path.display())
    }

    fn load(&mut self) -> Result<Trace, QueryError> {
        Ok(Trace::from_file(&self.path)?)
    }

    /// Seeks via each record's time anchor (§3.2): only records whose
    /// anchor range can overlap `[t0, t1)` are decoded.
    fn load_window(&mut self, t0: u64, t1: u64) -> Result<Trace, QueryError> {
        Ok(TraceFileReader::open(&self.path)?.load(Some((t0, t1)))?)
    }
}

/// The forgiving reader over a byte image: never refuses, recovers every
/// event outside damaged extents.
#[derive(Debug, Clone)]
pub struct SalvageSource {
    bytes: Vec<u8>,
    origin: String,
}

impl SalvageSource {
    /// A source salvaging an in-memory image.
    pub fn from_bytes(bytes: Vec<u8>) -> SalvageSource {
        SalvageSource {
            bytes,
            origin: "bytes".to_string(),
        }
    }

    /// A source salvaging a file's bytes (read once, here).
    pub fn from_file(path: impl AsRef<Path>) -> Result<SalvageSource, QueryError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| QueryError::Unreadable(format!("{}: {e}", path.display())))?;
        Ok(SalvageSource {
            bytes,
            origin: path.display().to_string(),
        })
    }
}

impl TraceSource for SalvageSource {
    fn describe(&self) -> String {
        format!("salvage:{}", self.origin)
    }

    fn load(&mut self) -> Result<Trace, QueryError> {
        Ok(salvage_trace(&self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_core::reader::RawEvent;
    use ktrace_format::{EventRegistry, MajorId};

    fn raw(cpu: usize, time: u64, minor: u16) -> RawEvent {
        RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major: MajorId::TEST,
            minor,
            payload: vec![].into(),
        }
    }

    #[test]
    fn default_window_filters_half_open() {
        struct Fixed(Vec<RawEvent>);
        impl TraceSource for Fixed {
            fn describe(&self) -> String {
                "fixed".into()
            }
            fn load(&mut self) -> Result<Trace, QueryError> {
                Ok(Trace::new(
                    self.0.clone(),
                    EventRegistry::with_builtin(),
                    1_000,
                ))
            }
        }
        let mut src = Fixed((0..10).map(|i| raw(0, i * 10, i as u16)).collect());
        let win = src.load_window(20, 50).unwrap();
        let times: Vec<u64> = win.events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![20, 30, 40]);
    }
}
