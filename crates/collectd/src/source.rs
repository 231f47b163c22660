//! [`CollectSource`]: the `ktrace-query` [`TraceSource`] over a collector
//! store, so every assertion in `props/ktrace.toml` runs unchanged against
//! fleet data — per node, or fleet-wide merged.
//!
//! Every shard is a valid trace file, so loading is just
//! [`TraceFileReader::load`] over each shard; [`Trace::new`] re-normalizes
//! the cross-shard (and cross-node) stream into the canonical order — the
//! same contract every other source honors. Windowed loads use each shard's
//! §3.2 time anchors, so a narrow question touches only the records that
//! can answer it, shard by shard.

use crate::store;
use ktrace_format::EventRegistry;
use ktrace_io::TraceFileReader;
use ktrace_query::{QueryError, Trace, TraceSource};
use std::path::{Path, PathBuf};

/// A query source over a collector store.
#[derive(Debug, Clone)]
pub struct CollectSource {
    root: PathBuf,
    node: Option<String>,
}

impl CollectSource {
    /// The fleet-wide merged view: every node in the store.
    pub fn open(root: impl AsRef<Path>) -> CollectSource {
        CollectSource {
            root: root.as_ref().to_path_buf(),
            node: None,
        }
    }

    /// One node's view.
    pub fn node(root: impl AsRef<Path>, name: impl Into<String>) -> CollectSource {
        CollectSource {
            root: root.as_ref().to_path_buf(),
            node: Some(name.into()),
        }
    }

    /// Node names visible in the store.
    pub fn nodes(&self) -> Vec<String> {
        store::node_names(&self.root)
    }

    fn selected_shards(&self) -> Result<Vec<PathBuf>, QueryError> {
        let names = match &self.node {
            Some(name) => vec![name.clone()],
            None => store::node_names(&self.root),
        };
        let shards: Vec<PathBuf> = names
            .iter()
            .flat_map(|n| store::shard_paths(&self.root, n))
            .collect();
        if shards.is_empty() {
            return Err(QueryError::Unreadable(format!(
                "no shards under {} for {}",
                self.root.display(),
                self.node.as_deref().unwrap_or("any node"),
            )));
        }
        Ok(shards)
    }

    /// Loads the selected shards (whole, or `window` only), merging
    /// registries (the richest wins — nodes may register different app
    /// events) and taking the clock rate from the first shard.
    fn load_shards(&self, window: Option<(u64, u64)>) -> Result<Trace, QueryError> {
        let mut events = Vec::new();
        let mut registry = EventRegistry::new();
        let mut ticks_per_sec = 0u64;
        for shard in self.selected_shards()? {
            let part = TraceFileReader::open(&shard)?.load(window)?;
            if part.registry.len() > registry.len() {
                registry = part.registry;
            }
            if ticks_per_sec == 0 {
                ticks_per_sec = part.ticks_per_sec;
            }
            events.extend(part.events);
        }
        Ok(Trace::new(events, registry, ticks_per_sec))
    }
}

impl TraceSource for CollectSource {
    fn describe(&self) -> String {
        match &self.node {
            Some(n) => format!("collect:{}/{n}", self.root.display()),
            None => format!("collect:{} (fleet)", self.root.display()),
        }
    }

    fn load(&mut self) -> Result<Trace, QueryError> {
        self.load_shards(None)
    }

    fn load_window(&mut self, t0: u64, t1: u64) -> Result<Trace, QueryError> {
        self.load_shards(Some((t0, t1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::NodeStore;
    use ktrace_core::TraceConfig;
    use ktrace_format::MajorId;
    use ktrace_io::TraceSession;
    use ktrace_testutil::TempDir;
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    struct VecSink(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs a small session into memory and splits its byte stream into a
    /// store for `node` (header + every record through a rolling store).
    fn populate(store_root: &Path, node: &str, times: &[u64]) -> u64 {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = VecSink(bytes.clone());
        let session = TraceSession::builder()
            .geometry(TraceConfig::small())
            .ncpus(1)
            .start(sink)
            .unwrap();
        for &t in times {
            assert!(session
                .logger()
                .handle(0)
                .unwrap()
                .log_slice(MajorId::TEST, 1, &[t]));
        }
        let stats = session.finish();
        assert!(stats.lossless());

        let bytes = bytes.lock().unwrap().clone();
        let (header, header_len) = ktrace_io::FileHeader::decode(&bytes).unwrap();
        let record_size = header.record_size();
        let mut ns = NodeStore::create(
            store_root,
            node,
            bytes[..header_len].to_vec(),
            record_size,
            2,
        )
        .unwrap();
        for record in bytes[header_len..].chunks(record_size) {
            assert_eq!(record.len(), record_size, "whole records only");
            ns.append(record).unwrap();
        }
        ns.finish().unwrap();
        stats.records_written
    }

    #[test]
    fn node_and_fleet_views_load_and_merge() {
        let tmp = TempDir::new("collect-source");
        populate(tmp.path(), "a", &[1, 2, 3]);
        populate(tmp.path(), "b", &[4, 5]);

        let mut one = CollectSource::node(tmp.path(), "a");
        assert_eq!(one.load().unwrap().data_events().count(), 3);

        let mut fleet = CollectSource::open(tmp.path());
        assert_eq!(fleet.nodes(), vec!["a".to_string(), "b".to_string()]);
        let set = fleet.load().unwrap();
        assert_eq!(set.data_events().count(), 5);
        // Canonical order holds across nodes.
        let times: Vec<u64> = set.events.iter().map(|e| e.time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert!(set.ticks_per_sec > 0);
        assert!(!set.registry.is_empty(), "registry came through the shards");
    }

    #[test]
    fn windowed_load_matches_filtered_full_load() {
        let tmp = TempDir::new("collect-window");
        populate(tmp.path(), "a", &(0..200).collect::<Vec<u64>>());

        let mut src = CollectSource::node(tmp.path(), "a");
        let full = src.load().unwrap();
        let (t0, t1) = {
            let all: Vec<u64> = full.data_events().map(|e| e.time).collect();
            (all[all.len() / 4], all[3 * all.len() / 4])
        };
        let windowed = src.load_window(t0, t1).unwrap();
        let expect: Vec<u64> = full
            .data_events()
            .map(|e| e.time)
            .filter(|&t| t >= t0 && t < t1)
            .collect();
        let got: Vec<u64> = windowed.data_events().map(|e| e.time).collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn empty_store_is_unreadable_not_empty() {
        let tmp = TempDir::new("collect-empty");
        let mut src = CollectSource::open(tmp.path());
        assert!(matches!(src.load(), Err(QueryError::Unreadable(_))));
    }
}
