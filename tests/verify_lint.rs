//! Integration: the stream linter over a live multi-writer logger.
//!
//! Two threads per CPU log concurrently through the lockless reservation
//! path (`ktrace_lockless::Ring`, the paper's Fig. 2 loop), so each
//! region's reservation CAS has two writers, while a consumer drains
//! buffers; everything drained must satisfy every stream invariant the
//! linter checks. A clean report pins
//! the loop's promises on the production code: claimed extents are
//! disjoint (no zero-header or overrun note), each buffer begins with one
//! anchor (no `missing-anchor`), fillers end exactly at the boundary, and
//! each CPU's events are in time order within and across buffers.

use ktrace::core::CompletedBuffer;
use ktrace::prelude::*;
use ktrace::verify::lint::lint_completed_buffers;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

#[test]
fn multi_writer_trace_lints_clean() {
    const NCPUS: usize = 4;
    const WRITERS_PER_CPU: usize = 2;
    const EVENTS_PER_WRITER: u64 = 20_000;

    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        // Small buffers, so reservations keep crossing boundaries, and
        // enough of them to hold every event: a full ring would turn the
        // writers' reservations into drops.
        .geometry(TraceConfig {
            buffers_per_cpu: 1024,
            ..TraceConfig::small()
        })
        .clock(clock)
        .ncpus(NCPUS)
        .build()
        .unwrap();
    logger.register_event(
        MajorId::TEST,
        1,
        EventDescriptor::new("TRACE_TEST_PAIR", "64 64", "a %0[%d] b %1[%d]").unwrap(),
    );

    // Every writer starts at once, so two share each region's reservation
    // index while both are logging.
    let start = Barrier::new(NCPUS * WRITERS_PER_CPU);
    let done = AtomicBool::new(false);
    let collected: Mutex<Vec<CompletedBuffer>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..NCPUS * WRITERS_PER_CPU)
            .map(|w| {
                let (logger, start) = (&logger, &start);
                s.spawn(move || {
                    let h = logger.handle(w % NCPUS).unwrap();
                    start.wait();
                    for i in 0..EVENTS_PER_WRITER {
                        h.log_slice(MajorId::TEST, 1, &[i, i * 2]);
                    }
                })
            })
            .collect();
        // Concurrent consumer: drain buffers while writers are mid-stream.
        let consumer = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                for cpu in 0..NCPUS {
                    if let Some(b) = logger.take_buffer(cpu) {
                        collected.lock().unwrap().push(b);
                    }
                }
                std::thread::yield_now();
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        consumer.join().unwrap();
    });

    logger.flush_all();
    let mut bufs = collected.into_inner().unwrap();
    for per_cpu in logger.drain_all() {
        bufs.extend(per_cpu);
    }
    assert!(bufs.len() >= NCPUS, "expected at least one buffer per CPU");

    let report = lint_completed_buffers(&bufs, &logger.registry(), logger.config().buffer_words);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.events_checked as u64 >= NCPUS as u64);
}
