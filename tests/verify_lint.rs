//! Integration: the stream linter over a live multi-writer logger.
//!
//! Several threads log concurrently through the lockless reservation path
//! while a consumer drains buffers; everything drained must satisfy every
//! stream invariant the linter checks.

use ktrace::core::CompletedBuffer;
use ktrace::prelude::*;
use ktrace::verify::lint::lint_completed_buffers;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

#[test]
fn multi_writer_trace_lints_clean() {
    const NCPUS: usize = 4;
    const EVENTS_PER_CPU: u64 = 2_000;

    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .clock(clock)
        .ncpus(NCPUS)
        .build()
        .unwrap();
    logger.register_event(
        MajorId::TEST,
        1,
        EventDescriptor::new("TRACE_TEST_PAIR", "64 64", "a %0[%d] b %1[%d]").unwrap(),
    );

    let done = AtomicBool::new(false);
    let collected: Mutex<Vec<CompletedBuffer>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..NCPUS)
            .map(|cpu| {
                let logger = &logger;
                s.spawn(move || {
                    let h = logger.handle(cpu).unwrap();
                    for i in 0..EVENTS_PER_CPU {
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
