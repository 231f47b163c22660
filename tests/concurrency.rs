//! Stress integration: the lockless invariants under heavy concurrency,
//! through the facade API.

use ktrace::prelude::*;
use std::sync::Arc;

/// Many threads per CPU region (K42 allows any thread to log to the buffer
/// of the CPU it runs on; migration means regions see multiple threads).
#[test]
fn many_threads_one_region_no_lost_or_corrupt_events() {
    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig {
            buffer_words: 2048,
            buffers_per_cpu: 8,
            ..TraceConfig::default()
        })
        .clock(clock as Arc<dyn ClockSource>)
        .ncpus(2)
        .build()
        .unwrap();

    let nthreads = 6;
    let per_thread = 20_000u64;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // A consumer drains both CPUs continuously.
    let drained = {
        let logger = logger.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut bufs = Vec::new();
            loop {
                let mut got = false;
                for cpu in 0..2 {
                    while let Some(b) = logger.take_buffer(cpu) {
                        bufs.push(b);
                        got = true;
                    }
                }
                if got {
                    continue;
                }
                if !stop.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                    continue;
                }
                logger.flush_all();
                for cpu in 0..2 {
                    while let Some(b) = logger.take_buffer(cpu) {
                        bufs.push(b);
                    }
                }
                return bufs;
            }
        })
    };

    let workers: Vec<_> = (0..nthreads)
        .map(|t| {
            let h = logger.handle(t % 2).unwrap();
            std::thread::spawn(move || {
                let mut logged = 0u64;
                for i in 0..per_thread {
                    let payload = [t as u64, i, t as u64 ^ i];
                    if h.log_slice(MajorId::TEST, t as u16, &payload[..(i % 4) as usize]) {
                        logged += 1;
                    }
                }
                logged
            })
        })
        .collect();
    let logged: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    stop.store(true, std::sync::atomic::Ordering::Release);
    let buffers = drained.join().unwrap();

    let mut seen = 0u64;
    let mut dropped_marked = 0u64;
    for b in &buffers {
        assert!(b.complete, "cpu {} seq {} garbled", b.cpu, b.seq);
        let parsed = ktrace::core::parse_buffer(b.cpu, b.seq, &b.words, None);
        assert!(parsed.clean(), "{:?}", parsed.notes);
        for e in &parsed.events {
            if e.major == MajorId::TEST {
                seen += 1;
                // Payload integrity.
                if e.payload.len() == 3 {
                    assert_eq!(e.payload[0] ^ e.payload[1], e.payload[2]);
                }
            }
            if e.is_control() && e.minor == ktrace::format::ids::control::DROPPED {
                dropped_marked += e.payload[0];
            }
        }
    }
    assert_eq!(seen, logged, "every logged event read back exactly once");
    // The consumer's final flush sealed the last drops into a marker, so
    // the buffers alone account for every attempt.
    assert_eq!(logged + dropped_marked, nthreads as u64 * per_thread);
}

/// Dynamic enable/disable while logging is in flight (paper goal 4).
#[test]
fn mask_toggling_under_load_is_safe() {
    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small().flight_recorder())
        .clock(clock as Arc<dyn ClockSource>)
        .ncpus(1)
        .build()
        .unwrap();
    let h = logger.handle(0).unwrap();
    let toggler = {
        let logger = logger.clone();
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                logger.mask().disable(MajorId::TEST);
                logger.mask().enable(MajorId::TEST);
            }
        })
    };
    let mut logged = 0u64;
    for i in 0..200_000u64 {
        if h.log_slice(MajorId::TEST, 0, &[i]) {
            logged += 1;
        }
    }
    toggler.join().unwrap();
    assert!(logged > 0);
    assert_eq!(logger.telemetry().snapshot().events_logged(), logged);
    // The stream still parses cleanly.
    let snap = logger.snapshot(0);
    for seq in snap.oldest_seq()..snap.current_seq() {
        let parsed = ktrace::core::parse_buffer(0, seq, snap.buffer(seq).unwrap(), None);
        assert!(parsed.clean(), "seq {seq}: {:?}", parsed.notes);
    }
}
