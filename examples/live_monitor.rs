//! Performance *monitoring*: watching a live system (§1: "this event log
//! may be examined while the system is running").
//!
//! Workers log continuously; the main thread periodically snapshots the
//! flight recorder and prints a rolling event-rate summary and the most
//! recent activity, without stopping or perturbing the workers.
//!
//! ```sh
//! cargo run --example live_monitor
//! ```

use ktrace::analysis::{EventStats, Trace};
use ktrace::events::{mem, syscall, sysno};
use ktrace::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::default().flight_recorder())
        .clock(clock as Arc<dyn ClockSource>)
        .ncpus(2)
        .build()
        .expect("logger");
    ktrace::events::register_all(&logger);

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|cpu| {
            let h = logger.handle(cpu).expect("cpu");
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.log_event(&mem::alloc(64 + i % 256, i));
                    if i.is_multiple_of(3) {
                        h.log_event(&syscall::entry(cpu as u64, i, sysno::READ));
                    }
                    i += 1;
                    if i.is_multiple_of(1000) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            })
        })
        .collect();

    for round in 1..=3 {
        std::thread::sleep(Duration::from_millis(120));
        // Snapshot without stopping anything: the monitoring half of the
        // "unified" story.
        let trace = Trace::from_logger(&logger, 1_000_000_000);
        let stats = EventStats::compute(&trace);
        println!(
            "--- monitor tick {round}: {:.0} events/sec in window ---",
            stats.events_per_sec()
        );
        for ((maj, min), count) in stats.sorted().into_iter().take(3) {
            let name = trace
                .registry
                .lookup(maj, min)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("{maj}/{min}"));
            println!("  {count:>8}  {name}");
        }
    }

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker");
    }
    let s = logger.telemetry().snapshot();
    println!(
        "\nfinal: {} events logged, {} dropped",
        s.events_logged(),
        s.events_dropped()
    );
}
