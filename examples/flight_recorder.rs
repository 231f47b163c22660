//! The flight recorder (§4.2): "if the kernel should crash, the most recent
//! activity recorded by the tracing infrastructure is available."
//!
//! The buffers run in circular mode with no consumer; after a simulated
//! crash we dump the last events — optionally filtered by major class, as
//! the paper's debugger hook allows.
//!
//! ```sh
//! cargo run --example flight_recorder
//! ```

use ktrace::events::{exception, mem, sched};
use ktrace::prelude::*;
use std::sync::Arc;

fn main() {
    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small().flight_recorder()) // circular, overwrite-oldest
        .clock(clock as Arc<dyn ClockSource>)
        .build()
        .expect("logger");
    ktrace::events::register_all(&logger);
    let h = logger.handle(0).expect("cpu 0");

    // A long-running "system": far more activity than the buffers hold.
    for i in 0..100_000u64 {
        h.log_event(&mem::alloc(64 + i % 512, 0x1000_0000 + i));
        if i % 7 == 0 {
            h.log_event(&sched::ctx_switch(i, i + 1, i % 5));
        }
        if i == 99_997 {
            // The smoking gun right before the "crash".
            h.log_event(&exception::pgflt(0xdead, 0xbad_add));
        }
    }
    println!(
        "simulated crash after 100k+ events in a {} KiB region\n",
        TraceConfig::small().region_words() * 8 / 1024
    );

    // The debugger hook: last N events, newest data still there.
    let registry = logger.registry();
    println!("--- flight recorder: last 8 events ---");
    for e in logger.dump_last(8, None).events {
        let line = registry
            .lookup(e.major, e.minor)
            .and_then(|d| d.describe(&e.payload).ok())
            .unwrap_or_else(|| format!("{:?}", e.payload));
        println!("t={} {line}", e.time);
    }

    println!("\n--- same dump, EXCEPTION class only ---");
    for e in logger.dump_last(4, Some(&[MajorId::EXCEPTION])).events {
        println!("t={} faultAddr {:#x}", e.time, e.payload[1]);
    }
}
