//! Quickstart: the whole pipeline in one file.
//!
//! Log events from several threads through the lockless per-CPU buffers,
//! stream them to a trace file, read the file back, and print the Fig. 5
//! style listing — entirely through the public API.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ktrace::prelude::*;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("ktrace-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("quickstart.ktrace");

    // 1. A logger with one lockless buffer region per "CPU".
    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::default())
        .clock(clock)
        .ncpus(2)
        .build()
        .expect("logger");

    // 2. Self-describing events: declared once, rendered by any tool.
    logger.register_event(
        MajorId::USER,
        1,
        EventDescriptor::new(
            "TRACE_APP_REQUEST",
            "64 64",
            "request %0[%d] handled in %1[%d] ns",
        )
        .expect("valid descriptor"),
    );
    logger.register_event(
        MajorId::USER,
        2,
        EventDescriptor::new("TRACE_APP_PHASE", "str", "entering phase %0[%s]")
            .expect("valid descriptor"),
    );

    // 3. A session: a background drainer streams completed buffers to disk
    //    while the application keeps logging.
    let session = TraceSession::builder()
        .logger(logger.clone())
        .create(&path)
        .expect("session");

    // 4. Log from two threads, each bound to its own CPU's buffers.
    let workers: Vec<_> = (0..2)
        .map(|cpu| {
            let handle = session.logger().handle(cpu).expect("cpu in range");
            std::thread::spawn(move || {
                handle
                    .log_fields(
                        MajorId::USER,
                        2,
                        &[FieldValue::Str(format!("worker-{cpu}"))],
                    )
                    .expect("spec matches");
                for i in 0..10_000u64 {
                    // The hot path: a CAS in a per-CPU buffer, nothing else.
                    handle.log_slice(MajorId::USER, 1, &[i, 100 + i % 900]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let records = session.finish().records_written;
    println!("wrote {records} buffer records to {}\n", path.display());

    // 5. Read back and render: the registry travels inside the file.
    let trace = Trace::from_file(&path).expect("read trace");
    println!("--- first 10 events ---");
    print!(
        "{}",
        render_listing(
            &trace,
            &ListingOptions {
                hide_control: true,
                limit: 10,
                ..Default::default()
            }
        )
    );
    println!(
        "\ntotal events in file: {}",
        trace.events.iter().filter(|e| !e.is_control()).count()
    );

    std::fs::remove_dir_all(&dir).ok();
}
