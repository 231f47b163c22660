//! Lock order from a real machine trace.
//!
//! Run a workload that nests real lock acquisitions on the simulated
//! machine and fold its `LOCK` events with `verify::lockorder`: the nesting
//! is consistent, so there is no cycle, and mapped to the kernel's lock
//! classes the instance edges are exactly the three orders the kernel's
//! source takes (the user lock held across malloc, the FS directory calls,
//! and page free).

use ktrace::ossim::kernel::{ALLOC_LOCK_BASE, DIR_LOCK_ID, PAGE_LOCK_ID, USER_LOCK_BASE};
use ktrace::ossim::{KTracer, Machine, MachineConfig, Op, ProcessSpec, Program, Workload};
use ktrace::prelude::*;
use ktrace::verify::lock_order;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Maps a traced lock ID to the kernel field it belongs to. The ID bases
/// are the kernel's, re-exported so this mapping cannot silently drift.
fn lock_class(id: u64) -> Option<&'static str> {
    if id >= USER_LOCK_BASE {
        Some("user_locks")
    } else if id >= DIR_LOCK_ID {
        Some("dir_lock")
    } else if id >= PAGE_LOCK_ID {
        Some("page_lock")
    } else if id >= ALLOC_LOCK_BASE {
        Some("alloc_locks")
    } else {
        None
    }
}

#[test]
fn the_nested_workload_has_no_lock_order_cycle_and_three_class_edges() {
    let clock: Arc<SyncClock> = Arc::new(SyncClock::new());
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small().flight_recorder())
        .clock(clock as Arc<dyn ClockSource>)
        .ncpus(2)
        .build()
        .expect("logger");
    ktrace::events::register_all(&logger);
    let machine = Machine::new(MachineConfig::fast_test(2), Arc::new(KTracer::new(logger)));

    let nested = Program::new()
        .op(Op::UserLock { lock: 0 })
        .op(Op::Malloc { size: 4096 })
        .op(Op::FsOpen { path: 7 })
        .op(Op::FsClose { path: 7 })
        .op(Op::FreePages { pages: 2 })
        .op(Op::UserUnlock { lock: 0 });
    let mut workload = Workload::new(vec![
        ProcessSpec::new("nested-a", nested.clone()),
        ProcessSpec::new("nested-b", nested),
    ]);
    workload.user_locks = 1;
    let report = machine.run(workload);
    assert!(!report.aborted, "nested workload must not deadlock");

    let trace = Trace::from_logger(machine.tracer().logger(), 1_000_000_000);
    let analysis = lock_order(&trace.events);
    assert!(analysis.is_clean(), "{}", analysis.render());

    let classes: BTreeSet<(&str, &str)> = analysis
        .edges
        .keys()
        .filter_map(|&(from, to)| Some((lock_class(from)?, lock_class(to)?)))
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(
        classes,
        BTreeSet::from([
            ("user_locks", "alloc_locks"),
            ("user_locks", "dir_lock"),
            ("user_locks", "page_lock"),
        ]),
        "{}",
        analysis.render()
    );
}
