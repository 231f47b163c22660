//! The simulated OS's event vocabulary.
//!
//! Minor IDs per major class, the simulated-function name table used by the
//! PC sampler and lock call chains (names deliberately mirror the K42
//! routines visible in the paper's Figures 6 and 7), and the descriptor
//! registration that makes every event self-describing (§4.4).
//!
//! Every event is declared once, through [`ktrace_event!`], and that one
//! declaration drives both ends of its life: the registry row a reader
//! renders it with, and the typed emitter a simulator logs it with. An
//! event logged under the wrong major, with the wrong minor or with the
//! wrong number of fields does not compile.

use ktrace_core::TraceLogger;
use ktrace_format::{EventDescriptor, MajorId};

pub mod decode;

#[doc(hidden)]
pub use ktrace_format as __format;

/// One event registration row: everything the self-describing registry
/// needs, produced by [`ktrace_event!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDef {
    /// Minor ID within the module's major class.
    pub minor: u16,
    /// Symbolic event name (the K42-style `TRACE_…` identifier).
    pub name: &'static str,
    /// Field spec: space-separated `64|str` tokens.
    pub spec: &'static str,
    /// Render template with `%N[%fmt]` field references.
    pub template: &'static str,
}

/// Declares the whole event vocabulary, one module per major class.
///
/// Each event is written `CONST / emitter = minor => ("NAME", [field: 64,
/// …], "template")`. Fields are 64-bit words; the last one may instead be
/// `str`. From that line the macro generates:
///
/// * `pub const CONST: u16`, the minor ID;
/// * the module's `MAJOR` and its `EVENTS` rows, whose field spec
///   (`"64 64 str"`) is spelled from the field list;
/// * `pub fn emitter(field: u64, …)`, which returns a
///   [`ktrace_format::Event`] carrying the module's major, the minor and the
///   packed payload — an `Event<[u64; N]>` for 64-bit fields, an
///   `Event<Vec<u64>>` when a `str` field ends the list;
/// * `ALL_EVENTS`, every module's rows in declaration order.
///
/// It also asserts at compile time that each major may carry registered
/// events (not `CONTROL`/`TEST`, inside the 64-ID mask space), that no two
/// modules share a major, that event names are unique across modules, that
/// minors are distinct within a module, that every payload fits one event,
/// and that every `%N` in a template names a declared field. The minor is
/// typed `u16`, so a literal that overflows the header's minor field is a
/// compile error too.
///
/// ```
/// ktrace_events::ktrace_event! {
///     /// Demo minors.
///     pub mod demo [ktrace_events::__format::MajorId::USER] {
///         /// Something happened.
///         HAPPENED / happened = 1 => ("TRACE_DEMO_HAPPENED", [value: 64], "value %0[%d]"),
///         /// Something was named.
///         NAMED / named = 2 => ("TRACE_DEMO_NAMED", [id: 64, name: str], "%0[%d] is %1[%s]"),
///     }
/// }
/// fn main() {
///     let e = demo::happened(7);
///     assert_eq!((e.major(), e.minor(), e.payload()), (demo::MAJOR, demo::HAPPENED, &[7][..]));
///     assert_eq!(demo::named(1, "ab").payload(), &[1, 2, 0x6261]);
///     assert_eq!(demo::EVENTS[1].spec, "64 str");
/// }
/// ```
///
/// Each of these fails to build. An emitter called with the wrong arity:
///
/// ```compile_fail,E0061
/// let _ = ktrace_events::sched::ctx_switch(1, 2);
/// ```
///
/// A `str` field that is not the last:
///
/// ```compile_fail
/// ktrace_events::ktrace_event! {
///     pub mod demo [ktrace_events::__format::MajorId::USER] {
///         BAD / bad = 1 => ("TRACE_DEMO_BAD", [name: str, value: 64], "%0[%s] %1[%d]"),
///     }
/// }
/// # fn main() {}
/// ```
///
/// A template that references a field the list does not declare:
///
/// ```compile_fail,E0080
/// ktrace_events::ktrace_event! {
///     pub mod demo [ktrace_events::__format::MajorId::USER] {
///         BAD / bad = 1 => ("TRACE_DEMO_BAD", [value: 64], "%0[%d] then %1[%d]"),
///     }
/// }
/// # fn main() {}
/// ```
///
/// One event name in two modules:
///
/// ```compile_fail,E0080
/// ktrace_events::ktrace_event! {
///     pub mod a [ktrace_events::__format::MajorId::USER] {
///         E / e = 1 => ("TRACE_SAME", [], "e"),
///     }
///     pub mod b [ktrace_events::__format::MajorId::LIB] {
///         E / e = 1 => ("TRACE_SAME", [], "e"),
///     }
/// }
/// # fn main() {}
/// ```
///
/// Two modules under one major:
///
/// ```compile_fail,E0080
/// ktrace_events::ktrace_event! {
///     pub mod a [ktrace_events::__format::MajorId::USER] {
///         E / e = 1 => ("TRACE_A_E", [], "e"),
///     }
///     pub mod b [ktrace_events::__format::MajorId::USER] {
///         E / e = 2 => ("TRACE_B_E", [], "e"),
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! ktrace_event {
    ($(
        $(#[$modmeta:meta])*
        $vis:vis mod $module:ident [$major:expr] {
            $(
                $(#[$evmeta:meta])*
                $name:ident / $emit:ident = $minor:literal => (
                    $evname:literal, [$($field:ident : $width:tt),* $(,)?], $template:literal
                )
            ),* $(,)?
        }
    )*) => {
        $(
            $(#[$modmeta])*
            $vis mod $module {
                #[allow(unused_imports)]
                use super::*;

                $(
                    $(#[$evmeta])*
                    #[doc = ""]
                    #[doc = concat!("Fields: `[", stringify!($($field: $width),*), "]`.")]
                    pub const $name: u16 = $minor;

                    $crate::__emitter!($name $emit [] $($field : $width),*);
                )*

                /// The major ID every event in this module is logged under.
                pub const MAJOR: $crate::__format::MajorId = $major;

                /// Registration rows for this module, one per event.
                pub const EVENTS: &[$crate::EventDef] = &[
                    $($crate::EventDef {
                        minor: $minor,
                        name: $evname,
                        spec: $crate::__spec!($($width)*),
                        template: $template,
                    }),*
                ];

                const _: () = {
                    assert!(
                        $crate::__major_is_registerable(MAJOR),
                        "major is reserved (CONTROL/TEST) or outside the trace-mask ID space"
                    );
                    $(
                        assert!(
                            <[&str]>::len(&[$(stringify!($field)),*])
                                <= $crate::__format::MAX_PAYLOAD_WORDS,
                            concat!("payload cannot fit one event for ", $evname)
                        );
                        assert!(
                            $crate::__template_fields_in_range(
                                $template,
                                <[&str]>::len(&[$(stringify!($field)),*]),
                            ),
                            concat!("template names an undeclared field for ", $evname)
                        );
                    )*
                    assert!(
                        $crate::__minors_distinct(EVENTS),
                        "duplicate minor ID within this module"
                    );
                };
            }
        )*

        /// Every declared module's registration table, in declaration order.
        pub const ALL_EVENTS: &[($crate::__format::MajorId, &[$crate::EventDef])] = &[
            $(($module::MAJOR, $module::EVENTS)),*
        ];

        const _: () = {
            assert!($crate::__majors_distinct(ALL_EVENTS), "two event modules share a major");
            assert!($crate::__names_distinct(ALL_EVENTS), "an event name is declared twice");
        };
    };
}

/// One event's emitter, from its field list: 64-bit fields are munched into
/// the accumulator, and the list must end there or in one `str` field.
#[doc(hidden)]
#[macro_export]
macro_rules! __emitter {
    ($name:ident $emit:ident [$($f:ident)*] $g:ident : 64, $($rest:tt)+) => {
        $crate::__emitter!($name $emit [$($f)* $g] $($rest)+);
    };
    ($name:ident $emit:ident [$($f:ident)*] $($g:ident : 64)?) => {
        #[doc = concat!("Builds a [`", stringify!($name), "`] event.")]
        #[inline(always)]
        pub fn $emit(
            $($f: u64,)* $($g: u64)?
        ) -> $crate::__format::Event<[u64; <[&str]>::len(&[$(stringify!($f),)* $(stringify!($g))?])]> {
            $crate::__format::Event::__new(MAJOR, $name, [$($f,)* $($g)?])
        }
    };
    ($name:ident $emit:ident [$($f:ident)*] $s:ident : str) => {
        #[doc = concat!("Builds a [`", stringify!($name), "`] event; the name is packed as the paper's string field.")]
        #[inline]
        pub fn $emit($($f: u64,)* $s: &str) -> $crate::__format::Event<Vec<u64>> {
            let mut p = $crate::__format::pack::WordPacker::new();
            $(p.push($f, 64);)*
            p.push_str($s);
            $crate::__format::Event::__new(MAJOR, $name, p.finish())
        }
    };
    ($name:ident $emit:ident [$($f:ident)*] $($bad:tt)*) => {
        compile_error!(concat!(
            "`", stringify!($name), "`: fields are `name: 64`, and only the last may be `name: str`"
        ));
    };
}

/// The field spec string of a width list: `64 64 str` → `"64 64 str"`.
#[doc(hidden)]
#[macro_export]
macro_rules! __spec {
    () => { "" };
    ($w:tt) => { stringify!($w) };
    ($w:tt $($rest:tt)+) => { concat!(stringify!($w), " ", $crate::__spec!($($rest)+)) };
}

/// Const check that every `%N` field reference in a render template names
/// one of `fields` fields (`%x`/`%llx` conversions carry no digits).
#[doc(hidden)]
pub const fn __template_fields_in_range(template: &str, fields: usize) -> bool {
    let b = template.as_bytes();
    let mut i = 0;
    while i < b.len() {
        i += 1;
        if b[i - 1] != b'%' {
            continue;
        }
        let start = i;
        let mut n = 0usize;
        while i < b.len() && b[i].is_ascii_digit() {
            n = n.saturating_mul(10).saturating_add((b[i] - b'0') as usize);
            i += 1;
        }
        if i > start && n >= fields {
            return false;
        }
    }
    true
}

/// Const check that every row in a module table has a distinct minor.
#[doc(hidden)]
pub const fn __minors_distinct(events: &[EventDef]) -> bool {
    let mut i = 0;
    while i < events.len() {
        let mut j = i + 1;
        while j < events.len() {
            if events[i].minor == events[j].minor {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

/// Const check that no two modules register under one major.
#[doc(hidden)]
pub const fn __majors_distinct(all: &[(MajorId, &[EventDef])]) -> bool {
    let mut i = 0;
    while i < all.len() {
        let mut j = i + 1;
        while j < all.len() {
            if all[i].0.raw() == all[j].0.raw() {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

/// Const check that symbolic event names are unique across every module
/// (the postprocessor resolves a name without major context).
#[doc(hidden)]
pub const fn __names_distinct(all: &[(MajorId, &[EventDef])]) -> bool {
    let mut m = 0;
    while m < all.len() {
        let mut e = 0;
        while e < all[m].1.len() {
            let name = all[m].1[e].name.as_bytes();
            let (mut n, mut f) = (m, e + 1);
            while n < all.len() {
                while f < all[n].1.len() {
                    if bytes_eq(name, all[n].1[f].name.as_bytes()) {
                        return false;
                    }
                    f += 1;
                }
                n += 1;
                f = 0;
            }
            e += 1;
        }
        m += 1;
    }
    true
}

const fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Const check that a major may carry registered simulator events: inside
/// the 64-ID mask space and not one of the reserved classes (`CONTROL`
/// carries the stream's own filler/anchor/dropped events; `TEST` is the
/// harness scratch class).
#[doc(hidden)]
pub const fn __major_is_registerable(major: MajorId) -> bool {
    let raw = major.raw();
    (raw as usize) < ktrace_format::NUM_MAJOR_IDS
        && raw != MajorId::CONTROL.raw()
        && raw != MajorId::TEST.raw()
}

ktrace_event! {
    /// `SCHED` minors.
    pub mod sched [MajorId::SCHED] {
        /// Context switch.
        CTX_SWITCH / ctx_switch = 1 => ("TRACE_SCHED_CTX_SWITCH",
            [old_tid: 64, new_tid: 64, new_pid: 64],
            "switch from thread %0[%x] to thread %1[%x] pid %2[%d]"),
        /// CPU went idle.
        IDLE_START / idle_start = 2 => ("TRACE_SCHED_IDLE_START", [], "cpu idle"),
        /// CPU left idle.
        IDLE_END / idle_end = 3 => ("TRACE_SCHED_IDLE_END", [idle_ns: 64],
            "cpu busy after %0[%d] ns idle"),
        /// Task migrated.
        MIGRATE / migrate = 4 => ("TRACE_SCHED_MIGRATE", [tid: 64, from_cpu: 64, to_cpu: 64],
            "thread %0[%x] migrated cpu %1[%d] -> cpu %2[%d]"),
        /// Task became runnable.
        THREAD_START / thread_start = 5 => ("TRACE_SCHED_THREAD_START", [tid: 64, pid: 64],
            "thread %0[%x] of pid %1[%d] runnable"),
        /// Task finished.
        THREAD_EXIT / thread_exit = 6 => ("TRACE_SCHED_THREAD_EXIT", [tid: 64, pid: 64],
            "thread %0[%x] of pid %1[%d] exited"),
    }

    /// `PROC` minors.
    pub mod proc [MajorId::PROC] {
        /// Process created.
        CREATE / create = 1 => ("TRACE_PROC_CREATE", [pid: 64, parent_pid: 64, name: str],
            "process %0[%d] created by %1[%d] name %2[%s]"),
        /// Process exec'd a new image.
        EXEC / exec = 2 => ("TRACE_PROC_EXEC", [pid: 64, name: str],
            "process %0[%d] exec %1[%s]"),
        /// Process exited.
        EXIT / exit = 3 => ("TRACE_PROC_EXIT", [pid: 64], "process %0[%d] exited"),
    }

    /// `SYSCALL` minors.
    pub mod syscall [MajorId::SYSCALL] {
        /// Entry.
        ENTRY / entry = 1 => ("TRACE_SYSCALL_ENTRY", [pid: 64, tid: 64, sysno: 64],
            "pid %0[%d] thread %1[%x] syscall %2[%d] entry"),
        /// Exit.
        EXIT / exit = 2 => ("TRACE_SYSCALL_EXIT", [pid: 64, tid: 64, sysno: 64],
            "pid %0[%d] thread %1[%x] syscall %2[%d] exit"),
    }

    /// `EXCEPTION` minors (page faults and PPC-style IPC transitions).
    pub mod exception [MajorId::EXCEPTION] {
        /// Page fault start.
        PGFLT / pgflt = 1 => ("TRC_EXCEPTION_PGFLT", [tid: 64, fault_addr: 64],
            "PGFLT, kernel thread %0[%llx], faultAddr %1[%llx]"),
        /// Page fault done.
        PGFLT_DONE / pgflt_done = 2 => ("TRC_EXCEPTION_PGFLT_DONE", [tid: 64, fault_addr: 64],
            "PGFLT DONE, kernel thread %0[%llx], faultAddr %1[%llx]"),
        /// Protected procedure call.
        PPC_CALL / ppc_call = 3 => ("TRC_EXCEPTION_PPC_CALL", [comm_id: 64],
            "PPC CALL, commID %0[%llx]"),
        /// Protected procedure return.
        PPC_RETURN / ppc_return = 4 => ("TRC_EXCEPTION_PPC_RETURN", [comm_id: 64],
            "PPC RETURN, commID %0[%llx]"),
    }

    /// `MEM` minors.
    pub mod mem [MajorId::MEM] {
        /// Region attached to an FCM (the paper's example).
        FCM_ATCH_REG / fcm_atch_reg = 1 => ("TRC_MEM_FCMCOM_ATCH_REG", [region: 64, fcm: 64],
            "Region %0[%llx] attached to FCM %1[%llx]"),
        /// Region created.
        REG_CREATE / reg_create = 2 => ("TRC_MEM_REG_CREATE_FIX", [addr: 64, size: 64],
            "Region created addr %0[%llx] size %1[%llx]"),
        /// Allocation served.
        ALLOC / alloc = 3 => ("TRC_MEM_ALLOC", [size: 64, addr: 64],
            "alloc size %0[%d] addr %1[%llx]"),
        /// Shared-state read annotation. Emitted at shared-memory touch
        /// points so post-hoc race detectors (lockset / happens-before over
        /// the trace stream) can see the accesses, not just the locks.
        ACCESS_READ / access_read = 4 => ("TRC_MEM_ACCESS_READ", [addr: 64, tid: 64],
            "shared read addr %0[%llx] by thread %1[%x]"),
        /// Shared-state write annotation.
        ACCESS_WRITE / access_write = 5 => ("TRC_MEM_ACCESS_WRITE", [addr: 64, tid: 64],
            "shared write addr %0[%llx] by thread %1[%x]"),
    }

    /// `LOCK` minors.
    pub mod lock [MajorId::LOCK] {
        /// Lock requested.
        REQUEST / request = 1 => ("TRACE_LOCK_REQUEST", [lock_id: 64, tid: 64, call_chain: 64],
            "lock %0[%llx] requested by thread %1[%x] chain %2[%llx]"),
        /// Lock acquired.
        ACQUIRED / acquired = 2 => ("TRACE_LOCK_ACQUIRED",
            [lock_id: 64, tid: 64, call_chain: 64, spins: 64, wait_ns: 64],
            "lock %0[%llx] acquired by thread %1[%x] chain %2[%llx] spins %3[%d] wait %4[%d] ns"),
        /// Lock released.
        RELEASED / released = 3 => ("TRACE_LOCK_RELEASED", [lock_id: 64, tid: 64, hold_ns: 64],
            "lock %0[%llx] released by thread %1[%x] held %2[%d] ns"),
    }

    /// `IPC` minors.
    pub mod ipc [MajorId::IPC] {
        /// Call into a server.
        CALL / call = 1 => ("TRACE_IPC_CALL", [from_pid: 64, to_pid: 64, fn_id: 64],
            "IPC pid %0[%d] -> pid %1[%d] fn %2[%d]"),
        /// Return from a server.
        RETURN / ret = 2 => ("TRACE_IPC_RETURN", [from_pid: 64, to_pid: 64, fn_id: 64],
            "IPC return pid %0[%d] <- pid %1[%d] fn %2[%d]"),
    }

    /// `FS` minors (logged under the server's pid).
    pub mod fs [MajorId::FS] {
        /// Open.
        OPEN / open = 1 => ("TRACE_FS_OPEN", [pid: 64, path_hash: 64],
            "pid %0[%d] open path#%1[%x]"),
        /// Read.
        READ / read = 2 => ("TRACE_FS_READ", [pid: 64, bytes: 64],
            "pid %0[%d] read %1[%d] bytes"),
        /// Write.
        WRITE / write = 3 => ("TRACE_FS_WRITE", [pid: 64, bytes: 64],
            "pid %0[%d] write %1[%d] bytes"),
        /// Close.
        CLOSE / close = 4 => ("TRACE_FS_CLOSE", [pid: 64, path_hash: 64],
            "pid %0[%d] close path#%1[%x]"),
    }

    /// `USER` minors.
    pub mod user [MajorId::USER] {
        /// New user program loaded (the paper's `TRACE_USER_RUN_UL_LOADER`).
        RUN_UL_LOADER / run_ul_loader = 1 => ("TRACE_USER_RUN_UL_LOADER",
            [creator_pid: 64, new_pid: 64, name: str],
            "process %0[%d] created new process with id %1[%d] name %2[%s]"),
        /// Program returned from main (the paper's `TRACE_USER_RETURNED_MAIN`).
        RETURNED_MAIN / returned_main = 2 => ("TRACE_USER_RETURNED_MAIN", [pid: 64],
            "process %0[%d] returned from main"),
        /// Paced application tick from the adaptive closed-loop drivers
        /// (`ktrace-tools adapt`, `tests/adapt_loop.rs`).
        APP_TICK / app_tick = 3 => ("TRACE_USER_APP_TICK", [seq: 64, phase: 64],
            "tick %0[%d] phase %1[%d]"),
    }

    /// `PROF` minors.
    pub mod prof [MajorId::PROF] {
        /// Statistical PC sample (§4.5).
        PC_SAMPLE / pc_sample = 1 => ("TRACE_PROF_PC_SAMPLE", [pid: 64, tid: 64, func_id: 64],
            "pc sample pid %0[%d] thread %1[%x] func %2[%d]"),
    }

    /// `HWPERF` minors (§2: hardware-counter values logged through the unified
    /// stream, so "the counters [can] be sampled and understood at various
    /// stages throughout the program['s] … execution").
    pub mod hwperf [MajorId::HWPERF] {
        /// Counter sample.
        COUNTER_SAMPLE / counter_sample = 1 => ("TRACE_HWPERF_COUNTER",
            [counter_id: 64, cumulative_value: 64, delta_since_last: 64],
            "counter %0[%d] value %1[%d] delta %2[%d]"),
    }
}

/// Synthetic hardware-counter identities.
pub mod counter {
    /// Elapsed CPU cycles.
    pub const CYCLES: u64 = 1;
    /// Data-cache misses.
    pub const CACHE_MISSES: u64 = 2;
    /// TLB misses.
    pub const TLB_MISSES: u64 = 3;

    /// Display name for a counter.
    pub fn name(id: u64) -> &'static str {
        match id {
            CYCLES => "cycles",
            CACHE_MISSES => "cache_misses",
            TLB_MISSES => "tlb_misses",
            _ => "counter?",
        }
    }
}

/// Simulated system-call numbers.
pub mod sysno {
    pub const OPEN: u64 = 1;
    pub const READ: u64 = 2;
    pub const WRITE: u64 = 3;
    pub const CLOSE: u64 = 4;
    pub const FORK: u64 = 5;
    pub const EXEC: u64 = 6;
    pub const EXIT: u64 = 7;
    pub const BRK: u64 = 8;
    pub const MMAP: u64 = 9;
    pub const GETPID: u64 = 10;

    /// Human-readable system-call name.
    pub fn name(no: u64) -> &'static str {
        match no {
            OPEN => "SCopen",
            READ => "SCread",
            WRITE => "SCwrite",
            CLOSE => "SCclose",
            FORK => "SCfork",
            EXEC => "SCexecve",
            EXIT => "SCexit",
            BRK => "SCbrk",
            MMAP => "SCmmap",
            GETPID => "SCgetpid",
            _ => "SCunknown",
        }
    }
}

/// Simulated function IDs: the "program counter" domain of the PC sampler
/// and lock call chains. Names mirror the K42 routines in Figs. 6–7.
pub mod func {
    pub const UNKNOWN: u16 = 0;
    pub const FAIRBLOCK_ACQUIRE: u16 = 1;
    pub const GMALLOC: u16 = 2;
    pub const PMALLOC: u16 = 3;
    pub const ALLOC_REGION_ALLOC: u16 = 4;
    pub const PAGEALLOC_DEALLOC: u16 = 5;
    pub const PAGEALLOC_USER_DEALLOC: u16 = 6;
    pub const ALLOCPOOL_LARGE_FREE: u16 = 7;
    pub const ALLOCPOOL_LARGE_ALLOC: u16 = 8;
    pub const HASH_FIND: u16 = 9;
    pub const DIR_LOOKUP: u16 = 10;
    pub const MEMDESC_ALLOC: u16 = 11;
    pub const DENTRY_LOOKUP: u16 = 12;
    pub const IPC_CALLEE_ENTRY: u16 = 13;
    pub const XHANDLE_ALLOC: u16 = 14;
    pub const WORDCOPY: u16 = 15;
    pub const USER_COMPUTE: u16 = 16;
    pub const PGFLT_HANDLER: u16 = 17;
    pub const SYSCALL_DISPATCH: u16 = 18;
    pub const FCM_MAP_PAGE: u16 = 19;
    pub const PROCESS_FORK: u16 = 20;
    pub const PROG_EXEC_LOADER: u16 = 21;
    pub const SERVER_FILE_WRITE: u16 = 22;
    pub const SERVER_FILE_READ: u16 = 23;
    pub const RWLOCK_RELEASE: u16 = 24;
    pub const HASH_ADD: u16 = 25;

    /// Maps a function ID to its display name.
    pub fn name(id: u16) -> &'static str {
        match id {
            FAIRBLOCK_ACQUIRE => "FairBLock::_acquire()",
            GMALLOC => "GMalloc::gMalloc()",
            PMALLOC => "PMallocDefault::pMalloc(unsigned)",
            ALLOC_REGION_ALLOC => "AllocRegionManager::alloc(unsigned)",
            PAGEALLOC_DEALLOC => "PageAllocatorDefault::deallocPages(unsigned)",
            PAGEALLOC_USER_DEALLOC => "PageAllocatorUser::deallocPages(unsigned)",
            ALLOCPOOL_LARGE_FREE => "AllocPool::largeFree(void*)",
            ALLOCPOOL_LARGE_ALLOC => "AllocPool::largeAlloc(unsigned)",
            HASH_FIND => "HashSimpleBase<AllocGlobal, 0l>::find(unsigned long)",
            DIR_LOOKUP => "DirLinuxFS::externalLookupDirectory(char*)",
            MEMDESC_ALLOC => "MemDesc::alloc(DataChunk*)",
            DENTRY_LOOKUP => "DentryListHash::lookupPtr(char*)",
            IPC_CALLEE_ENTRY => "DispatcherDefault_IPCalleeEntry",
            XHANDLE_ALLOC => "XHandleTrans::alloc(Obj**)",
            WORDCOPY => "_wordcopy_fwd_aligned",
            USER_COMPUTE => "user_compute",
            PGFLT_HANDLER => "ExceptionLocal_PgfltHandler",
            SYSCALL_DISPATCH => "SysCallDispatch",
            FCM_MAP_PAGE => "FCMDefault::mapPage",
            PROCESS_FORK => "ProcessDefault::fork",
            PROG_EXEC_LOADER => "ProgExec_Loader",
            SERVER_FILE_WRITE => "ServerFileBlock::write",
            SERVER_FILE_READ => "ServerFileBlock::read",
            RWLOCK_RELEASE => "TmpRWLock<BLock>::releaseR()",
            HASH_ADD => "HashSNBBase<AllocGlobal, 0l, 8l>::add(unsigned long)",
            _ => "<unknown>",
        }
    }
}

/// Packs up to four function IDs (innermost first) into one 64-bit word.
pub fn pack_chain(chain: &[u16]) -> u64 {
    let mut word = 0u64;
    for (i, &f) in chain.iter().rev().take(4).enumerate() {
        word |= (f as u64) << (16 * i);
    }
    word
}

/// Unpacks a call-chain word into function IDs, innermost first.
pub fn unpack_chain(word: u64) -> Vec<u16> {
    (0..4)
        .map(|i| ((word >> (16 * i)) & 0xffff) as u16)
        .take_while(|&f| f != 0)
        .collect()
}

/// Registers self-describing descriptors for every simulator event.
pub fn register_all(logger: &TraceLogger) {
    for &(major, events) in ALL_EVENTS {
        for def in events {
            logger.register_event(
                major,
                def.minor,
                EventDescriptor::new(def.name, def.spec, def.template)
                    .expect("static descriptor is valid"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::SyncClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use std::sync::Arc;

    #[test]
    fn chain_pack_roundtrip() {
        let chain = [func::GMALLOC, func::PMALLOC, func::ALLOC_REGION_ALLOC];
        let word = pack_chain(&chain);
        // Innermost (last pushed) function in the low bits.
        assert_eq!(
            unpack_chain(word),
            vec![func::ALLOC_REGION_ALLOC, func::PMALLOC, func::GMALLOC]
        );
        assert_eq!(unpack_chain(pack_chain(&[])), Vec::<u16>::new());
        // Deeper chains keep the innermost four.
        let deep = [1u16, 2, 3, 4, 5, 6];
        assert_eq!(unpack_chain(pack_chain(&deep)), vec![6, 5, 4, 3]);
    }

    #[test]
    fn func_names_defined_for_all_ids() {
        for id in 1..=25u16 {
            assert_ne!(func::name(id), "<unknown>", "func {id}");
        }
        assert_eq!(func::name(999), "<unknown>");
        assert_eq!(func::name(func::GMALLOC), "GMalloc::gMalloc()");
    }

    #[test]
    fn all_descriptors_register_and_render() {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        register_all(&logger);
        let registry = logger.registry();
        // Builtin CONTROL (3) + the simulator's events.
        assert!(registry.len() > 25);
        // Spot-check the paper's example renders through the registry.
        let (_, _, desc) = registry.by_name("TRC_MEM_FCMCOM_ATCH_REG").unwrap();
        let words = desc
            .spec
            .encode(&[
                ktrace_format::FieldValue::Int(0x800000001022cc98),
                ktrace_format::FieldValue::Int(0xe100000000003f30),
            ])
            .unwrap();
        assert_eq!(
            desc.describe(&words).unwrap(),
            "Region 800000001022cc98 attached to FCM e100000000003f30"
        );
    }

    #[test]
    fn sysno_names() {
        assert_eq!(sysno::name(sysno::EXEC), "SCexecve");
        assert_eq!(sysno::name(77), "SCunknown");
    }

    #[test]
    fn macro_tables_match_consts() {
        // The generated consts and the EVENTS rows must agree.
        assert_eq!(sched::MAJOR, ktrace_format::MajorId::SCHED);
        assert!(sched::EVENTS.iter().any(|d| d.minor == sched::CTX_SWITCH));
        assert_eq!(sched::EVENTS.len(), 6);
        assert_eq!(
            lock::EVENTS
                .iter()
                .find(|d| d.minor == lock::ACQUIRED)
                .unwrap()
                .spec,
            "64 64 64 64 64"
        );
        // Every module is in ALL_EVENTS exactly once, majors distinct.
        let mut majors: Vec<u8> = ALL_EVENTS.iter().map(|(m, _)| m.raw()).collect();
        majors.sort_unstable();
        majors.dedup();
        assert_eq!(majors.len(), ALL_EVENTS.len());
    }

    /// Every `ALL_EVENTS` row (major, minor, name, spec, template), as the
    /// declarations produced it before the field lists became macro syntax.
    /// Re-bless with `KTRACE_BLESS=1` only for an intended vocabulary change.
    #[test]
    fn registry_rows_match_the_committed_fixture() {
        let mut rows = String::new();
        for &(major, events) in ALL_EVENTS {
            for d in events {
                rows.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\n",
                    major.raw(),
                    d.minor,
                    d.name,
                    d.spec,
                    d.template
                ));
            }
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/registry.txt");
        if std::env::var_os("KTRACE_BLESS").is_some() {
            std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
            std::fs::write(path, &rows).unwrap();
        }
        assert_eq!(rows, std::fs::read_to_string(path).unwrap());
    }

    #[test]
    fn every_table_spec_parses_at_runtime_too() {
        for &(major, events) in ALL_EVENTS {
            for def in events {
                assert!(
                    ktrace_format::FieldSpec::parse(def.spec).is_ok(),
                    "{major:?}/{} has unparseable spec {:?}",
                    def.name,
                    def.spec
                );
            }
        }
    }

    #[test]
    fn emitters_pack_what_the_registered_spec_decodes() {
        use ktrace_format::{FieldSpec, FieldValue};
        let decode = |major: MajorId, minor: u16, payload: &[u64]| {
            let (_, defs) = ALL_EVENTS.iter().find(|(m, _)| *m == major).unwrap();
            let def = defs.iter().find(|d| d.minor == minor).unwrap();
            FieldSpec::parse(def.spec).unwrap().decode(payload).unwrap()
        };
        let e = sched::ctx_switch(1, 2, 3);
        assert_eq!((e.major(), e.minor()), (MajorId::SCHED, sched::CTX_SWITCH));
        assert_eq!(
            decode(e.major(), e.minor(), e.payload()),
            vec![FieldValue::Int(1), FieldValue::Int(2), FieldValue::Int(3)]
        );
        let e = user::run_ul_loader(1, 7, "sdet-script");
        assert_eq!((e.major(), e.minor()), (MajorId::USER, user::RUN_UL_LOADER));
        assert_eq!(
            decode(e.major(), e.minor(), e.payload()),
            vec![
                FieldValue::Int(1),
                FieldValue::Int(7),
                FieldValue::Str("sdet-script".into())
            ]
        );
        assert!(sched::idle_start().payload().is_empty());
    }

    #[test]
    fn template_refs_parse() {
        let t = "switch from %0[%x] to %1[%x] pid %2[%d]";
        assert!(__template_fields_in_range(t, 3));
        assert!(!__template_fields_in_range(t, 2));
        // Conversions inside the bracket carry no digits; a bare `%` is text.
        assert!(__template_fields_in_range("cpu idle %", 0));
        assert!(__template_fields_in_range("%llx", 0));
        assert!(!__template_fields_in_range("%10 then %x", 10));
        assert!(__template_fields_in_range("%10 then %x", 11));
    }

    #[test]
    fn const_checks_reject_bad_inputs() {
        assert!(!__major_is_registerable(ktrace_format::MajorId::CONTROL));
        assert!(!__major_is_registerable(ktrace_format::MajorId::TEST));
        assert!(__major_is_registerable(ktrace_format::MajorId::SCHED));
        let dup = [
            EventDef {
                minor: 1,
                name: "A",
                spec: "",
                template: "",
            },
            EventDef {
                minor: 1,
                name: "B",
                spec: "",
                template: "",
            },
        ];
        assert!(!__minors_distinct(&dup));
        assert!(__minors_distinct(&dup[..1]));
        let (a, b) = (&dup[..1], &dup[1..]);
        assert!(__names_distinct(&[(MajorId::SCHED, a), (MajorId::PROC, b)]));
        assert!(!__names_distinct(&[
            (MajorId::SCHED, a),
            (MajorId::PROC, a)
        ]));
        assert!(!__names_distinct(&[(MajorId::SCHED, &[dup[0], dup[0]])]));
        assert!(__majors_distinct(&[
            (MajorId::SCHED, a),
            (MajorId::PROC, b)
        ]));
        assert!(!__majors_distinct(&[
            (MajorId::SCHED, a),
            (MajorId::SCHED, b)
        ]));
    }
}
