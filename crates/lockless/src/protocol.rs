//! Memory-ordering protocol roles: one type per way an atomic is used.
//!
//! The lockless logger (paper §3.1, Fig. 2) is correct only under a
//! memory-ordering protocol. The reservation CAS carries AcqRel; payload
//! words go down relaxed and the header's store publishes them with
//! Release; commit counts pair a Release add with an Acquire load; the
//! consumed count is read with Acquire. Each type here wraps one std atomic
//! and offers only the operations its role allows, each with its ordering
//! fixed. No method takes an `Ordering` and none uses `SeqCst`, so an
//! ordering the role forbids, an operation class it forbids, or a full
//! fence on the fast path is a method that does not exist: it fails to
//! compile, whatever name the atomic is reached through.
//!
//! Every atomic in the capture path (the reservation ring, the sampling
//! gate, the trace mask, the telemetry counter blocks) and in the simulated
//! kernel's lock is one of these roles; this is the only module in those
//! crates that names `core::sync::atomic`. The deliberate off-contract
//! operations of fault injection are the `fault_*` methods, by name.
//!
//! The consumed count is the case that made the protocol explicit: a
//! consumer taking over the drain must see its predecessor's zeroing of the
//! slot, not just its count, and a relaxed load of that count once let it
//! miss it. An [`AcquireRelease`] has no relaxed load:
//!
//! ```compile_fail,E0061
//! use ktrace_lockless::protocol::AcquireRelease;
//! use std::sync::atomic::Ordering;
//! let consumed = AcquireRelease::new(0);
//! let c = &consumed;
//! let _ = c.load(Ordering::Relaxed);
//! ```
//!
//! An operation class the role forbids does not exist — the reservation
//! tail is advanced only by its CAS, never stored:
//!
//! ```compile_fail,E0599
//! use ktrace_lockless::protocol::ReservationTail;
//! let index = ReservationTail::new(0);
//! index.store(8);
//! ```
//!
//! No role takes an ordering, so `SeqCst` cannot be passed anywhere:
//!
//! ```compile_fail,E0061
//! use ktrace_lockless::protocol::MaskWord;
//! use std::sync::atomic::Ordering;
//! let x = MaskWord::new(0);
//! let _ = x.load(Ordering::SeqCst);
//! ```
//!
//! A statistic is stored relaxed; a release store on one does not compile:
//!
//! ```compile_fail,E0061
//! use ktrace_lockless::protocol::StatisticCounter;
//! use std::sync::atomic::Ordering;
//! let slot = StatisticCounter::new(1);
//! slot.store(4, Ordering::Release);
//! ```
//!
//! What each role does allow:
//!
//! ```
//! use ktrace_lockless::protocol::{AcquireRelease, CommitWord, ReservationTail, StatisticCounter};
//! let (index, committed, consumed) = (ReservationTail::new(0), CommitWord::new(0), AcquireRelease::new(0));
//! let old = index.load();
//! assert!(index.advance(old, old + 4));
//! committed.commit(4, 1);
//! let seen = committed.load();
//! assert_eq!((CommitWord::words(seen), CommitWord::events(seen)), (4, 1));
//! committed.retire(seen);
//! consumed.store(1);
//! assert_eq!((index.load_acquire(), committed.load(), consumed.load()), (4, 0, 1));
//! let slot = StatisticCounter::new(1);
//! slot.store(4);
//! slot.bump(1);
//! assert_eq!(slot.load(), 5);
//! ```

use core::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use core::sync::atomic::{AtomicBool, AtomicU64};

/// A trace buffer word. Payload words are stored relaxed; the header word's
/// [`publish`](MessageWord::publish) carries the release that makes them
/// visible with it. Readers revalidate through the commit counts, so loads
/// stay relaxed: possibly stale, never torn.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct MessageWord(AtomicU64);

impl MessageWord {
    /// A word holding `v`.
    pub const fn new(v: u64) -> MessageWord {
        MessageWord(AtomicU64::new(v))
    }

    /// Relaxed read.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Relaxed payload store (or zeroing by the consumer).
    #[inline(always)]
    pub fn store(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Release store of a header word, publishing the payload stored before
    /// it.
    #[inline(always)]
    pub fn publish(&self, v: u64) {
        self.0.store(v, Release);
    }

    /// Fault injection: XORs `mask` in — a read-modify-write no logger
    /// performs, as a stray store or errant DMA would leave.
    pub fn fault_xor(&self, mask: u64) {
        self.0.fetch_xor(mask, AcqRel);
    }
}

/// The reservation index of Fig. 2, advanced only by the winning CAS. Loads
/// may be relaxed (the CAS revalidates them) or acquire (snapshot and drain
/// reads).
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct ReservationTail(AtomicU64);

impl ReservationTail {
    /// An index at `v`.
    pub const fn new(v: u64) -> ReservationTail {
        ReservationTail(AtomicU64::new(v))
    }

    /// Relaxed read, to be revalidated by [`advance`](Self::advance).
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Acquire read: the extents below the value are reserved.
    #[inline(always)]
    pub fn load_acquire(&self) -> u64 {
        self.0.load(Acquire)
    }

    /// `CAS(old → new)`, AcqRel on success and Relaxed on failure. True if
    /// this caller won the extent.
    #[inline(always)]
    pub fn advance(&self, old: u64, new: u64) -> bool {
        self.0.compare_exchange(old, new, AcqRel, Relaxed).is_ok()
    }

    /// [`advance`](Self::advance) that may fail spuriously, for retry loops.
    #[inline(always)]
    pub fn advance_weak(&self, old: u64, new: u64) -> bool {
        self.0
            .compare_exchange_weak(old, new, AcqRel, Relaxed)
            .is_ok()
    }
}

/// A buffer slot's commit word: the words committed to the slot's current
/// generation in the low 32 bits, the data events among them in the high
/// 32. One add commits both, so an event costs the two atomics of Fig. 2 —
/// the reservation CAS and this add — and the per-buffer count is the only
/// event accounting on the logging path. The committer's release add pairs
/// with the consumer's acquire load, so the committed words are visible with
/// the count.
///
/// Whoever retires the slot (the consumer after it takes the buffer, the
/// flight-recorder writer that overwrites it) removes the value it read and
/// moves its event half into a [`RetiredCount`]. The word half therefore
/// counts one generation, at most `buffer_words` plus stragglers, and never
/// carries into the event half for a geometry of at most 2³¹ words per
/// buffer.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct CommitWord(AtomicU64);

impl CommitWord {
    /// The low half: words committed.
    pub const WORDS_MASK: u64 = (1 << 32) - 1;

    /// A word holding `v`.
    pub const fn new(v: u64) -> CommitWord {
        CommitWord(AtomicU64::new(v))
    }

    /// The word half of a value read from a commit word.
    #[inline(always)]
    pub const fn words(v: u64) -> u64 {
        v & Self::WORDS_MASK
    }

    /// The event half of a value read from a commit word.
    #[inline(always)]
    pub const fn events(v: u64) -> u64 {
        v >> 32
    }

    /// Acquire read.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Acquire)
    }

    /// Release add of `words` just written, `events` of them data events.
    #[inline(always)]
    pub fn commit(&self, words: u64, events: u64) {
        self.0.fetch_add(words | events << 32, Release);
    }

    /// Retires the generation read as `seen`: subtracts exactly that, so a
    /// commit that lands after the read stays and counts toward the next
    /// generation — a straggler shows there as "too much" (§3.1). Relaxed:
    /// the retirer's next release (the consumed count, the retired count)
    /// publishes it.
    #[inline(always)]
    pub fn retire(&self, seen: u64) {
        self.0.fetch_sub(seen, Relaxed);
    }

    /// Swaps in zero; returns the value taken (the flight recorder's retire,
    /// which has no reader to compare against).
    #[inline(always)]
    pub fn take(&self) -> u64 {
        self.0.swap(0, Relaxed)
    }

    /// Fault injection: skews the word half by `delta`, wrapping within it
    /// and never borrowing from or carrying into the event half — a commit
    /// that never landed (negative) or one from a logger that woke after
    /// its buffer was recycled (positive). A negative skew below zero
    /// leaves the word half near 2³², so later commits to the same
    /// generation carry into the event half: skew a slot after its commits.
    pub fn fault_skew(&self, delta: i64) {
        let skew = |v: u64| {
            let words = Self::words(v).wrapping_add(delta as u64) & Self::WORDS_MASK;
            Some(v & !Self::WORDS_MASK | words)
        };
        let _ = self.0.fetch_update(AcqRel, Acquire, skew);
    }
}

/// The count a retirer moves a [`CommitWord`]'s event half into. The
/// release add follows the retirer's removal from the commit word, and a
/// reader's acquire load comes before its reads of the live commit words,
/// so a reader that sees the add also sees the removal: a read racing a
/// retire can miss the retiring generation's events, never count them
/// twice.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct RetiredCount(AtomicU64);

impl RetiredCount {
    /// A count at `v`.
    pub const fn new(v: u64) -> RetiredCount {
        RetiredCount(AtomicU64::new(v))
    }

    /// Acquire read, before the reader's loads of the live commit words.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Acquire)
    }

    /// Release add of `n`, after their removal from a commit word.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Release);
    }
}

/// A paired publish/observe word (the consumed-buffer count): the
/// consumer's release store after zeroing a slot pairs with the producers'
/// acquire load before they write into the recycled slot.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AcquireRelease(AtomicU64);

impl AcquireRelease {
    /// A word holding `v`.
    pub const fn new(v: u64) -> AcquireRelease {
        AcquireRelease(AtomicU64::new(v))
    }

    /// Acquire read.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Acquire)
    }

    /// Release store.
    #[inline(always)]
    pub fn store(&self, v: u64) {
        self.0.store(v, Release);
    }
}

/// The drainer's park flag. Every access is an AcqRel swap, so the
/// consumer's announce and withdraw and each closing writer's take sit in
/// one modification order and each reads its predecessor.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct WakeFlag(AtomicBool);

impl WakeFlag {
    /// A flag holding `v`.
    pub const fn new(v: bool) -> WakeFlag {
        WakeFlag(AtomicBool::new(v))
    }

    /// AcqRel swap; returns the previous value.
    #[inline(always)]
    pub fn swap(&self, v: bool) -> bool {
        self.0.swap(v, AcqRel)
    }
}

/// An exact tally: relaxed read-modify-writes that never lose an update.
/// These counts back accounting invariants but order nothing.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct ExactCounter(AtomicU64);

impl ExactCounter {
    /// A counter at `v`.
    pub const fn new(v: u64) -> ExactCounter {
        ExactCounter(AtomicU64::new(v))
    }

    /// Relaxed read.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Adds `n`; returns the previous value.
    #[inline(always)]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Relaxed)
    }

    /// Subtracts `n` (a gauge going down).
    #[inline(always)]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Swaps in zero; returns the count taken.
    #[inline(always)]
    pub fn take(&self) -> u64 {
        self.0.swap(0, Relaxed)
    }
}

/// A single-writer statistic: relaxed load+store pairs, never a
/// read-modify-write. An RMW here would bring back the locked-op cost this
/// tier exists to avoid; a second writer can at worst lose a count.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct StatisticCounter(AtomicU64);

impl StatisticCounter {
    /// A statistic at `v`.
    pub const fn new(v: u64) -> StatisticCounter {
        StatisticCounter(AtomicU64::new(v))
    }

    /// Relaxed read.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Relaxed store.
    #[inline(always)]
    pub fn store(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Adds `by` as a relaxed load and store: two plain moves where a
    /// locked add would cost ~20 cycles.
    #[inline(always)]
    pub fn bump(&self, by: u64) {
        self.store(self.load().wrapping_add(by));
    }
}

/// The trace mask. Everything is relaxed by design: enablement changes
/// propagate "eventually", with no synchronisation point.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct MaskWord(AtomicU64);

impl MaskWord {
    /// A mask holding `v`.
    pub const fn new(v: u64) -> MaskWord {
        MaskWord(AtomicU64::new(v))
    }

    /// Relaxed read.
    #[inline(always)]
    pub fn load(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Relaxed store.
    #[inline(always)]
    pub fn store(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Relaxed OR of `bits`.
    #[inline(always)]
    pub fn or(&self, bits: u64) {
        self.0.fetch_or(bits, Relaxed);
    }

    /// Relaxed AND with `bits`.
    #[inline(always)]
    pub fn and(&self, bits: u64) {
        self.0.fetch_and(bits, Relaxed);
    }
}

/// A test-and-test-and-set lock word: acquire CAS to take, release store
/// to free, relaxed spin reads in between.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct LockFlag(AtomicBool);

impl LockFlag {
    /// A free lock word.
    pub const fn new() -> LockFlag {
        LockFlag(AtomicBool::new(false))
    }

    /// Relaxed read, for spinning before the next [`try_lock`](Self::try_lock).
    #[inline(always)]
    pub fn is_locked(&self) -> bool {
        self.0.load(Relaxed)
    }

    /// `CAS(false → true)`, Acquire on success and Relaxed on failure. True
    /// if the caller now holds the lock.
    #[inline(always)]
    pub fn try_lock(&self) -> bool {
        self.0
            .compare_exchange(false, true, Acquire, Relaxed)
            .is_ok()
    }

    /// Release store of `false` (the caller must hold the lock).
    #[inline(always)]
    pub fn unlock(&self) {
        self.0.store(false, Release);
    }
}

/// An abort or stop flag polled in loops. Raising releases and polling
/// acquires, so a loop that sees the flag also sees what was done before it
/// was raised (on x86-64 both are plain moves).
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct SignalFlag(AtomicBool);

impl SignalFlag {
    /// A lowered flag.
    pub const fn new() -> SignalFlag {
        SignalFlag(AtomicBool::new(false))
    }

    /// Acquire read.
    #[inline(always)]
    pub fn is_raised(&self) -> bool {
        self.0.load(Acquire)
    }

    /// Release store of `true`.
    #[inline(always)]
    pub fn raise(&self) {
        self.0.store(true, Release);
    }
}

#[cfg(test)]
mod tests {
    use super::CommitWord;

    #[test]
    fn one_add_packs_words_and_events() {
        let c = CommitWord::new(0);
        c.commit(5, 1);
        c.commit(3, 0);
        c.commit(4, 1);
        let seen = c.load();
        assert_eq!(seen, 12 | 2 << 32);
        assert_eq!((CommitWord::words(seen), CommitWord::events(seen)), (12, 2));
        c.retire(seen);
        assert_eq!(c.load(), 0, "retiring what was read empties the word");
        c.commit(7, 1);
        assert_eq!(c.take(), 7 | 1 << 32);
        assert_eq!(c.load(), 0);
    }

    #[test]
    fn a_late_commit_survives_the_retire() {
        let c = CommitWord::new(0);
        c.commit(16, 4);
        let seen = c.load();
        c.commit(2, 1); // a straggler, after the consumer's read
        c.retire(seen);
        let next = c.load();
        assert_eq!((CommitWord::words(next), CommitWord::events(next)), (2, 1));
    }

    #[test]
    fn a_skew_moves_only_the_word_half() {
        let c = CommitWord::new(0);
        c.fault_skew(-3);
        let v = c.load();
        assert_eq!(CommitWord::events(v), 0, "no borrow from the event half");
        assert_eq!(CommitWord::words(v), CommitWord::WORDS_MASK - 2);
        c.fault_skew(3);
        assert_eq!(c.load(), 0);
        c.commit(10, 2);
        c.fault_skew(5);
        c.fault_skew(-8);
        let v = c.load();
        assert_eq!((CommitWord::words(v), CommitWord::events(v)), (7, 2));
    }
}
