//! The event mix every workload is fed: one table, one generator.
//!
//! Events are drawn from `ktrace-events` declarations at their declared
//! arity, so the stream lints clean, in SDET-like proportions. The mix is
//! *stratified*: every block of [`BLOCK`] operations holds exactly the
//! table's counts and the seed decides only their order and their payload
//! values. Words per event, and with it bytes per event, is then the same
//! for every seed, while the op list and every byte derived from it differ.

use ktrace_events::{exception, fs, ipc, lock, prof, sched, syscall};
use ktrace_format::{MajorId, MinorId};

/// Operations per stratified block.
pub const BLOCK: usize = 100;

/// One row of the mix: an event and how many of it each block holds.
pub struct Class {
    pub major: MajorId,
    pub minor: MinorId,
    /// Payload words, equal to the declared field spec's width.
    pub arity: usize,
    pub per_block: usize,
}

const fn class(major: MajorId, minor: MinorId, arity: usize, per_block: usize) -> Class {
    Class {
        major,
        minor,
        arity,
        per_block,
    }
}

/// The mix: 20 % LOCK (acquire/release pairs keyed on `payload[0]`, always
/// balanced), 25 % SCHED, 20 % SYSCALL, 15 % EXCEPTION/PPC, 10 % IPC, 7 %
/// PROF samples, 3 % FS. LOCK comes first: the generator pairs its rows.
pub const MIX: &[Class] = &[
    class(lock::MAJOR, lock::ACQUIRED, 5, 10),
    class(lock::MAJOR, lock::RELEASED, 3, 10),
    class(sched::MAJOR, sched::CTX_SWITCH, 3, 15),
    class(sched::MAJOR, sched::IDLE_START, 0, 3),
    class(sched::MAJOR, sched::IDLE_END, 1, 3),
    class(sched::MAJOR, sched::THREAD_START, 2, 2),
    class(sched::MAJOR, sched::THREAD_EXIT, 2, 2),
    class(syscall::MAJOR, syscall::ENTRY, 3, 10),
    class(syscall::MAJOR, syscall::EXIT, 3, 10),
    class(exception::MAJOR, exception::PGFLT, 2, 4),
    class(exception::MAJOR, exception::PGFLT_DONE, 2, 4),
    class(exception::MAJOR, exception::PPC_CALL, 1, 4),
    class(exception::MAJOR, exception::PPC_RETURN, 1, 3),
    class(ipc::MAJOR, ipc::CALL, 3, 5),
    class(ipc::MAJOR, ipc::RETURN, 3, 5),
    class(prof::MAJOR, prof::PC_SAMPLE, 3, 7),
    class(fs::MAJOR, fs::OPEN, 2, 1),
    class(fs::MAJOR, fs::READ, 2, 1),
    class(fs::MAJOR, fs::WRITE, 2, 1),
];

/// The only major `capture_masked` leaves enabled: 3 % of the calls.
pub const MASKED_RUN_MAJOR: MajorId = fs::MAJOR;

/// The event the planted (deliberately violated) property counts; every
/// block holds exactly one, so the generator knows the count.
pub const PLANTED: (MajorId, MinorId) = (fs::MAJOR, fs::OPEN);

/// Lock identities in play; `payload[0]` of both LOCK events.
const LOCKS: u64 = 64;

/// SplitMix64: small, seedable, and good enough to shuffle and fill.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is far below what matters for
    /// shuffling a hundred items).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct OpHead {
    major: MajorId,
    minor: MinorId,
    len: u8,
    at: u32,
}

/// A generated list of log calls: fixed-size heads indexing one flat payload
/// array, so that replaying a call costs two loads and no pointer chase.
#[derive(PartialEq, Eq, Debug)]
pub struct Ops {
    heads: Vec<OpHead>,
    payload: Vec<u64>,
}

impl Ops {
    /// Generates `blocks` stratified blocks from `seed`.
    pub fn generate(seed: u64, blocks: usize) -> Ops {
        let mut rng = Rng::new(seed ^ 0x6b74_7261_6365_0001);
        let mut heads = Vec::with_capacity(blocks * BLOCK);
        let mut payload = Vec::new();
        let mut order: Vec<usize> = MIX
            .iter()
            .enumerate()
            .flat_map(|(row, c)| std::iter::repeat_n(row, c.per_block))
            .collect();
        assert_eq!(order.len(), BLOCK, "the mix table fills a block exactly");
        for _ in 0..blocks {
            for i in (1..BLOCK).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            // LOCK slots, in block order, alternate acquire/release of one
            // lock by one thread: balanced within the block whatever the
            // shuffle did, and never nested on one key.
            let mut held: Option<(u64, u64)> = None;
            for &row in &order {
                let c = &MIX[row];
                let at = u32::try_from(payload.len()).expect("op list below 2^32 payload words");
                if c.major == lock::MAJOR {
                    match held.take() {
                        None => {
                            let (id, tid) = (rng.below(LOCKS), 1 + rng.below(32));
                            held = Some((id, tid));
                            // [lock_id, tid, call_chain, spins, wait_ns]
                            let (chain, spins) = (rng.below(8), rng.below(4));
                            payload.extend([id, tid, chain, spins, spins * rng.below(900)]);
                            heads.push(OpHead {
                                major: c.major,
                                minor: lock::ACQUIRED,
                                len: 5,
                                at,
                            });
                        }
                        Some((id, tid)) => {
                            // [lock_id, tid, hold_ns]
                            payload.extend([id, tid, rng.below(5000)]);
                            heads.push(OpHead {
                                major: c.major,
                                minor: lock::RELEASED,
                                len: 3,
                                at,
                            });
                        }
                    }
                    continue;
                }
                // Small identifiers, as pids, tids and syscall numbers are.
                payload.extend((0..c.arity).map(|_| rng.below(1 << 20)));
                heads.push(OpHead {
                    major: c.major,
                    minor: c.minor,
                    len: c.arity as u8,
                    at,
                });
            }
            assert!(held.is_none(), "an even number of LOCK rows per block");
        }
        Ops { heads, payload }
    }

    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// The `i`-th call's arguments; `i` is below [`len`](Ops::len). The hot
    /// loops wrap their own index, which is cheaper than a modulo per call.
    #[inline]
    pub fn get(&self, i: usize) -> (MajorId, MinorId, &[u64]) {
        let h = &self.heads[i];
        let at = h.at as usize;
        (h.major, h.minor, &self.payload[at..at + h.len as usize])
    }

    /// `n` calls from `start`, wrapping past the end of the list.
    pub fn cycle(
        &self,
        start: usize,
        n: usize,
    ) -> impl Iterator<Item = (MajorId, MinorId, &[u64])> + '_ {
        (start..start + n).map(|i| self.get(i % self.len()))
    }

    /// How many of the first `n` calls (wrapping) are `(major, minor)`
    /// events that `keep` admits.
    pub fn count(&self, n: usize, keep: impl Fn(MajorId, MinorId) -> bool) -> u64 {
        self.cycle(0, n).filter(|&(ma, mi, _)| keep(ma, mi)).count() as u64
    }

    /// The reference digest of the first `n` calls (wrapping) whose major
    /// `keep` admits, in call order.
    pub fn digest(&self, n: usize, keep: impl Fn(MajorId) -> bool) -> u64 {
        let mut h = Digest::new();
        for (major, minor, payload) in self.cycle(0, n).filter(|&(ma, _, _)| keep(ma)) {
            h.event(major, minor, payload);
        }
        h.finish()
    }
}

/// FNV-1a over the words of `(major, minor, payload)` of each event in
/// order. Timestamps are left out: they are the one thing a rerun changes.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    pub fn event(&mut self, major: MajorId, minor: MinorId, payload: &[u64]) {
        self.word(u64::from(major.raw()) << 32 | u64::from(minor) << 8 | payload.len() as u64);
        for &w in payload {
            self.word(w);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_events::ALL_EVENTS;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        let a = Ops::generate(7, 50);
        assert_eq!(a, Ops::generate(7, 50));
        assert_ne!(a, Ops::generate(8, 50));
        assert_eq!(a.len(), 50 * BLOCK);
        let all = |_| true;
        assert_eq!(
            a.digest(a.len(), all),
            Ops::generate(7, 50).digest(a.len(), all)
        );
        assert_ne!(
            a.digest(a.len(), all),
            Ops::generate(8, 50).digest(a.len(), all)
        );
    }

    #[test]
    fn every_row_matches_its_declaration() {
        for c in MIX {
            let def = ALL_EVENTS
                .iter()
                .filter(|(major, _)| *major == c.major)
                .flat_map(|(_, defs)| defs.iter())
                .find(|d| d.minor == c.minor)
                .expect("mix rows are declared events");
            // Every mixed event is declared with 64-bit fields only.
            assert!(
                def.spec.split_whitespace().all(|t| t == "64"),
                "{}",
                def.name
            );
            assert_eq!(def.spec.split_whitespace().count(), c.arity, "{}", def.name);
        }
    }

    #[test]
    fn blocks_hold_the_table_and_locks_balance() {
        let ops = Ops::generate(3, 40);
        for block in 0..40 {
            let mut seen: HashMap<(u8, MinorId), usize> = HashMap::new();
            let mut open: Option<u64> = None;
            for i in block * BLOCK..(block + 1) * BLOCK {
                let (major, minor, payload) = ops.get(i);
                *seen.entry((major.raw(), minor)).or_default() += 1;
                if major == lock::MAJOR {
                    match (minor, open.take()) {
                        (lock::ACQUIRED, None) => open = Some(payload[0]),
                        (lock::RELEASED, Some(id)) => assert_eq!(id, payload[0]),
                        other => panic!("unbalanced lock stream: {other:?}"),
                    }
                }
            }
            assert_eq!(open, None);
            for c in MIX {
                assert_eq!(seen[&(c.major.raw(), c.minor)], c.per_block);
            }
        }
        assert_eq!(ops.count(ops.len(), |ma, mi| (ma, mi) == PLANTED), 40);
    }
}
