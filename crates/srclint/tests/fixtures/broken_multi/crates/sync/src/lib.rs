//! Broken fixture tripping TWO passes at once: an AB-BA lock cycle here
//! (exit 34) and an allocating logger in `crates/core` (exit 32). The report
//! must list both failing passes and exit with the lower — more severe —
//! code, 32.

use std::sync::Mutex;

pub struct Pair {
    left: Mutex<u64>,
    right: Mutex<u64>,
}

impl Pair {
    /// left -> right.
    pub fn forward(&self) {
        let l = self.left.lock().unwrap();
        let r = self.right.lock().unwrap();
        drop(r);
        drop(l);
    }

    /// VIOLATION: right -> left, closing the cycle.
    pub fn backward(&self) {
        let r = self.right.lock().unwrap();
        let l = self.left.lock().unwrap();
        drop(l);
        drop(r);
    }
}
