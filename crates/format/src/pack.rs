//! Packing sub-64-bit quantities and strings into 64-bit trace words.
//!
//! The paper: "We chose to log only 64-bit words because on some architectures
//! smaller loads can be expensive... Macros provided with the tracing facility
//! will pack multiple smaller quantities in one 64-bit tracing word, if
//! needed." [`WordPacker`]/[`WordUnpacker`] are the Rust analogue of those
//! macros; strings are encoded as a byte-length word followed by the bytes
//! packed little-endian into whole words.

/// Number of 64-bit words needed to hold `len` raw bytes.
#[inline]
pub const fn words_for_bytes(len: usize) -> usize {
    len.div_ceil(8)
}

/// Incrementally packs fields of 8/16/32/64 bits (and strings) into words.
///
/// Sub-word fields are packed greedily from the low bits of the current word;
/// a field that does not fit in the remaining bits, a 64-bit field, or a
/// string flushes the partial word first. [`WordUnpacker`] reverses the layout
/// given the same sequence of widths.
#[derive(Debug, Default)]
pub struct WordPacker {
    words: Vec<u64>,
    cur: u64,
    used_bits: u32,
}

impl WordPacker {
    /// Creates an empty packer.
    pub fn new() -> WordPacker {
        WordPacker::default()
    }

    /// Appends a field of `bits` width (8, 16, 32, or 64). Values wider than
    /// `bits` are truncated.
    pub fn push(&mut self, value: u64, bits: u32) -> &mut Self {
        debug_assert!(matches!(bits, 8 | 16 | 32 | 64));
        if bits == 64 || self.used_bits + bits > 64 {
            self.flush_partial();
        }
        if bits == 64 {
            self.words.push(value);
        } else {
            let mask = (1u64 << bits) - 1;
            self.cur |= (value & mask) << self.used_bits;
            self.used_bits += bits;
            if self.used_bits == 64 {
                self.flush_partial();
            }
        }
        self
    }

    /// Appends a string field: one byte-length word, then the bytes packed
    /// little-endian into whole words (zero padded).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.flush_partial();
        let bytes = s.as_bytes();
        self.words.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(w));
        }
        self
    }

    /// Finishes packing, flushing any partial word, and returns the words.
    pub fn finish(mut self) -> Vec<u64> {
        self.flush_partial();
        self.words
    }

    fn flush_partial(&mut self) {
        if self.used_bits > 0 {
            self.words.push(self.cur);
            self.cur = 0;
            self.used_bits = 0;
        }
    }
}

/// Decodes fields packed by [`WordPacker`], given the same width sequence.
#[derive(Debug)]
pub struct WordUnpacker<'a> {
    words: &'a [u64],
    pos: usize,
    bit_pos: u32,
}

impl<'a> WordUnpacker<'a> {
    /// Starts decoding from `words`.
    pub fn new(words: &'a [u64]) -> WordUnpacker<'a> {
        WordUnpacker {
            words,
            pos: 0,
            bit_pos: 0,
        }
    }

    /// Reads the next field of `bits` width. Returns `None` when the words
    /// are exhausted.
    pub fn read(&mut self, bits: u32) -> Option<u64> {
        debug_assert!(matches!(bits, 8 | 16 | 32 | 64));
        if bits == 64 || self.bit_pos + bits > 64 {
            self.skip_partial();
        }
        if bits == 64 {
            let w = *self.words.get(self.pos)?;
            self.pos += 1;
            return Some(w);
        }
        let w = *self.words.get(self.pos)?;
        let mask = (1u64 << bits) - 1;
        let v = (w >> self.bit_pos) & mask;
        self.bit_pos += bits;
        if self.bit_pos == 64 {
            self.skip_partial();
        }
        Some(v)
    }

    /// Reads a string field written by [`WordPacker::push_str`].
    /// Returns `None` on truncation or an inconsistent length word.
    pub fn read_str(&mut self) -> Option<String> {
        self.skip_partial();
        let len = *self.words.get(self.pos)? as usize;
        self.pos += 1;
        let nwords = words_for_bytes(len);
        if self.pos + nwords > self.words.len() {
            return None;
        }
        let mut bytes = Vec::with_capacity(len);
        for i in 0..nwords {
            bytes.extend_from_slice(&self.words[self.pos + i].to_le_bytes());
        }
        bytes.truncate(len);
        self.pos += nwords;
        String::from_utf8(bytes).ok()
    }

    /// Word index of the next unread whole word (partial word counts as read).
    pub fn words_consumed(&self) -> usize {
        self.pos + usize::from(self.bit_pos > 0)
    }

    fn skip_partial(&mut self) {
        if self.bit_pos > 0 {
            self.pos += 1;
            self.bit_pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn greedy_packing_shares_words() {
        // 8 + 8 + 16 + 32 = 64 bits -> one word.
        let words = {
            let mut p = WordPacker::new();
            p.push(0x12, 8)
                .push(0x34, 8)
                .push(0x5678, 16)
                .push(0x9abcdef0, 32);
            p.finish()
        };
        assert_eq!(words.len(), 1);
        let mut u = WordUnpacker::new(&words);
        assert_eq!(u.read(8), Some(0x12));
        assert_eq!(u.read(8), Some(0x34));
        assert_eq!(u.read(16), Some(0x5678));
        assert_eq!(u.read(32), Some(0x9abcdef0));
        assert_eq!(u.read(8), None);
    }

    #[test]
    fn sixty_four_bit_field_flushes_partials() {
        let words = {
            let mut p = WordPacker::new();
            p.push(0xff, 8).push(u64::MAX, 64).push(0x1, 8);
            p.finish()
        };
        assert_eq!(words.len(), 3);
        let mut u = WordUnpacker::new(&words);
        assert_eq!(u.read(8), Some(0xff));
        assert_eq!(u.read(64), Some(u64::MAX));
        assert_eq!(u.read(8), Some(0x1));
    }

    #[test]
    fn string_roundtrip_various_lengths() {
        for s in ["", "a", "exactly8", "longer than eight bytes", "ünïcode ✓"] {
            let words = {
                let mut p = WordPacker::new();
                p.push(7, 8).push_str(s).push(9, 8);
                p.finish()
            };
            let mut u = WordUnpacker::new(&words);
            assert_eq!(u.read(8), Some(7));
            assert_eq!(u.read_str().as_deref(), Some(s));
            assert_eq!(u.read(8), Some(9));
        }
    }

    #[test]
    fn truncated_string_detected() {
        let mut p = WordPacker::new();
        p.push_str("hello world, this is long");
        let mut words = p.finish();
        words.truncate(2); // drop data words
        let mut u = WordUnpacker::new(&words);
        assert_eq!(u.read_str(), None);
    }

    proptest! {
        #[test]
        fn packer_unpacker_roundtrip(fields in prop::collection::vec(
            (0u64..=u64::MAX, prop::sample::select(vec![8u32, 16, 32, 64])), 0..32)) {
            let mut p = WordPacker::new();
            for &(v, bits) in &fields {
                p.push(v, bits);
            }
            let words = p.finish();
            let mut u = WordUnpacker::new(&words);
            for &(v, bits) in &fields {
                let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
                prop_assert_eq!(u.read(bits), Some(v & mask));
            }
        }

        #[test]
        fn words_for_bytes_is_ceiling(len in 0usize..10_000) {
            let w = words_for_bytes(len);
            prop_assert!(w * 8 >= len);
            prop_assert!(w == 0 || (w - 1) * 8 < len);
        }

        /// Mixed integer and string fields in arbitrary order, including
        /// strings long enough to cross word boundaries, roundtrip exactly
        /// and consume exactly the words the packer produced.
        #[test]
        fn mixed_field_sequences_roundtrip(fields in prop::collection::vec(
            prop_oneof![
                (0u64..=u64::MAX, prop::sample::select(vec![8u32, 16, 32, 64]))
                    .prop_map(|(v, bits)| (Some((v, bits)), None)),
                ".{0,40}".prop_map(|s: String| (None, Some(s))),
            ], 0..24)) {
            let mut p = WordPacker::new();
            for f in &fields {
                match f {
                    (Some((v, bits)), None) => { p.push(*v, *bits); }
                    (None, Some(s)) => { p.push_str(s); }
                    _ => unreachable!(),
                }
            }
            let words = p.finish();
            let mut u = WordUnpacker::new(&words);
            for f in &fields {
                match f {
                    (Some((v, bits)), None) => {
                        let mask = if *bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
                        prop_assert_eq!(u.read(*bits), Some(v & mask));
                    }
                    (None, Some(s)) => {
                        prop_assert_eq!(u.read_str().as_deref(), Some(s.as_str()));
                    }
                    _ => unreachable!(),
                }
            }
            // Nothing left over: the unpacker lands exactly on the packed end.
            prop_assert_eq!(u.words_consumed(), words.len());
        }
    }
}
