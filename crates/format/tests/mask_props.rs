//! Property-based coverage of the trace mask: for every one of the 64 major
//! bits, set/clear/test roundtrips agree with plain u64 bit math, and the
//! CONTROL bit survives every mutation path.

use ktrace_format::{MajorId, TraceMask};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn enable_disable_test_roundtrip_every_bit(raw in 0u8..64, start in any::<u64>()) {
        let m = TraceMask::with_majors(&[]);
        m.set(start);
        let id = MajorId::new(raw).unwrap();

        m.enable(id);
        prop_assert!(m.is_enabled(id));
        prop_assert_eq!(m.get(), (start | MajorId::CONTROL.bit()) | id.bit());

        m.disable(id);
        if id == MajorId::CONTROL {
            // The stream encoding (fillers, time anchors) rides on CONTROL;
            // it can never be masked off.
            prop_assert!(m.is_enabled(id));
        } else {
            prop_assert!(!m.is_enabled(id));
            prop_assert_eq!(m.get(), (start | MajorId::CONTROL.bit()) & !id.bit());
        }
    }

    #[test]
    fn enable_then_disable_restores_the_word(raw in 1u8..64, start in any::<u64>()) {
        let m = TraceMask::with_majors(&[]);
        m.set(start & !(1u64 << raw)); // start with the bit clear
        let before = m.get();
        let id = MajorId::new(raw).unwrap();
        m.enable(id);
        m.disable(id);
        prop_assert_eq!(m.get(), before, "mutating one major touched other bits");
    }

    #[test]
    fn with_majors_matches_bit_math(raws in prop::collection::vec(0u8..64, 0..16)) {
        let majors: Vec<MajorId> = raws.iter().map(|&r| MajorId::new(r).unwrap()).collect();
        let m = TraceMask::with_majors(&majors);

        let mut expected = MajorId::CONTROL.bit();
        for id in &majors {
            expected |= id.bit();
        }
        prop_assert_eq!(m.get(), expected);

        for id in MajorId::all() {
            let should = id == MajorId::CONTROL || majors.contains(&id);
            prop_assert_eq!(m.is_enabled(id), should, "bit {}", id.raw());
        }
    }

    #[test]
    fn set_forces_control(bits in any::<u64>()) {
        let m = TraceMask::all_enabled();
        m.set(bits);
        prop_assert_eq!(m.get(), bits | MajorId::CONTROL.bit());
        prop_assert!(m.is_enabled(MajorId::CONTROL));
    }
}
