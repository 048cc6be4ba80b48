//! `Memory` against a byte-wise reference model: random sequences of
//! `read`, `write` and `write_bytes`, with accesses that straddle page
//! boundaries, plus the allocation and error contracts.

use std::collections::{BTreeSet, HashMap};

use icicle_isa::{IsaError, Memory};
use proptest::prelude::*;

const PAGE: u64 = 4096;

/// The byte-at-a-time model: absent bytes read as zero, and a page is
/// resident once any byte of it has been written.
#[derive(Default)]
struct Reference {
    bytes: HashMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl Reference {
    fn valid(addr: u64, len: u64) -> bool {
        matches!(len, 1 | 2 | 4 | 8) && addr.checked_add(len).is_some()
    }

    fn read(&self, addr: u64, len: u64) -> Result<u64, IsaError> {
        if !Self::valid(addr, len) {
            return Err(IsaError::BadAccess { addr, len });
        }
        Ok((0..len).fold(0, |v, i| {
            v | u64::from(self.bytes.get(&(addr + i)).copied().unwrap_or(0)) << (8 * i)
        }))
    }

    fn write(&mut self, addr: u64, len: u64, val: u64) -> Result<(), IsaError> {
        if !Self::valid(addr, len) {
            return Err(IsaError::BadAccess { addr, len });
        }
        let bytes: Vec<u8> = (0..len).map(|i| (val >> (8 * i)) as u8).collect();
        self.write_bytes(addr, &bytes);
        Ok(())
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            self.bytes.insert(a, *b);
            self.pages.insert(a / PAGE);
        }
    }
}

/// A few pages, the last one of the address space among them, so that
/// accesses near its end wrap.
const PAGES: [u64; 5] = [0, 1, 2, 0x9_0000, u64::MAX / PAGE];

fn address(page: usize, offset_kind: u8, raw: u64) -> u64 {
    let offset = match offset_kind {
        // The last seven bytes of the page: every width crosses it.
        0 => PAGE - 7 + raw % 7,
        1 => raw % 8,
        _ => raw % PAGE,
    };
    PAGES[page] * PAGE + offset
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (seed.wrapping_mul(i + 1) >> 13) as u8)
        .collect()
}

fn agree(mem: &Memory, model: &Reference) {
    assert_eq!(mem.resident_pages(), model.pages.len(), "resident pages");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_sequences_match_the_byte_model(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..PAGES.len(), 0u8..3, 0u64..10, any::<u64>(), 0usize..(2 * PAGE as usize + 64)),
            1..40,
        )
    ) {
        let mut mem = Memory::new();
        let mut model = Reference::default();
        for (kind, page, offset_kind, width, raw, span) in ops {
            let addr = address(page, offset_kind, raw);
            match kind {
                0 => prop_assert_eq!(mem.read(addr, width), model.read(addr, width)),
                1 => prop_assert_eq!(
                    mem.write(addr, width, raw),
                    model.write(addr, width, raw)
                ),
                _ => {
                    // Keep the run inside the address space.
                    let room = (u64::MAX - addr).saturating_add(1);
                    let len = (span as u64).min(room) as usize;
                    let bytes = pattern(len, raw);
                    mem.write_bytes(addr, &bytes);
                    model.write_bytes(addr, &bytes);
                }
            }
            agree(&mem, &model);
        }
        // Every byte the sequence could have touched reads back the same.
        for &page in &PAGES {
            for offset in (0..PAGE).step_by(8) {
                let addr = page * PAGE + offset;
                prop_assert_eq!(mem.read(addr, 8), model.read(addr, 8));
            }
        }
    }
}

#[test]
fn every_width_at_the_end_of_a_page() {
    for width in [1, 2, 4, 8] {
        for offset in 4089..=4095 {
            let mut mem = Memory::new();
            let mut model = Reference::default();
            let addr = 3 * PAGE + offset;
            let val = 0x0102_0304_0506_0708u64.wrapping_mul(offset);
            mem.write(addr, width, val).unwrap();
            model.write(addr, width, val).unwrap();
            agree(&mem, &model);
            for w in [1, 2, 4, 8] {
                for a in addr.saturating_sub(8)..addr + 8 {
                    assert_eq!(
                        mem.read(a, w),
                        model.read(a, w),
                        "w{width}@{offset}: read {w}@{a:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn write_bytes_spanning_three_pages() {
    let mut mem = Memory::new();
    let mut model = Reference::default();
    let addr = 5 * PAGE + 4000;
    let bytes = pattern(2 * PAGE as usize, 0x9e37_79b9_7f4a_7c15);
    mem.write_bytes(addr, &bytes);
    model.write_bytes(addr, &bytes);
    assert_eq!(mem.resident_pages(), 3);
    agree(&mem, &model);
    for a in (addr - 16..addr + bytes.len() as u64 + 16).step_by(3) {
        assert_eq!(mem.read(a, 8), model.read(a, 8), "read 8@{a:#x}");
    }
}

#[test]
fn reading_an_untouched_page_allocates_nothing() {
    let mut mem = Memory::new();
    mem.write(0x1000, 8, u64::MAX).unwrap();
    for width in [1, 2, 4, 8] {
        assert_eq!(mem.read(0x7_0000 + 4093, width).unwrap(), 0);
    }
    assert_eq!(mem.resident_pages(), 1);
}

#[test]
fn empty_write_bytes_allocates_nothing() {
    let mut mem = Memory::new();
    mem.write_bytes(0x4000, &[]);
    mem.write_bytes(u64::MAX, &[]);
    assert_eq!(mem.resident_pages(), 0);
}

#[test]
fn bad_widths_and_wrapping_accesses_are_rejected() {
    let mut mem = Memory::new();
    for width in [0, 3, 5, 6, 7, 9, 16] {
        let err = IsaError::BadAccess {
            addr: 0x100,
            len: width,
        };
        assert_eq!(mem.read(0x100, width), Err(err.clone()));
        assert_eq!(mem.write(0x100, width, 1), Err(err));
    }
    for (addr, width) in [(u64::MAX - 2, 8), (u64::MAX, 2), (u64::MAX - 1, 4)] {
        let err = IsaError::BadAccess { addr, len: width };
        assert_eq!(mem.read(addr, width), Err(err.clone()));
        assert_eq!(mem.write(addr, width, 1), Err(err));
    }
    // The top byte is out of reach (its end would wrap); the one below is not.
    mem.write(u64::MAX - 1, 1, 0xab).unwrap();
    assert_eq!(mem.read(u64::MAX - 1, 1), Ok(0xab));
    assert_eq!(mem.resident_pages(), 1);
}
