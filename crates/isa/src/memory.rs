//! A sparse, paged byte-addressable memory.

use std::collections::HashMap;

use crate::error::IsaError;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

type Page = Box<[u8; PAGE_SIZE as usize]>;

/// A sparse 64-bit byte-addressable memory backed by 4 KiB pages.
///
/// Pages are allocated on first write (reads of untouched memory return
/// zero), which lets workloads use widely separated text, data, and stack
/// regions without reserving gigabytes. Every access is split at page
/// boundaries and copies whole runs of bytes, so an access looks each
/// page it touches up once.
#[derive(Clone, Default, Debug)]
pub struct Memory {
    pages: HashMap<u64, Page>,
}

/// Splits `len` bytes starting at `addr` into per-page runs: yields
/// `(address, offset within the run, run length)`.
fn page_runs(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let a = addr.wrapping_add(done as u64);
        let n = (PAGE_SIZE - (a & PAGE_MASK)).min((len - done) as u64) as usize;
        let run = (a, done, n);
        done += n;
        Some(run)
    })
}

fn check(addr: u64, len: u64) -> Result<(), IsaError> {
    if !matches!(len, 1 | 2 | 4 | 8) || addr.checked_add(len).is_none() {
        return Err(IsaError::BadAccess { addr, len });
    }
    Ok(())
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Reads `len` bytes (1, 2, 4, or 8) little-endian, zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadAccess`] if `len` is not a supported width or
    /// the access would wrap the address space.
    pub fn read(&self, addr: u64, len: u64) -> Result<u64, IsaError> {
        check(addr, len)?;
        let mut buf = [0u8; 8];
        for (a, at, n) in page_runs(addr, len as usize) {
            if let Some(page) = self.pages.get(&(a >> PAGE_SHIFT)) {
                let off = (a & PAGE_MASK) as usize;
                buf[at..at + n].copy_from_slice(&page[off..off + n]);
            }
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `len` bytes (1, 2, 4, or 8) of `val` little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadAccess`] if `len` is not a supported width or
    /// the access would wrap the address space.
    pub fn write(&mut self, addr: u64, len: u64, val: u64) -> Result<(), IsaError> {
        check(addr, len)?;
        self.write_bytes(addr, &val.to_le_bytes()[..len as usize]);
        Ok(())
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (a, at, n) in page_runs(addr, bytes.len()) {
            let off = (a & PAGE_MASK) as usize;
            self.page_mut(a)[off..off + n].copy_from_slice(&bytes[at..at + n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_all_widths() {
        let mut m = Memory::new();
        for (len, val) in [
            (1u64, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, u64::MAX),
        ] {
            m.write(0x1000, len, val).unwrap();
            assert_eq!(m.read(0x1000, len).unwrap(), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write(0x10, 4, 0x0403_0201).unwrap();
        assert_eq!(m.read(0x10, 1).unwrap(), 0x01);
        assert_eq!(m.read(0x13, 1).unwrap(), 0x04);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4;
        m.write(addr, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read(addr, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bad_width_rejected() {
        let m = Memory::new();
        assert!(matches!(m.read(0, 3), Err(IsaError::BadAccess { .. })));
    }

    #[test]
    fn wrapping_access_rejected() {
        let mut m = Memory::new();
        assert!(m.write(u64::MAX - 2, 8, 0).is_err());
    }

    #[test]
    fn write_bytes_round_trip() {
        let mut m = Memory::new();
        m.write_bytes(0x2000, &[1, 2, 3, 4]);
        assert_eq!(m.read(0x2000, 4).unwrap(), 0x0403_0201);
    }
}
