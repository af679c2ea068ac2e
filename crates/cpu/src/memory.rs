//! The byte-addressed data memory.

use std::fmt;

/// Error produced by an invalid memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// Address is not word-aligned.
    Unaligned {
        /// The offending byte address.
        addr: u32,
    },
    /// Address is outside the memory.
    OutOfBounds {
        /// The offending byte address.
        addr: u32,
        /// Memory size in bytes.
        size: u32,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::Unaligned { addr } => write!(f, "unaligned word access at {addr:#010X}"),
            AccessError::OutOfBounds { addr, size } => {
                write!(f, "access at {addr:#010X} outside {size}-byte memory")
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// Words per dirty-tracking page: 64 words = 256 bytes. Small enough that
/// a DES run's working set dirties only a handful of pages between
/// checkpoints, large enough that the bitmap stays a few machine words.
pub(crate) const PAGE_WORDS: usize = 64;

/// Byte-addressed RAM with word (32-bit) access granularity, matching the
/// word-oriented load/store ISA.
///
/// Every mutating access also marks the containing 64-word
/// page *dirty*. The checkpoint layer uses the dirty set to snapshot and
/// roll back only the pages a run actually touched, instead of copying the
/// whole RAM at every checkpoint boundary.
#[derive(Debug, Clone, Eq)]
pub struct DataMemory {
    words: Vec<u32>,
    /// One bit per page, set by [`DataMemory::store`] /
    /// [`DataMemory::load_image`], cleared by
    /// [`DataMemory::clear_dirty`].
    dirty: Vec<u64>,
}

/// Equality compares contents only: the dirty set is checkpoint
/// bookkeeping, not architectural state.
impl PartialEq for DataMemory {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl DataMemory {
    /// Allocates a zeroed memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 4.
    pub(crate) fn new(size: u32) -> Self {
        assert_eq!(size % 4, 0, "memory size must be word-aligned");
        let words = vec![0; (size / 4) as usize];
        let pages = words.len().div_ceil(PAGE_WORDS);
        Self { words, dirty: vec![0; pages.div_ceil(64)] }
    }

    /// Memory size in bytes.
    pub(crate) fn size(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Loads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misaligned or out-of-range addresses.
    pub fn load(&self, addr: u32) -> Result<u32, AccessError> {
        Ok(self.words[self.index(addr)?])
    }

    /// Stores `value` at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on misaligned or out-of-range addresses.
    pub fn store(&mut self, addr: u32, value: u32) -> Result<(), AccessError> {
        let i = self.index(addr)?;
        self.words[i] = value;
        self.mark_dirty(i / PAGE_WORDS);
        Ok(())
    }

    /// Copies `image` into memory starting at byte address `base`.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit — a setup error, not a simulated
    /// fault.
    pub(crate) fn load_image(&mut self, base: u32, image: &[u32]) {
        assert_eq!(base % 4, 0, "image base must be word-aligned");
        let start = (base / 4) as usize;
        let end = start + image.len();
        assert!(
            end <= self.words.len(),
            "image of {} words does not fit at {base:#X}",
            image.len()
        );
        self.words[start..end].copy_from_slice(image);
        for page in (start / PAGE_WORDS)..=(end.saturating_sub(1) / PAGE_WORDS) {
            self.mark_dirty(page);
        }
    }

    /// Reads `len` consecutive words starting at byte address `base`.
    ///
    /// # Panics
    ///
    /// Panics if the range is misaligned or out of bounds.
    pub fn read_words(&self, base: u32, len: usize) -> Vec<u32> {
        assert_eq!(base % 4, 0);
        let start = (base / 4) as usize;
        self.words[start..start + len].to_vec()
    }

    /// Whether the words in `live` agree, bit `w % 64` of `live[w / 64]`
    /// standing for word `w`. Memories of different sizes never agree.
    pub(crate) fn eq_on(&self, other: &Self, live: &[u64]) -> bool {
        self.words.len() == other.words.len()
            && self.words.chunks(64).zip(other.words.chunks(64)).zip(live).all(|((a, b), &bits)| {
                a == b
                    || a.iter().zip(b).enumerate().all(|(w, (x, y))| x == y || bits & 1 << w == 0)
            })
    }

    /// Indices of every page dirtied since the last
    /// [`DataMemory::clear_dirty`], in ascending order.
    pub(crate) fn dirty_pages(&self) -> Vec<usize> {
        let mut pages = Vec::new();
        for (w, &bits) in self.dirty.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                pages.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        pages
    }

    /// Forgets all dirty-page marks (a checkpoint boundary).
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Copies page `page` of `from` into `self`. Both memories must be the
    /// same size; used by the checkpoint layer to sync or roll back only
    /// the pages a run touched.
    ///
    /// # Panics
    ///
    /// Panics if the memories differ in size or `page` is out of range.
    pub(crate) fn copy_page_from(&mut self, from: &DataMemory, page: usize) {
        assert_eq!(self.words.len(), from.words.len(), "page copy between unequal memories");
        let start = page * PAGE_WORDS;
        let end = (start + PAGE_WORDS).min(self.words.len());
        assert!(start < self.words.len(), "page {page} out of range");
        self.words[start..end].copy_from_slice(&from.words[start..end]);
    }

    fn mark_dirty(&mut self, page: usize) {
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    fn index(&self, addr: u32) -> Result<usize, AccessError> {
        if !addr.is_multiple_of(4) {
            return Err(AccessError::Unaligned { addr });
        }
        let i = (addr / 4) as usize;
        if i >= self.words.len() {
            return Err(AccessError::OutOfBounds { addr, size: self.size() });
        }
        Ok(i)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut m = DataMemory::new(64);
        m.store(0, 0xAABB_CCDD).unwrap();
        m.store(60, 42).unwrap();
        assert_eq!(m.load(0).unwrap(), 0xAABB_CCDD);
        assert_eq!(m.load(60).unwrap(), 42);
        assert_eq!(m.load(4).unwrap(), 0);
    }

    #[test]
    fn unaligned_access_rejected() {
        let mut m = DataMemory::new(64);
        assert_eq!(m.load(2), Err(AccessError::Unaligned { addr: 2 }));
        assert_eq!(m.store(7, 1), Err(AccessError::Unaligned { addr: 7 }));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = DataMemory::new(64);
        assert_eq!(m.load(64), Err(AccessError::OutOfBounds { addr: 64, size: 64 }));
        assert!(m.load(0xFFFF_FFFC).is_err());
    }

    #[test]
    fn image_loading() {
        let mut m = DataMemory::new(64);
        m.load_image(8, &[1, 2, 3]);
        assert_eq!(m.read_words(8, 3), vec![1, 2, 3]);
        assert_eq!(m.load(4).unwrap(), 0);
        assert_eq!(m.load(20).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_image_panics() {
        DataMemory::new(8).load_image(0, &[0; 3]);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(AccessError::Unaligned { addr: 2 }.to_string().contains("0x00000002"));
        assert!(AccessError::OutOfBounds { addr: 64, size: 64 }.to_string().contains("64-byte"));
    }

    #[test]
    fn stores_mark_pages_dirty_and_clear_resets() {
        let mut m = DataMemory::new((PAGE_WORDS as u32) * 4 * 4); // 4 pages
        assert!(m.dirty_pages().is_empty() || !m.dirty_pages().is_empty()); // fresh state below
        m.clear_dirty();
        assert!(m.dirty_pages().is_empty());
        m.store(0, 1).unwrap(); // page 0
        m.store((PAGE_WORDS as u32) * 4 * 2 + 8, 2).unwrap(); // page 2
        assert_eq!(m.dirty_pages(), vec![0, 2]);
        // Loads never mark.
        m.clear_dirty();
        let _ = m.load(0).unwrap();
        let _ = m.load((PAGE_WORDS as u32) * 4 * 3).unwrap();
        assert!(m.dirty_pages().is_empty());
    }

    #[test]
    fn image_load_marks_covered_page_range() {
        let page_bytes = (PAGE_WORDS as u32) * 4;
        let mut m = DataMemory::new(page_bytes * 4);
        m.clear_dirty();
        // An image straddling pages 1..=2.
        m.load_image(page_bytes + (PAGE_WORDS as u32 - 2) * 4, &[7; 4]);
        assert_eq!(m.dirty_pages(), vec![1, 2]);
    }

    #[test]
    fn failed_store_does_not_mark_dirty() {
        let mut m = DataMemory::new(64);
        m.clear_dirty();
        assert!(m.store(7, 1).is_err());
        assert!(m.store(1 << 20, 1).is_err());
        assert!(m.dirty_pages().is_empty());
    }

    #[test]
    fn page_copy_rolls_back_only_the_requested_page() {
        let page_bytes = (PAGE_WORDS as u32) * 4;
        let mut shadow = DataMemory::new(page_bytes * 2);
        let mut live = shadow.clone();
        live.store(0, 0xAAAA).unwrap(); // page 0
        live.store(page_bytes, 0xBBBB).unwrap(); // page 1
        live.copy_page_from(&shadow, 0);
        assert_eq!(live.load(0).unwrap(), 0, "page 0 restored");
        assert_eq!(live.load(page_bytes).unwrap(), 0xBBBB, "page 1 untouched");
        shadow.copy_page_from(&live, 1);
        assert_eq!(shadow.load(page_bytes).unwrap(), 0xBBBB);
    }

    #[test]
    fn last_partial_page_is_tracked_and_copyable() {
        // 6 words: one full 64-word page would not exist; everything lives
        // in a single short page 0 — and for a memory of PAGE_WORDS + 2
        // words, page 1 is a 2-word stub.
        let mut m = DataMemory::new(((PAGE_WORDS as u32) + 2) * 4);
        m.clear_dirty();
        let last = (PAGE_WORDS as u32 + 1) * 4;
        m.store(last, 99).unwrap();
        assert_eq!(m.dirty_pages(), vec![1]);
        let shadow = DataMemory::new(((PAGE_WORDS as u32) + 2) * 4);
        m.copy_page_from(&shadow, 1);
        assert_eq!(m.load(last).unwrap(), 0);
    }

    #[test]
    fn equality_ignores_dirty_bookkeeping() {
        let mut a = DataMemory::new(64);
        let b = DataMemory::new(64);
        a.store(0, 5).unwrap();
        a.store(0, 0).unwrap(); // contents equal again, dirty set differs
        assert_eq!(a, b);
    }

    #[test]
    fn edges_of_the_standard_memory_map() {
        use emask_isa::{MEM_SIZE, STACK_TOP};
        let mut m = DataMemory::new(MEM_SIZE);
        // The last word is addressable; one past it is not.
        m.store(MEM_SIZE - 4, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.load(MEM_SIZE - 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(
            m.load(MEM_SIZE),
            Err(AccessError::OutOfBounds { addr: MEM_SIZE, size: MEM_SIZE })
        );
        // The stack red zone between STACK_TOP and MEM_SIZE stays in range.
        for a in (STACK_TOP..MEM_SIZE).step_by(4) {
            m.store(a, a).unwrap();
            assert_eq!(m.load(a).unwrap(), a);
        }
        // Odd offsets near both boundaries are alignment faults, not
        // bounds faults — alignment is checked first.
        assert_eq!(m.load(MEM_SIZE - 3), Err(AccessError::Unaligned { addr: MEM_SIZE - 3 }));
        assert_eq!(m.load(MEM_SIZE + 2), Err(AccessError::Unaligned { addr: MEM_SIZE + 2 }));
        assert_eq!(m.store(STACK_TOP + 1, 0), Err(AccessError::Unaligned { addr: STACK_TOP + 1 }));
    }

    #[test]
    fn wrap_around_addresses_fault_rather_than_alias() {
        // A base+offset sum that wraps past u32::MAX must not alias back
        // into low memory: the wrapped address is simply out of range (or
        // unaligned) for any realistic memory size.
        use emask_isa::MEM_SIZE;
        let mut m = DataMemory::new(MEM_SIZE);
        m.store(0, 0x1234_5678).unwrap();
        let wrapped = 0xFFFF_FFFCu32; // -4 as an unsigned byte address
        assert_eq!(
            m.load(wrapped),
            Err(AccessError::OutOfBounds { addr: wrapped, size: MEM_SIZE })
        );
        assert_eq!(m.load(u32::MAX), Err(AccessError::Unaligned { addr: u32::MAX }));
        assert_eq!(
            m.store(wrapped, 9),
            Err(AccessError::OutOfBounds { addr: wrapped, size: MEM_SIZE })
        );
        // Low memory is untouched by the failed stores.
        assert_eq!(m.load(0).unwrap(), 0x1234_5678);
    }
}
