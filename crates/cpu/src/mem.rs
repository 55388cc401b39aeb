//! Sparse, paged data memory.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Words per page (2¹² words = 32 KiB of 64-bit words).
const PAGE_WORDS: u64 = 1 << 12;
const PAGE_MASK: u64 = PAGE_WORDS - 1;
/// Translation-cache tag meaning "this way holds nothing". No real
/// page index can equal it: page indexes are `addr >> 12`, so they
/// never exceed `2⁵² - 1`. Using an impossible tag instead of a slot
/// sentinel keeps the hit path to a single tag compare.
const EMPTY_TAG: u64 = u64::MAX;

/// One page of memory. The fixed-size array type matters twice:
/// page-offset indexing (`addr & PAGE_MASK`, provably `< PAGE_WORDS`)
/// compiles with no inner bounds check, and storing pages *inline* in
/// the slot vector makes a cached access one load — base +
/// `slot · PAGE_WORDS + offset` — instead of a slot load feeding a
/// page-pointer load.
type Page = [u64; PAGE_WORDS as usize];

/// Multiplicative hasher for page indexes (the map key is always a
/// `u64`). Page indexes are small, dense integers; a SplitMix-style
/// mix spreads them across hashbrown's buckets and control bytes at a
/// fraction of SipHash's cost, which matters because the interpreters
/// take this path on every translation-cache miss.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("page indexes hash via write_u64");
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Word-addressed, sparsely allocated data memory.
///
/// SLA data memory is a flat space of 2⁶⁴ 64-bit words, materialised in
/// pages on first *write*; reads of never-written locations return `0`
/// without allocating. This matches what trace-driven simulators need:
/// programs can scatter a stack at [`loopspec_asm::STACK_BASE`]
/// (`2³⁰`) and static data at `2¹⁶` without any contiguous allocation.
///
/// Internally the pages live in a dense slot vector; a `HashMap` only
/// translates page index → slot, and a two-way MRU translation cache in
/// front of it makes the hit path — the overwhelmingly common case for
/// loop-shaped workloads — a tag compare plus two indexed loads, small
/// enough to inline into the interpreter dispatch loops, where the hash
/// lookup never could. Two ways matter because call-heavy programs
/// alternate stack-frame traffic with static-data traffic: a one-entry
/// cache thrashes on exactly that pattern.
///
/// ```
/// use loopspec_cpu::Memory;
/// let mut m = Memory::new();
/// assert_eq!(m.read(12345), 0);     // untouched memory reads as zero
/// m.write(12345, 42);
/// assert_eq!(m.read(12345), 42);
/// assert_eq!(m.pages_allocated(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page index → slot in `store`.
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// Slot → page contents, pages inline (see [`Page`]).
    store: Vec<Page>,
    /// Slot → page index (the inverse of `index`, for serialization).
    ids: Vec<u64>,
    /// Most-recent translation `(page index, slot)`; tag [`EMPTY_TAG`]
    /// when empty. `Cell`s keep the read hit path on a `&self`
    /// signature.
    way0: Cell<(u64, u32)>,
    /// Second-most-recent translation.
    way1: Cell<(u64, u32)>,
    /// Telemetry: accesses answered by a cache way. Plain `Cell`
    /// counters (no atomics on the interpreter hot path); strictly
    /// out-of-band — never serialized, never compared.
    mru_hits: Cell<u64>,
    /// Telemetry: accesses that fell through to the page map.
    mru_misses: Cell<u64>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            index: HashMap::default(),
            store: Vec::new(),
            ids: Vec::new(),
            way0: Cell::new((EMPTY_TAG, 0)),
            way1: Cell::new((EMPTY_TAG, 0)),
            mru_hits: Cell::new(0),
            mru_misses: Cell::new(0),
        }
    }
}

impl Memory {
    /// Creates an empty memory (all zeros).
    pub fn new() -> Self {
        Self::default()
    }

    /// Translates `page` through the two cache ways, promoting a
    /// second-way hit to the front. Returns the page's slot.
    #[inline(always)]
    fn translate(&self, page: u64) -> Option<u32> {
        let (tag0, slot0) = self.way0.get();
        if page == tag0 {
            self.mru_hits.set(self.mru_hits.get() + 1);
            return Some(slot0);
        }
        let (tag1, slot1) = self.way1.get();
        if page == tag1 {
            self.way1.set((tag0, slot0));
            self.way0.set((tag1, slot1));
            self.mru_hits.set(self.mru_hits.get() + 1);
            return Some(slot1);
        }
        self.mru_misses.set(self.mru_misses.get() + 1);
        None
    }

    /// Installs a fresh translation in the MRU way, demoting way 0.
    #[inline(always)]
    fn install(&self, page: u64, slot: u32) {
        self.way1.set(self.way0.get());
        self.way0.set((page, slot));
    }

    /// Reads the word at `addr`; unwritten memory reads as `0`.
    #[inline(always)]
    pub fn read(&self, addr: u64) -> u64 {
        let page = addr / PAGE_WORDS;
        if let Some(slot) = self.translate(page) {
            return self.store[slot as usize][(addr & PAGE_MASK) as usize];
        }
        self.read_miss(addr)
    }

    fn read_miss(&self, addr: u64) -> u64 {
        let page = addr / PAGE_WORDS;
        match self.index.get(&page) {
            Some(&slot) => {
                self.install(page, slot);
                self.store[slot as usize][(addr & PAGE_MASK) as usize]
            }
            None => 0,
        }
    }

    /// Writes the word at `addr`, allocating its page if needed.
    #[inline(always)]
    pub fn write(&mut self, addr: u64, value: u64) {
        let page = addr / PAGE_WORDS;
        if let Some(slot) = self.translate(page) {
            self.store[slot as usize][(addr & PAGE_MASK) as usize] = value;
            return;
        }
        self.write_miss(addr, value);
    }

    fn write_miss(&mut self, addr: u64, value: u64) {
        let page = addr / PAGE_WORDS;
        let slot = match self.index.get(&page) {
            Some(&slot) => slot,
            None => {
                let slot = self.store.len() as u32;
                self.store.push([0u64; PAGE_WORDS as usize]);
                self.ids.push(page);
                self.index.insert(page, slot);
                slot
            }
        };
        self.install(page, slot);
        self.store[slot as usize][(addr & PAGE_MASK) as usize] = value;
    }

    /// Number of pages currently materialised.
    #[inline]
    pub fn pages_allocated(&self) -> usize {
        self.store.len()
    }

    /// Telemetry: returns `(hits, misses)` of the MRU translation cache
    /// accumulated since the last take, and resets both to zero. The
    /// counters are out-of-band — excluded from [`Memory::save_state`]
    /// and from every equality the equivalence suites compare.
    pub fn take_mru_telemetry(&self) -> (u64, u64) {
        let taken = (self.mru_hits.get(), self.mru_misses.get());
        self.mru_hits.set(0);
        self.mru_misses.set(0);
        taken
    }

    /// Releases all pages, returning the memory to the all-zeros state.
    pub fn clear(&mut self) {
        self.index.clear();
        self.store.clear();
        self.ids.clear();
        self.way0.set((EMPTY_TAG, 0));
        self.way1.set((EMPTY_TAG, 0));
    }

    /// Serializes the materialised pages into `out` (part of the CPU's
    /// checkpoint section; see [`Cpu::save_state`](crate::Cpu::save_state)).
    ///
    /// Pages are written sorted by page index so equal memory contents
    /// always produce equal bytes, regardless of allocation order.
    pub fn save_state(&self, out: &mut loopspec_isa::snap::Enc) {
        let mut slots: Vec<u32> = (0..self.store.len() as u32).collect();
        slots.sort_unstable_by_key(|&slot| self.ids[slot as usize]);
        out.u64(slots.len() as u64);
        for slot in slots {
            out.u64(self.ids[slot as usize]);
            for &word in self.store[slot as usize].iter() {
                out.u64(word);
            }
        }
    }

    /// Restores the memory from bytes written by [`Memory::save_state`],
    /// replacing the current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`](loopspec_isa::snap::SnapError) on
    /// truncated or corrupt input.
    pub fn load_state(
        &mut self,
        src: &mut loopspec_isa::snap::Dec<'_>,
    ) -> Result<(), loopspec_isa::snap::SnapError> {
        // Each page encodes as an 8-byte index plus PAGE_WORDS words —
        // sizing the count check to that keeps a corrupt count from
        // reserving capacity far beyond the input.
        let n = src.count_elems(8 * (1 + PAGE_WORDS as usize))?;
        self.clear();
        self.index.reserve(n);
        self.store.reserve(n);
        self.ids.reserve(n);
        for _ in 0..n {
            let id = src.u64()?;
            let mut page = [0u64; PAGE_WORDS as usize];
            for word in page.iter_mut() {
                *word = src.u64()?;
            }
            self.index.insert(id, self.store.len() as u32);
            self.store.push(page);
            self.ids.push(id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u64::MAX), 0);
        assert_eq!(m.pages_allocated(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = Memory::new();
        for addr in [0u64, 1, PAGE_WORDS - 1, PAGE_WORDS, 1 << 30, u64::MAX] {
            m.write(addr, addr ^ 0xdead_beef);
        }
        for addr in [0u64, 1, PAGE_WORDS - 1, PAGE_WORDS, 1 << 30, u64::MAX] {
            assert_eq!(m.read(addr), addr ^ 0xdead_beef);
        }
    }

    #[test]
    fn pages_are_shared_within_page_and_distinct_across() {
        let mut m = Memory::new();
        m.write(0, 1);
        m.write(PAGE_WORDS - 1, 2);
        assert_eq!(m.pages_allocated(), 1);
        m.write(PAGE_WORDS, 3);
        assert_eq!(m.pages_allocated(), 2);
    }

    #[test]
    fn reads_do_not_allocate() {
        let mut m = Memory::new();
        let _ = m.read(999_999);
        assert_eq!(m.pages_allocated(), 0);
        m.write(999_999, 7);
        assert_eq!(m.pages_allocated(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut m = Memory::new();
        m.write(5, 5);
        m.clear();
        assert_eq!(m.read(5), 0);
        assert_eq!(m.pages_allocated(), 0);
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut m = Memory::new();
        m.write(42, 1);
        m.write(42, 2);
        assert_eq!(m.read(42), 2);
    }

    #[test]
    fn cache_stays_coherent_across_interleaved_pages() {
        // Alternate between three pages so accesses rotate through both
        // cache ways and the miss path, then re-read everything.
        let mut m = Memory::new();
        for i in 0..64u64 {
            m.write(i, i + 1);
            m.write((1 << 20) + i, i + 50);
            m.write((1 << 30) + i, i + 100);
        }
        for i in 0..64u64 {
            assert_eq!(m.read(i), i + 1);
            assert_eq!(m.read((1 << 20) + i), i + 50);
            assert_eq!(m.read((1 << 30) + i), i + 100);
        }
    }

    #[test]
    fn mru_telemetry_counts_and_resets() {
        let mut m = Memory::new();
        m.write(0, 1); // miss (cold), installs
        m.write(1, 2); // hit (way 0)
        let _ = m.read(2); // hit
        let _ = m.read(1 << 30); // miss, unallocated
        let (hits, misses) = m.take_mru_telemetry();
        assert_eq!((hits, misses), (2, 2));
        assert_eq!(m.take_mru_telemetry(), (0, 0), "take resets");
    }

    #[test]
    fn snapshot_roundtrip_is_order_independent() {
        let mut a = Memory::new();
        a.write(1 << 30, 7); // high page first
        a.write(0, 9);
        let mut b = Memory::new();
        b.write(0, 9); // low page first
        b.write(1 << 30, 7);

        let enc_of = |m: &Memory| {
            let mut enc = loopspec_isa::snap::Enc::new();
            m.save_state(&mut enc);
            enc.into_bytes()
        };
        assert_eq!(enc_of(&a), enc_of(&b), "bytes sort by page index");

        let bytes = enc_of(&a);
        let mut c = Memory::new();
        c.write(12345, 1); // stale contents must be replaced
        let mut dec = loopspec_isa::snap::Dec::new(&bytes);
        c.load_state(&mut dec).unwrap();
        assert_eq!(c.read(1 << 30), 7);
        assert_eq!(c.read(0), 9);
        assert_eq!(c.read(12345), 0);
        assert_eq!(c.pages_allocated(), 2);
    }
}
