//! Device memory: global memory with a configurable weak model, and
//! per-block shared memory.
//!
//! Global memory models the paper's litmus observations (§3.3.3, Fig. 4)
//! with *per-block store buffers*: a store becomes visible to other blocks
//! only once committed. Loads from the owning block forward from the
//! buffer (so intra-block program order is always respected); `membar.gl`
//! commits every pending store device-wide; the background drain commits
//! either in random order (Kepler preset) or FIFO (Maxwell preset), except
//! that two pending stores to the same location always commit in program
//! order (hardware store buffers never reorder same-address stores).
//!
//! A warp's global `ld`/`st` (scalar or vector) first tries
//! [`GlobalMemory::try_load_lanes`] / [`GlobalMemory::try_store_lanes`].
//! They serve the warp only when the model is SC and every active lane's
//! bytes lie inside one allocated page: the element width is matched once
//! per warp and each lane is one fixed-width copy. In any other case (a
//! buffered model, a lane below [`crate::GLOBAL_BASE`], past the last page
//! or straddling a page end) they touch nothing and return `false`, and
//! the executor runs its per-lane [`GlobalMemory::load`] /
//! [`GlobalMemory::store`] loop, which owns every fault and store-buffer
//! case.

use crate::config::{MemoryModel, SimError};
use crate::exec::lanes;
use rand::rngs::StdRng;
use rand::RngExt;
use std::ops::Range;

const PAGE_SHIFT: u32 = 16;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT; // 64 KiB

/// One store waiting in a block's store buffer.
#[derive(Debug, Clone, Copy)]
struct PendingStore {
    addr: u64,
    size: u8,
    value: u64,
}

/// Whether `a` and `[addr, addr + size)` share a byte; wrapping offsets
/// keep an access at the top of the address space from overflowing.
fn overlaps(a: &PendingStore, addr: u64, size: u8) -> bool {
    a.addr.wrapping_sub(addr) < u64::from(size) || addr.wrapping_sub(a.addr) < u64::from(a.size)
}

/// Device global memory.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    model: MemoryModel,
    /// Page `i` starts at `GLOBAL_BASE + (i << PAGE_SHIFT)`. Allocation bumps
    /// a pointer and never skips a page, so the pages in use are a prefix.
    pages: Vec<Box<[u8]>>,
    next_alloc: u64,
    allocated: u64,
    buffers: Vec<Vec<PendingStore>>,
}

impl GlobalMemory {
    /// Creates empty global memory under the given model. Allocation
    /// starts at [`crate::GLOBAL_BASE`].
    pub fn new(model: MemoryModel) -> Self {
        GlobalMemory {
            model,
            pages: Vec::new(),
            next_alloc: crate::GLOBAL_BASE,
            allocated: 0,
            buffers: Vec::new(),
        }
    }

    /// Total bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Allocates `size` zeroed bytes, 256-byte aligned (like `cudaMalloc`).
    /// Panics when the allocation would end past `u64::MAX`.
    pub fn malloc(&mut self, size: u64) -> u64 {
        let (addr, end) = self
            .next_alloc
            .checked_next_multiple_of(256)
            .and_then(|a| Some((a, a.checked_add(size.max(1))?)))
            .expect("device allocation passes the end of the address space");
        self.next_alloc = end;
        self.allocated += size;
        // Pre-create pages so accesses can be validated cheaply.
        let pages = ((end - 1 - crate::GLOBAL_BASE) >> PAGE_SHIFT) as usize + 1;
        let zeroed = || vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.pages.resize_with(pages.max(self.pages.len()), zeroed);
        addr
    }

    /// Prepares per-block store buffers for a launch of `num_blocks`.
    pub fn begin_kernel(&mut self, num_blocks: u64) {
        self.buffers = vec![Vec::new(); num_blocks as usize];
    }

    /// Commits all pending stores (called at kernel completion so the host
    /// sees final memory).
    pub fn end_kernel(&mut self) {
        self.drain_all();
        self.buffers.clear();
    }

    /// Splits `[addr, addr + len)` into one `(page, offset, buffer range)`
    /// chunk per page once all of it lies in the `npages` allocated pages;
    /// otherwise names the first byte that does not.
    fn chunks(
        npages: usize,
        addr: u64,
        len: usize,
    ) -> Result<impl Iterator<Item = (usize, usize, Range<usize>)>, SimError> {
        let mapped = (npages as u64) << PAGE_SHIFT;
        let start = match addr.checked_sub(crate::GLOBAL_BASE) {
            Some(o) if o < mapped => o,
            _ if len == 0 => 0,
            _ => return Err(SimError::InvalidAccess { addr }),
        };
        if len as u64 > mapped - start {
            let addr = crate::GLOBAL_BASE + mapped;
            return Err(SimError::InvalidAccess { addr });
        }
        let mut done = 0;
        Ok(std::iter::from_fn(move || {
            (done < len).then(|| {
                let o = start + done as u64;
                let off = (o & (PAGE_SIZE as u64 - 1)) as usize;
                let n = (len - done).min(PAGE_SIZE - off);
                done += n;
                ((o >> PAGE_SHIFT) as usize, off, done - n..done)
            })
        }))
    }

    /// Reads committed bytes (host view; ignores store buffers).
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) -> Result<(), SimError> {
        for (p, off, r) in Self::chunks(self.pages.len(), addr, out.len())? {
            out[r.clone()].copy_from_slice(&self.pages[p][off..off + r.len()]);
        }
        Ok(())
    }

    /// Writes committed bytes (host view). Nothing is written unless the
    /// whole range is allocated.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), SimError> {
        for (p, off, r) in Self::chunks(self.pages.len(), addr, data.len())? {
            self.pages[p][off..off + r.len()].copy_from_slice(&data[r]);
        }
        Ok(())
    }

    fn read_committed(&self, addr: u64, size: u8) -> Result<u64, SimError> {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..size as usize])?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_committed(&mut self, addr: u64, size: u8, value: u64) -> Result<(), SimError> {
        self.write_bytes(addr, &value.to_le_bytes()[..size as usize])
    }

    /// A load as seen by `block`: forwards from the block's own store
    /// buffer when an exactly-matching pending store exists, otherwise
    /// reads committed memory.
    pub fn load(&self, block: u64, addr: u64, size: u8) -> Result<u64, SimError> {
        if self.model.buffered() {
            if let Some(buf) = self.buffers.get(block as usize) {
                if let Some(s) = buf.iter().rev().find(|s| s.addr == addr && s.size == size) {
                    return Ok(s.value);
                }
            }
        }
        self.read_committed(addr, size)
    }

    /// A store by `block`: buffered under weak models, immediate under SC.
    pub fn store(&mut self, block: u64, addr: u64, size: u8, value: u64) -> Result<(), SimError> {
        if !self.model.buffered() {
            return self.write_committed(addr, size, value);
        }
        // Validate the address now: the store commits later.
        let _ = Self::chunks(self.pages.len(), addr, 1)?;
        self.buffers[block as usize].push(PendingStore { addr, size, value });
        Ok(())
    }

    /// Loads `out.len()` consecutive `size`-byte elements at every `mask`
    /// lane's address in one pass, if the warp can be served directly:
    /// lane `l`'s element `i` is read from `addrs[l] + i * size` into
    /// `out[i][l]`, the values a [`load`](Self::load) loop would return.
    /// Returns `false` and writes nothing unless the model is SC, `size` is
    /// 1, 2, 4 or 8, and every lane's `size * out.len()` bytes lie inside
    /// one allocated page.
    pub fn try_load_lanes(
        &self,
        mask: u32,
        addrs: &[u64; 32],
        size: u8,
        out: &mut [[u64; 32]],
    ) -> bool {
        if !self.lanes_fit(mask, addrs, u64::from(size) * out.len() as u64) {
            return false;
        }
        match size {
            1 => self.read_lanes::<1>(mask, addrs, out),
            2 => self.read_lanes::<2>(mask, addrs, out),
            4 => self.read_lanes::<4>(mask, addrs, out),
            8 => self.read_lanes::<8>(mask, addrs, out),
            _ => return false,
        }
        true
    }

    /// Stores `vals.len()` consecutive `size`-byte elements at every
    /// `mask` lane's address in one pass, if the warp can be served
    /// directly: lane `l`'s element `i` is `vals[i][l]` at
    /// `addrs[l] + i * size`, in lane order, so where lanes overlap the
    /// highest lane's bytes win, as in a [`store`](Self::store) loop.
    /// Returns `false` and stores nothing unless the model is SC, `size` is
    /// 1, 2, 4 or 8, and every lane's `size * vals.len()` bytes lie inside
    /// one allocated page.
    pub fn try_store_lanes(
        &mut self,
        mask: u32,
        addrs: &[u64; 32],
        size: u8,
        vals: &[[u64; 32]],
    ) -> bool {
        if !self.lanes_fit(mask, addrs, u64::from(size) * vals.len() as u64) {
            return false;
        }
        match size {
            1 => self.write_lanes::<1>(mask, addrs, vals),
            2 => self.write_lanes::<2>(mask, addrs, vals),
            4 => self.write_lanes::<4>(mask, addrs, vals),
            8 => self.write_lanes::<8>(mask, addrs, vals),
            _ => return false,
        }
        true
    }

    /// Whether a warp access of `len` bytes per lane may copy directly:
    /// the model is SC (no store buffer to forward from or fill) and every
    /// `mask` lane's `[addr, addr + len)` lies inside one allocated page.
    fn lanes_fit(&self, mask: u32, addrs: &[u64; 32], len: u64) -> bool {
        if self.model.buffered() {
            return false;
        }
        let mapped = (self.pages.len() as u64) << PAGE_SHIFT;
        lanes(mask, 32).all(|l| {
            addrs[l as usize]
                .checked_sub(crate::GLOBAL_BASE)
                .is_some_and(|o| {
                    o < mapped && (o & (PAGE_SIZE as u64 - 1)) + len <= PAGE_SIZE as u64
                })
        })
    }

    /// The `(page, offset)` of an address [`lanes_fit`](Self::lanes_fit)
    /// accepted.
    fn page_offset(addr: u64) -> (usize, usize) {
        let o = addr - crate::GLOBAL_BASE;
        (
            (o >> PAGE_SHIFT) as usize,
            (o & (PAGE_SIZE as u64 - 1)) as usize,
        )
    }

    /// [`try_load_lanes`](Self::try_load_lanes) at element width `N`.
    fn read_lanes<const N: usize>(&self, mask: u32, addrs: &[u64; 32], out: &mut [[u64; 32]]) {
        for l in lanes(mask, 32).map(|l| l as usize) {
            let (p, off) = Self::page_offset(addrs[l]);
            let page = &self.pages[p][off..];
            for (i, o) in out.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b[..N].copy_from_slice(&page[i * N..(i + 1) * N]);
                o[l] = u64::from_le_bytes(b);
            }
        }
    }

    /// [`try_store_lanes`](Self::try_store_lanes) at element width `N`, in
    /// lane order.
    fn write_lanes<const N: usize>(&mut self, mask: u32, addrs: &[u64; 32], vals: &[[u64; 32]]) {
        for l in lanes(mask, 32).map(|l| l as usize) {
            let (p, off) = Self::page_offset(addrs[l]);
            let page = &mut self.pages[p][off..];
            for (i, v) in vals.iter().enumerate() {
                page[i * N..(i + 1) * N].copy_from_slice(&v[l].to_le_bytes()[..N]);
            }
        }
    }

    /// An atomic read-modify-write by `block`. Atomics are coherent: all
    /// pending stores to the target location (from every block) commit
    /// first, then the RMW executes on committed memory. Returns the old
    /// value.
    pub fn atomic(
        &mut self,
        _block: u64,
        addr: u64,
        size: u8,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64, SimError> {
        if self.model.buffered() {
            for b in 0..self.buffers.len() {
                self.commit_matching(b, addr, size);
            }
        }
        let old = self.read_committed(addr, size)?;
        let new = f(old);
        self.write_committed(addr, size, new)?;
        Ok(old)
    }

    /// Executes a memory fence by `block`. `membar.gl`/`membar.sys` commit
    /// every block's pending stores; `membar.cta` has no inter-block
    /// effect (intra-block ordering is already guaranteed by forwarding).
    pub fn fence(&mut self, _block: u64, global: bool) {
        if global {
            self.drain_all();
        }
    }

    /// One background drain step: commit one pending store, chosen per the
    /// model (random store for Kepler, FIFO for Maxwell). Same-address
    /// stores always commit oldest-first.
    pub fn drain_step(&mut self, rng: &mut StdRng) {
        if !self.model.buffered() {
            return;
        }
        let candidates: Vec<usize> = self
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let block = candidates[rng.random_range(0..candidates.len())];
        let idx = match self.model {
            MemoryModel::KeplerK520 => rng.random_range(0..self.buffers[block].len()),
            _ => 0,
        };
        // Never reorder same-address stores: commit the oldest overlapping
        // store at or before `idx`.
        let chosen = self.buffers[block][idx];
        let first = self.buffers[block]
            .iter()
            .position(|s| overlaps(s, chosen.addr, chosen.size))
            .expect("chosen store overlaps itself");
        let s = self.buffers[block].remove(first);
        let _ = self.write_committed(s.addr, s.size, s.value);
    }

    /// Commits and removes all pending stores overlapping `[addr, addr+size)`
    /// in `block`'s buffer, oldest first.
    fn commit_matching(&mut self, block: usize, addr: u64, size: u8) {
        let mut i = 0;
        while i < self.buffers[block].len() {
            if overlaps(&self.buffers[block][i], addr, size) {
                let s = self.buffers[block].remove(i);
                let _ = self.write_committed(s.addr, s.size, s.value);
            } else {
                i += 1;
            }
        }
    }

    /// Commits every pending store from every block, in per-block program
    /// order.
    pub fn drain_all(&mut self) {
        for b in 0..self.buffers.len() {
            let stores = std::mem::take(&mut self.buffers[b]);
            for s in stores {
                let _ = self.write_committed(s.addr, s.size, s.value);
            }
        }
    }

    /// Total pending (uncommitted) stores across all blocks.
    pub fn pending_stores(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }
}

/// Per-block shared memory segment. Shared memory is strongly ordered
/// within its block (it is private to the block, so there is no
/// cross-block visibility question).
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<u8>,
}

impl SharedMemory {
    /// A zeroed segment of `size` bytes.
    pub fn new(size: u64) -> Self {
        SharedMemory {
            data: vec![0; size as usize],
        }
    }

    /// Segment size in bytes.
    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }

    fn check(&self, offset: u64, size: u8) -> Result<usize, SimError> {
        let end = offset + u64::from(size);
        if end > self.data.len() as u64 {
            return Err(SimError::SharedOutOfBounds {
                offset,
                size: self.data.len() as u64,
            });
        }
        Ok(offset as usize)
    }

    /// Loads `size` bytes at `offset`.
    pub fn load(&self, offset: u64, size: u8) -> Result<u64, SimError> {
        let o = self.check(offset, size)?;
        let mut buf = [0u8; 8];
        buf[..size as usize].copy_from_slice(&self.data[o..o + size as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores `size` bytes at `offset`.
    pub fn store(&mut self, offset: u64, size: u8, value: u64) -> Result<(), SimError> {
        let o = self.check(offset, size)?;
        self.data[o..o + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
        Ok(())
    }

    /// Atomic read-modify-write; returns the old value.
    pub fn atomic(
        &mut self,
        offset: u64,
        size: u8,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64, SimError> {
        let old = self.load(offset, size)?;
        self.store(offset, size, f(old))?;
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn malloc_zeroed_and_aligned() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        let a = m.malloc(100);
        assert_eq!(a % 256, 0);
        assert!(a >= crate::GLOBAL_BASE);
        let b = m.malloc(8);
        assert!(b >= a + 100);
        assert_eq!(m.read_committed(a, 8).unwrap(), 0);
        assert_eq!(m.allocated_bytes(), 108);
    }

    #[test]
    fn invalid_access_detected() {
        let m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        assert!(matches!(
            m.read_committed(0xdead_0000_0000, 4),
            Err(SimError::InvalidAccess { .. })
        ));
    }

    #[test]
    fn sc_store_is_immediately_visible_to_other_blocks() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        let a = m.malloc(4);
        m.begin_kernel(2);
        m.store(0, a, 4, 7).unwrap();
        assert_eq!(m.load(1, a, 4).unwrap(), 7);
    }

    #[test]
    fn buffered_store_invisible_until_commit_but_forwards_locally() {
        let mut m = GlobalMemory::new(MemoryModel::KeplerK520);
        let a = m.malloc(4);
        m.begin_kernel(2);
        m.store(0, a, 4, 7).unwrap();
        assert_eq!(m.load(0, a, 4).unwrap(), 7, "own block forwards");
        assert_eq!(m.load(1, a, 4).unwrap(), 0, "other block sees stale");
        assert_eq!(m.pending_stores(), 1);
        m.fence(0, true); // membar.gl
        assert_eq!(m.load(1, a, 4).unwrap(), 7);
        assert_eq!(m.pending_stores(), 0);
    }

    #[test]
    fn cta_fence_does_not_commit() {
        let mut m = GlobalMemory::new(MemoryModel::KeplerK520);
        let a = m.malloc(4);
        m.begin_kernel(2);
        m.store(0, a, 4, 7).unwrap();
        m.fence(0, false); // membar.cta
        assert_eq!(m.load(1, a, 4).unwrap(), 0);
    }

    #[test]
    fn kepler_drain_can_reorder_distinct_addresses() {
        // Stores to x then y can commit y-first under the Kepler preset.
        let mut seen_reorder = false;
        for seed in 0..64 {
            let mut m = GlobalMemory::new(MemoryModel::KeplerK520);
            let x = m.malloc(4);
            let y = m.malloc(4);
            m.begin_kernel(1);
            m.store(0, x, 4, 1).unwrap();
            m.store(0, y, 4, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            m.drain_step(&mut rng);
            let xv = m.read_committed(x, 4).unwrap();
            let yv = m.read_committed(y, 4).unwrap();
            if yv == 1 && xv == 0 {
                seen_reorder = true;
                break;
            }
        }
        assert!(
            seen_reorder,
            "Kepler preset should exhibit store reordering"
        );
    }

    #[test]
    fn maxwell_drain_is_fifo() {
        for seed in 0..64 {
            let mut m = GlobalMemory::new(MemoryModel::MaxwellTitanX);
            let x = m.malloc(4);
            let y = m.malloc(4);
            m.begin_kernel(1);
            m.store(0, x, 4, 1).unwrap();
            m.store(0, y, 4, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            m.drain_step(&mut rng);
            let xv = m.read_committed(x, 4).unwrap();
            let yv = m.read_committed(y, 4).unwrap();
            assert!(!(yv == 1 && xv == 0), "Maxwell preset must not reorder");
        }
    }

    #[test]
    fn same_address_stores_never_reorder() {
        for seed in 0..64 {
            let mut m = GlobalMemory::new(MemoryModel::KeplerK520);
            let x = m.malloc(4);
            m.begin_kernel(1);
            m.store(0, x, 4, 1).unwrap();
            m.store(0, x, 4, 2).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            m.drain_step(&mut rng);
            m.drain_step(&mut rng);
            assert_eq!(
                m.read_committed(x, 4).unwrap(),
                2,
                "final value must be the last store"
            );
        }
    }

    #[test]
    fn atomic_commits_pending_stores_first() {
        let mut m = GlobalMemory::new(MemoryModel::KeplerK520);
        let a = m.malloc(4);
        m.begin_kernel(2);
        m.store(0, a, 4, 5).unwrap();
        // Block 1's atomic must see block 0's store (coherent atomics).
        let old = m.atomic(1, a, 4, |v| v + 1).unwrap();
        assert_eq!(old, 5);
        assert_eq!(m.load(1, a, 4).unwrap(), 6);
    }

    #[test]
    fn end_kernel_drains_everything() {
        let mut m = GlobalMemory::new(MemoryModel::KeplerK520);
        let a = m.malloc(8);
        m.begin_kernel(1);
        m.store(0, a, 4, 1).unwrap();
        m.store(0, a + 4, 4, 2).unwrap();
        m.end_kernel();
        assert_eq!(m.read_committed(a, 4).unwrap(), 1);
        assert_eq!(m.read_committed(a + 4, 4).unwrap(), 2);
    }

    #[test]
    fn shared_memory_bounds_and_atomics() {
        let mut s = SharedMemory::new(16);
        s.store(0, 4, 42).unwrap();
        assert_eq!(s.load(0, 4).unwrap(), 42);
        assert_eq!(s.atomic(0, 4, |v| v * 2).unwrap(), 42);
        assert_eq!(s.load(0, 4).unwrap(), 84);
        assert!(matches!(
            s.load(13, 4),
            Err(SimError::SharedOutOfBounds { .. })
        ));
        assert!(s.load(12, 4).is_ok());
    }

    const BASE: u64 = crate::GLOBAL_BASE;
    const PAGE: u64 = PAGE_SIZE as u64;

    #[test]
    fn access_straddling_a_page_boundary() {
        for model in [MemoryModel::SequentiallyConsistent, MemoryModel::KeplerK520] {
            let mut m = GlobalMemory::new(model);
            let a = m.malloc(3 * PAGE);
            let at = a + PAGE - 4;
            assert_eq!(at >> PAGE_SHIFT, a >> PAGE_SHIFT, "{model:?}");
            m.begin_kernel(2);
            m.store(0, at, 8, 0x1122_3344_5566_7788).unwrap();
            assert_eq!(
                m.load(0, at, 8).unwrap(),
                0x1122_3344_5566_7788,
                "{model:?}"
            );
            m.fence(0, true);
            assert_eq!(m.load(1, at, 4).unwrap(), 0x5566_7788, "{model:?}");
            assert_eq!(m.load(1, at + 4, 4).unwrap(), 0x1122_3344, "{model:?}");
            assert_eq!(
                m.load(1, at, 8).unwrap(),
                0x1122_3344_5566_7788,
                "{model:?}"
            );
            assert_eq!(m.load(1, at - 4, 4).unwrap(), 0, "{model:?}");
            assert_eq!(m.load(1, at + 8, 4).unwrap(), 0, "{model:?}");
        }
    }

    #[test]
    fn host_copy_across_three_pages() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        let a = m.malloc(4 * PAGE);
        let at = a + PAGE - 50;
        let data: Vec<u8> = (0..PAGE as usize + 100)
            .map(|i| (i * 7 + 1) as u8)
            .collect();
        m.write_bytes(at, &data).unwrap();
        let mut back = vec![0u8; data.len() + 2];
        m.read_bytes(at - 1, &mut back).unwrap();
        assert_eq!(back[0], 0);
        assert_eq!(&back[1..=data.len()], &data[..]);
        assert_eq!(back[data.len() + 1], 0);
    }

    #[test]
    fn invalid_access_names_the_first_faulting_byte() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        m.malloc(100);
        let end = BASE + PAGE; // just past the last page
        fn fault<T>(addr: u64) -> Result<T, SimError> {
            Err(SimError::InvalidAccess { addr })
        }
        for (addr, len, first_bad) in [(BASE - 1, 4, BASE - 1), (end, 4, end), (end - 2, 4, end)] {
            let mut buf = vec![0u8; len];
            assert_eq!(
                m.read_bytes(addr, &mut buf),
                fault(first_bad),
                "read {addr:#x}"
            );
            assert_eq!(
                m.write_bytes(addr, &buf),
                fault(first_bad),
                "write {addr:#x}"
            );
        }
        m.begin_kernel(1);
        assert_eq!(m.load(0, BASE - 1, 1), fault(BASE - 1));
        assert_eq!(m.store(0, end, 4, 1), fault(end));
        assert_eq!(m.atomic(0, end - 2, 4, |v| v), fault(end));
        assert_eq!(
            m.read_bytes(BASE - 1, &mut []),
            Ok(()),
            "an empty copy never faults"
        );
    }

    #[test]
    fn write_off_the_last_page_changes_nothing() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        m.malloc(100);
        let end = BASE + PAGE;
        m.write_bytes(end - 4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(
            m.write_bytes(end - 4, &[9; 8]),
            Err(SimError::InvalidAccess { addr: end })
        );
        let mut back = [0u8; 4];
        m.read_bytes(end - 4, &mut back).unwrap();
        assert_eq!(back, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "device allocation passes the end of the address space")]
    fn malloc_past_the_end_of_the_address_space_panics() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        m.malloc(64);
        m.malloc(u64::MAX - BASE);
    }

    /// A naive reference for [`GlobalMemory`]: a byte map, the set of
    /// allocated 64 KiB pages by absolute page number, and per-block
    /// lists of pending stores.
    #[derive(Default)]
    struct Model {
        buffered: bool,
        next: u64,
        pages: BTreeSet<u64>,
        bytes: BTreeMap<u64, u8>,
        pending: Vec<Vec<(u64, u8, u64)>>,
    }

    impl Model {
        fn malloc(&mut self, size: u64) -> u64 {
            let addr = self.next.max(BASE).div_ceil(256) * 256;
            self.next = addr + size.max(1);
            self.pages
                .extend(addr >> PAGE_SHIFT..=(self.next - 1) >> PAGE_SHIFT);
            addr
        }

        /// The first byte of `[addr, addr + len)` on a page that was never
        /// allocated.
        fn check(&self, addr: u64, len: u64) -> Result<(), SimError> {
            if len == 0 {
                return Ok(());
            }
            let last = addr.saturating_add(len - 1) >> PAGE_SHIFT;
            match (addr >> PAGE_SHIFT..=last).find(|p| !self.pages.contains(p)) {
                Some(p) => Err(SimError::InvalidAccess {
                    addr: addr.max(p << PAGE_SHIFT),
                }),
                None => Ok(()),
            }
        }

        fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, SimError> {
            self.check(addr, len)?;
            let mut out = vec![0u8; len as usize];
            for (&a, &b) in self.bytes.range(addr..addr + len) {
                out[(a - addr) as usize] = b;
            }
            Ok(out)
        }

        fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), SimError> {
            self.check(addr, data.len() as u64)?;
            for (i, &b) in data.iter().enumerate() {
                self.bytes.insert(addr + i as u64, b);
            }
            Ok(())
        }

        fn read_word(&self, addr: u64, size: u8) -> Result<u64, SimError> {
            let mut w = [0u8; 8];
            w[..size as usize].copy_from_slice(&self.read(addr, u64::from(size))?);
            Ok(u64::from_le_bytes(w))
        }

        fn write_word(&mut self, addr: u64, size: u8, value: u64) -> Result<(), SimError> {
            self.write(addr, &value.to_le_bytes()[..size as usize])
        }

        fn load(&self, block: usize, addr: u64, size: u8) -> Result<u64, SimError> {
            // Only buffered models ever hold pending stores.
            let forwarded = self.pending[block]
                .iter()
                .rev()
                .find(|s| (s.0, s.1) == (addr, size));
            forwarded.map_or_else(|| self.read_word(addr, size), |s| Ok(s.2))
        }

        fn store(&mut self, block: usize, addr: u64, size: u8, value: u64) -> Result<(), SimError> {
            self.check(addr, 1)?;
            if self.buffered {
                self.pending[block].push((addr, size, value));
                Ok(())
            } else {
                self.write_word(addr, size, value)
            }
        }

        fn atomic(&mut self, addr: u64, size: u8, add: u64) -> Result<u64, SimError> {
            let end = u128::from(addr) + u128::from(size);
            for b in 0..self.pending.len() {
                let (hit, keep) = self.pending[b].iter().partition(|s| {
                    u128::from(s.0) < end && u128::from(addr) < u128::from(s.0) + u128::from(s.1)
                });
                self.pending[b] = keep;
                for (a, sz, v) in hit as Vec<_> {
                    let _ = self.write_word(a, sz, v);
                }
            }
            let old = self.read_word(addr, size)?;
            self.write_word(addr, size, old.wrapping_add(add))?;
            Ok(old)
        }

        fn fence(&mut self) {
            for b in 0..self.pending.len() {
                for (a, sz, v) in std::mem::take(&mut self.pending[b]) {
                    let _ = self.write_word(a, sz, v);
                }
            }
        }
    }

    /// One generated operation: `(kind, block, address class, offset
    /// seed, value)`.
    type Op = (u8, u8, u8, u64, u64);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn global_memory_matches_a_byte_map_model(
            ops in prop::collection::vec((0u8..8, 0u8..2, 0u8..4, any::<u64>(), any::<u64>()), 1..40)
        ) {
            for model in [MemoryModel::SequentiallyConsistent, MemoryModel::KeplerK520] {
                run_against_model(model, &ops);
            }
        }
    }

    fn run_against_model(model: MemoryModel, ops: &[Op]) {
        let mut m = GlobalMemory::new(model);
        let mut r = Model {
            buffered: model.buffered(),
            pending: vec![Vec::new(); 2],
            ..Model::default()
        };
        m.begin_kernel(2);
        for (step, &(kind, block, class, seed, value)) in ops.iter().enumerate() {
            let mapped = (r.next.max(BASE) - BASE).div_ceil(PAGE) * PAGE;
            let addr = match class {
                // Anywhere in the allocated pages, or up to a page past them.
                0 => BASE + seed % (mapped + PAGE),
                // Up to 8 bytes before a page boundary.
                1 => BASE + (1 + seed % (mapped / PAGE + 1)) * PAGE - (seed >> 32) % 9,
                // Just below the first page.
                2 => BASE - 1 - seed % 8,
                // Near the top of the address space.
                _ => u64::MAX - seed % 16,
            };
            let size = [1u8, 2, 4, 8][(value % 4) as usize];
            let block64 = u64::from(block);
            let ctx = format!("{model:?} step {step}: op {kind} addr {addr:#x} size {size}");
            match kind {
                0 => {
                    let bytes = seed % (2 * PAGE);
                    if r.next < BASE + 4 * PAGE {
                        assert_eq!(m.malloc(bytes), r.malloc(bytes), "{ctx}");
                    }
                }
                1 => assert_eq!(
                    m.load(block64, addr, size),
                    r.load(block.into(), addr, size),
                    "{ctx}"
                ),
                2 => assert_eq!(
                    m.store(block64, addr, size, value),
                    r.store(block.into(), addr, size, value),
                    "{ctx}"
                ),
                3 => assert_eq!(
                    m.atomic(block64, addr, size, |v| v.wrapping_add(value)),
                    r.atomic(addr, size, value),
                    "{ctx}"
                ),
                4 => {
                    m.fence(block64, true);
                    r.fence();
                }
                5 => {
                    let len = (value >> 8) % (PAGE + 16);
                    let mut out = vec![0u8; len as usize];
                    let got = m.read_bytes(addr, &mut out).map(|()| out);
                    assert_eq!(got, r.read(addr, len), "{ctx} len {len}");
                }
                _ => {
                    let len = (value >> 8) % (PAGE + 16);
                    let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ (value as u8)).collect();
                    assert_eq!(
                        m.write_bytes(addr, &data),
                        r.write(addr, &data),
                        "{ctx} len {len}"
                    );
                }
            }
        }
        m.end_kernel();
        r.fence();
        let len = r.next.max(BASE) - BASE;
        let mut all = vec![0u8; len as usize];
        m.read_bytes(BASE, &mut all).unwrap();
        assert_eq!(Ok(all), r.read(BASE, len), "{model:?} final contents");
    }

    /// Lane `l`'s address in the warp entry-point test, by class: a pool
    /// of eight words (lanes collide), anywhere with room for the access,
    /// ending exactly at the first page's end, within 40 bytes of either
    /// page's end (fits, straddles, or runs off the last page), below
    /// the first page, past the last page, or at the top of the address
    /// space. `len` is the lane's whole access.
    fn lane_addr(class: u8, seed: u64, len: u64) -> u64 {
        match class {
            0 => BASE + 8 * (seed % 8),
            1 => BASE + seed % (2 * PAGE - 32),
            2 => BASE + PAGE - len,
            3 => BASE + (1 + seed % 2) * PAGE - 1 - (seed >> 8) % 40,
            4 => BASE - 1 - seed % 8,
            5 => BASE + 2 * PAGE + seed % 64,
            _ => u64::MAX - seed % 16,
        }
    }

    /// A warp store then load on `m` as the executor runs them (the
    /// `try_` entry point, else the `store`/`load` loop), against the loop
    /// alone on a clone. The entry points must be taken exactly when the
    /// model is SC and every lane's access fits one of the two mapped
    /// pages, and results, loaded values, pending stores and final bytes
    /// must agree.
    fn check_lane_entry_points(
        mut m: GlobalMemory,
        mask: u32,
        addrs: &[u64; 32],
        size: u8,
        vals: &[[u64; 32]],
    ) {
        let mut want = m.clone();
        let step = u64::from(size);
        let len = step * vals.len() as u64;
        let ctx = format!(
            "mask {mask:#x} size {size} n {} addrs {addrs:x?}",
            vals.len()
        );
        let lanes = || (0..32).filter(|l| mask & (1 << l) != 0);
        let direct = !m.model.buffered()
            && lanes().all(|l| {
                addrs[l]
                    .checked_sub(BASE)
                    .is_some_and(|o| o < 2 * PAGE && o % PAGE + len <= PAGE)
            });
        let store_loop = |g: &mut GlobalMemory| {
            lanes().try_for_each(|l| {
                (0..vals.len())
                    .try_for_each(|i| g.store(0, addrs[l] + i as u64 * step, size, vals[i][l]))
            })
        };
        let load_loop = |g: &GlobalMemory, out: &mut [[u64; 32]]| -> Result<(), SimError> {
            lanes().try_for_each(|l| {
                (0..vals.len()).try_for_each(|i| {
                    out[i][l] = g.load(0, addrs[l] + i as u64 * step, size)?;
                    Ok(())
                })
            })
        };

        let expect = store_loop(&mut want);
        let taken = m.try_store_lanes(mask, addrs, size, vals);
        assert_eq!(taken, direct, "store taken {ctx}");
        let got = if taken { Ok(()) } else { store_loop(&mut m) };
        assert_eq!(got, expect, "store {ctx}");
        assert_eq!(m.pending_stores(), want.pending_stores(), "store {ctx}");

        let mut expect_out = vec![[0u64; 32]; vals.len()];
        let expect = load_loop(&want, &mut expect_out);
        let mut out = vec![[0u64; 32]; vals.len()];
        let taken = m.try_load_lanes(mask, addrs, size, &mut out);
        assert_eq!(taken, direct, "load taken {ctx}");
        let got = if taken {
            Ok(())
        } else {
            load_loop(&m, &mut out)
        };
        assert_eq!((got, out), (expect, expect_out), "load {ctx}");

        m.end_kernel();
        want.end_kernel();
        let mut bytes = vec![0u8; 2 * PAGE as usize];
        let mut want_bytes = bytes.clone();
        m.read_bytes(BASE, &mut bytes).unwrap();
        want.read_bytes(BASE, &mut want_bytes).unwrap();
        assert!(bytes == want_bytes, "final bytes {ctx}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The warp entry points plus the per-lane fallback equal the
        /// per-lane loop under SC (where most warps take the fixed-width
        /// copy) and a buffered model (where none do), with duplicate lane
        /// addresses, page-end fits and straddles, and faulting lanes
        /// anywhere in the mask.
        #[test]
        fn lane_entry_points_match_a_per_lane_loop(
            mask in any::<u32>(),
            spread in 0usize..3,
            classes in prop::collection::vec((0u8..8, any::<u64>()), 32..33),
            log_size in 0u32..4,
            n in 1usize..5,
            seed in any::<u64>(),
            pre in prop::collection::vec((any::<u64>(), any::<u64>()), 0..6),
        ) {
            // Only pool and in-page lanes, then page ends, then everything.
            let limit = [2u8, 4, 8][spread];
            let size = 1u8 << log_size;
            let len = u64::from(size) * n as u64;
            let addrs: [u64; 32] =
                std::array::from_fn(|l| lane_addr(classes[l].0 % limit, classes[l].1, len));
            let vals: Vec<[u64; 32]> = (0..n)
                .map(|i| {
                    std::array::from_fn(|l| {
                        (seed ^ (i * 32 + l) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    })
                })
                .collect();
            for model in [MemoryModel::SequentiallyConsistent, MemoryModel::KeplerK520] {
                let mut m = GlobalMemory::new(model);
                m.malloc(PAGE + PAGE / 2);
                m.begin_kernel(1);
                // Earlier stores to the pool: committed under SC, pending
                // (and forwarded to exact-match loads) under Kepler.
                for &(at, v) in &pre {
                    let size = [1u8, 2, 4, 8][(v % 4) as usize];
                    m.store(0, BASE + 8 * (at % 8), size, v).unwrap();
                }
                check_lane_entry_points(m, mask, &addrs, size, &vals);
            }
        }
    }

    #[test]
    fn byte_level_mixed_sizes() {
        let mut m = GlobalMemory::new(MemoryModel::SequentiallyConsistent);
        let a = m.malloc(8);
        m.begin_kernel(1);
        m.store(0, a, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load(0, a, 1).unwrap(), 0x88);
        assert_eq!(m.load(0, a + 7, 1).unwrap(), 0x11);
        assert_eq!(m.load(0, a + 4, 4).unwrap(), 0x1122_3344);
    }
}
