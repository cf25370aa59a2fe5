use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::sanitize::{SanitizerKind, ShadowState};
use crate::{Device, SimError};

/// Handle to a device-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub(crate) usize);

/// Deterministic garbage filled into [`DeviceMem::alloc_uninit`] buffers,
/// so a kernel that consumes an uninitialized word without the sanitizer
/// on still gets a reproducible (and conspicuous) value.
const UNINIT_PATTERN: u32 = 0xDEAD_BEEF;

/// The read-modify-write operations the atomics apply, in global and
/// shared memory alike.
#[derive(Clone, Copy)]
pub(crate) enum Rmw {
    Add(u32),
    Or(u32),
    And(u32),
}

impl Rmw {
    /// The word after applying this operation to `old` (wrapping add).
    #[inline]
    pub(crate) fn apply(self, old: u32) -> u32 {
        match self {
            Rmw::Add(v) => old.wrapping_add(v),
            Rmw::Or(v) => old | v,
            Rmw::And(v) => old & v,
        }
    }
}

pub(crate) struct Buffer {
    /// Byte address of the first word in the flat device address space.
    base: u64,
    /// Words charged against device capacity: the requested length rounded
    /// up to the 256-byte allocation granularity, like `cudaMalloc`.
    padded_words: u64,
    data: Vec<AtomicU32>,
    name: String,
    /// Set by [`DeviceMem::free`]; the slot is retired for good so stale
    /// handles are caught even after the extent is reused.
    freed: bool,
    /// SimSan per-word init shadow: `None` means every word is `Init`
    /// (zeroed / copied-from-host buffers), `Some` tracks which words of
    /// an [`DeviceMem::alloc_uninit`] buffer have been written. Promotion
    /// to init happens on every store/RMW/fill, sanitizer on or off, so
    /// a later sanitized launch never false-positives on earlier writes.
    shadow: Option<Vec<AtomicBool>>,
}

/// The lane-facing word accessors and the checker's probes live on
/// `Buffer` rather than [`DeviceMem`] so the record path can resolve a
/// [`BufId`] to its buffer once (`DeviceMem::buffer`) and keep the
/// reference in a per-lane cache — consecutive accesses to the same
/// buffer, which is the overwhelmingly common pattern in a scan or
/// probe loop, then skip the buffer-table chase entirely, and a checked
/// access resolves its buffer once for every analysis. Only tests go
/// through the handle-keyed `DeviceMem` wrappers.
impl Buffer {
    #[inline]
    fn mark_init(&self, idx: usize) {
        if let Some(shadow) = &self.shadow {
            if let Some(s) = shadow.get(idx) {
                s.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Out-of-bounds error construction, outlined and cold: the fault
    /// path allocates (it clones the buffer name), and keeping that code
    /// out of the inlined accessors is worth several percent on the
    /// record side of a sweep.
    #[cold]
    #[inline(never)]
    fn oob(&self, idx: usize) -> SimError {
        SimError::MemoryFault {
            buffer: self.name.clone(),
            index: idx,
            len: self.data.len(),
        }
    }

    /// Debug name of the buffer.
    #[inline]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    pub(crate) fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx as u64) * 4
    }

    /// The word at `idx`, or `None` out of bounds.
    #[inline]
    pub(crate) fn word(&self, idx: usize) -> Option<&AtomicU32> {
        self.data.get(idx)
    }

    #[inline]
    fn try_word(&self, idx: usize) -> Result<&AtomicU32, SimError> {
        self.word(idx).ok_or_else(|| self.oob(idx))
    }

    /// SimSan probe: where `idx` sits in the shadow lattice.
    #[inline]
    pub(crate) fn shadow_state(&self, idx: usize) -> ShadowState {
        if self.freed {
            return ShadowState::Freed;
        }
        if idx < self.data.len() {
            return match &self.shadow {
                None => ShadowState::Init,
                Some(shadow) => {
                    if shadow[idx].load(Ordering::Relaxed) {
                        ShadowState::Init
                    } else {
                        ShadowState::Uninit
                    }
                }
            };
        }
        if (idx as u64) < self.padded_words {
            ShadowState::Redzone
        } else {
            ShadowState::OutOfBounds
        }
    }

    /// Load a word and return it together with its flat device address.
    /// One bounds check and no table lookup — this sits on the hottest
    /// path of the simulator (every `ld_global` of every lane).
    #[inline]
    pub(crate) fn try_load_addr(&self, idx: usize) -> Result<(u32, u64), SimError> {
        match self.data.get(idx) {
            Some(w) => Ok((w.load(Ordering::Relaxed), self.addr_of(idx))),
            None => Err(self.oob(idx)),
        }
    }

    #[inline]
    pub(crate) fn try_store(&self, idx: usize, val: u32) -> Result<(), SimError> {
        self.try_word(idx)?.store(val, Ordering::Relaxed);
        self.mark_init(idx);
        Ok(())
    }

    /// Apply one atomic read-modify-write and return the previous word.
    #[inline]
    pub(crate) fn try_rmw(&self, idx: usize, op: Rmw) -> Result<u32, SimError> {
        let w = self.try_word(idx)?;
        let old = match op {
            Rmw::Add(v) => w.fetch_add(v, Ordering::Relaxed),
            Rmw::Or(v) => w.fetch_or(v, Ordering::Relaxed),
            Rmw::And(v) => w.fetch_and(v, Ordering::Relaxed),
        };
        self.mark_init(idx);
        Ok(old)
    }
}

/// The device's global-memory address space.
///
/// All words are `AtomicU32` so that blocks executing in parallel (on
/// rayon workers) can load, store and RMW concurrently, just like CUDA
/// thread blocks. Capacity is bounded by the owning [`Device`]'s
/// configuration; exceeding it yields [`SimError::OutOfMemory`], which is
/// how several published implementations fail on the largest graphs.
pub struct DeviceMem {
    buffers: Vec<Buffer>,
    capacity_words: u64,
    allocated_words: u64,
    next_base: u64,
    /// Freed address-space extents `(base_bytes, size_bytes)`, sorted by
    /// base and coalesced; allocations reuse them first-fit before
    /// bumping `next_base`.
    free_extents: Vec<(u64, u64)>,
}

/// Buffers are aligned to 256 bytes like `cudaMalloc` allocations, so a
/// buffer's element 0 always starts a fresh sector.
const ALLOC_ALIGN: u64 = 256;

impl DeviceMem {
    pub fn new(device: &Device) -> Self {
        DeviceMem {
            buffers: Vec::new(),
            capacity_words: device.global_mem_words,
            allocated_words: 0,
            next_base: 0,
            free_extents: Vec::new(),
        }
    }

    /// Words still available for allocation.
    pub fn available_words(&self) -> u64 {
        self.capacity_words - self.allocated_words
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> u64 {
        self.allocated_words
    }

    fn alloc_inner(&mut self, len: usize, name: &str) -> Result<BufId, SimError> {
        let words = len as u64;
        // Like `cudaMalloc`, every allocation occupies a 256-byte-aligned
        // extent, and the alignment padding counts against capacity too.
        let padded_bytes = (words * 4).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let padded_words = padded_bytes / 4;
        if padded_words > self.available_words() {
            return Err(SimError::OutOfMemory {
                what: name.to_string(),
                requested_words: words,
                available_words: self.available_words(),
            });
        }
        // First-fit into a freed extent, else bump the high-water mark.
        let base = match self
            .free_extents
            .iter()
            .position(|&(_, size)| size >= padded_bytes)
        {
            Some(i) => {
                let (ext_base, ext_size) = self.free_extents[i];
                if ext_size == padded_bytes {
                    self.free_extents.remove(i);
                } else {
                    self.free_extents[i] = (ext_base + padded_bytes, ext_size - padded_bytes);
                }
                ext_base
            }
            None => {
                let base = self.next_base;
                self.next_base = base + padded_bytes;
                base
            }
        };
        self.allocated_words += padded_words;
        self.buffers.push(Buffer {
            base,
            padded_words,
            data: Vec::new(),
            name: name.to_string(),
            freed: false,
            shadow: None,
        });
        Ok(BufId(self.buffers.len() - 1))
    }

    /// Allocate and copy a host slice to the device. Every word is
    /// host-defined, so the buffer is born fully `Init` for SimSan.
    pub fn alloc_from_slice(&mut self, data: &[u32], name: &str) -> Result<BufId, SimError> {
        let id = self.alloc_inner(data.len(), name)?;
        self.buffers[id.0].data = data.iter().map(|&w| AtomicU32::new(w)).collect();
        Ok(id)
    }

    /// Allocate a zero-filled buffer (`cudaMalloc` + `cudaMemset(0)`):
    /// fully `Init` for SimSan.
    pub fn alloc_zeroed(&mut self, len: usize, name: &str) -> Result<BufId, SimError> {
        let id = self.alloc_inner(len, name)?;
        self.buffers[id.0].data = (0..len).map(|_| AtomicU32::new(0)).collect();
        Ok(id)
    }

    /// Allocate without initializing — the honest `cudaMalloc` analog.
    /// Words hold a deterministic garbage pattern and are born `Uninit`
    /// in the SimSan shadow: a sanitized launch that reads one before
    /// any store reports [`SimError::Sanitizer`] with
    /// [`SanitizerKind::UninitRead`].
    pub fn alloc_uninit(&mut self, len: usize, name: &str) -> Result<BufId, SimError> {
        let id = self.alloc_inner(len, name)?;
        let buf = &mut self.buffers[id.0];
        buf.data = (0..len).map(|_| AtomicU32::new(UNINIT_PATTERN)).collect();
        buf.shadow = Some((0..len).map(|_| AtomicBool::new(false)).collect());
        Ok(id)
    }

    /// Free a buffer: capacity, contents *and* address space are all
    /// reclaimed (the extent returns to the free list, coalescing with
    /// neighbours, so a later allocation can reuse it). The handle (and
    /// any copy of it) must not be used afterwards; the slot keeps its
    /// base address so stale handles fail loudly on access.
    ///
    /// Freeing the same handle twice is refused with
    /// [`SimError::Sanitizer`] ([`SanitizerKind::DoubleFree`]) — before
    /// this check, a second free would re-push the extent onto the free
    /// list and under-count `allocated_words`, corrupting the allocator.
    /// This check is always on; it guards the harness's own accounting.
    pub fn free(&mut self, id: BufId) -> Result<(), SimError> {
        let buf = &mut self.buffers[id.0];
        if buf.freed {
            return Err(SimError::Sanitizer {
                kind: SanitizerKind::DoubleFree,
                buffer: buf.name.clone(),
                word: 0,
                lane: None,
                pc_hint: "host free".to_string(),
            });
        }
        let (mut base, mut size) = (buf.base, buf.padded_words * 4);
        self.allocated_words -= buf.padded_words;
        buf.padded_words = 0;
        buf.data = Vec::new();
        buf.shadow = None;
        buf.freed = true;
        buf.name.push_str(" (freed)");
        // Insert sorted by base, merging with the previous and next
        // extents when they touch.
        let at = self.free_extents.partition_point(|&(b, _)| b < base);
        if at < self.free_extents.len() && base + size == self.free_extents[at].0 {
            size += self.free_extents[at].1;
            self.free_extents.remove(at);
        }
        if at > 0 {
            let (pb, ps) = self.free_extents[at - 1];
            if pb + ps == base {
                base = pb;
                size += ps;
                self.free_extents.remove(at - 1);
            }
        }
        if base + size == self.next_base {
            // The extent touches the high-water mark: give the address
            // space back to the bump allocator instead.
            self.next_base = base;
        } else {
            let at = self.free_extents.partition_point(|&(b, _)| b < base);
            self.free_extents.insert(at, (base, size));
        }
        Ok(())
    }

    /// Copy a buffer back to the host. Copy-back from a freed buffer is a
    /// harness bug and panics (use [`DeviceMem::try_read_back`] to get a
    /// structured error instead).
    pub fn read_back(&self, id: BufId) -> Vec<u32> {
        match self.try_read_back(id) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible copy-back: a freed buffer yields [`SimError::Sanitizer`]
    /// with [`SanitizerKind::UseAfterFree`] (the dangling-`cudaMemcpy`
    /// case) instead of silently returning another buffer's bytes or an
    /// empty vector.
    pub fn try_read_back(&self, id: BufId) -> Result<Vec<u32>, SimError> {
        let buf = &self.buffers[id.0];
        if buf.freed {
            return Err(SimError::Sanitizer {
                kind: SanitizerKind::UseAfterFree,
                buffer: buf.name.clone(),
                word: 0,
                lane: None,
                pc_hint: "host copy-back".to_string(),
            });
        }
        Ok(buf.data.iter().map(|w| w.load(Ordering::Relaxed)).collect())
    }

    /// End-of-run leak check: every buffer must have been freed. Returns
    /// [`SimError::Sanitizer`] with [`SanitizerKind::Leak`] naming the
    /// still-live buffers otherwise. Like double-free detection this is
    /// not gated on the device's sanitizer switch — the conformance
    /// harness calls it after every algorithm run.
    pub fn leak_check(&self) -> Result<(), SimError> {
        if self.allocated_words == 0 {
            return Ok(());
        }
        let live: Vec<&str> = self
            .buffers
            .iter()
            .filter(|b| !b.freed)
            .map(|b| b.name.as_str())
            .collect();
        Err(SimError::Sanitizer {
            kind: SanitizerKind::Leak,
            buffer: live.join(", "),
            word: self.allocated_words as usize,
            lane: None,
            pc_hint: "end-of-run leak check".to_string(),
        })
    }

    /// Number of words in a buffer.
    pub fn len(&self, id: BufId) -> usize {
        self.buffers[id.0].data.len()
    }

    /// Whether the buffer has zero words.
    pub fn is_empty(&self, id: BufId) -> bool {
        self.buffers[id.0].data.is_empty()
    }

    /// Host-side fill (no traffic counted) — the CUDA `cudaMemset`
    /// analog. Defines every word, so the whole buffer becomes `Init`.
    pub fn fill(&self, id: BufId, value: u32) {
        let buf = &self.buffers[id.0];
        for w in &buf.data {
            w.store(value, Ordering::Relaxed);
        }
        if let Some(shadow) = &buf.shadow {
            for s in shadow {
                s.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Debug name of the buffer.
    pub fn name(&self, id: BufId) -> &str {
        &self.buffers[id.0].name
    }

    /// Reverse lookup for diagnostics: which live buffer (and word index
    /// within it) owns a flat byte address. Only the *data* extent
    /// counts — redzone padding and freed extents resolve to `None`, so
    /// a diagnostic never names a buffer the address isn't really in.
    pub(crate) fn locate(&self, addr: u64) -> Option<(&str, usize)> {
        self.buffers.iter().find_map(|b| {
            if b.freed {
                return None;
            }
            let end = b.base + (b.data.len() as u64) * 4;
            if addr >= b.base && addr < end {
                Some((b.name.as_str(), ((addr - b.base) / 4) as usize))
            } else {
                None
            }
        })
    }

    /// Resolve a handle to its buffer. The record path caches the
    /// returned reference per lane (sound: every lane holds `&DeviceMem`
    /// for the whole launch, so the buffer table cannot change under it).
    #[inline]
    pub(crate) fn buffer(&self, id: BufId) -> &Buffer {
        &self.buffers[id.0]
    }

    /// Host-side word access: out of bounds is a harness bug, so it
    /// panics (like dereferencing a bad host pointer). Kernel lanes go
    /// through the fallible `try_*` accessors instead.
    #[cfg(test)]
    #[inline]
    pub(crate) fn word(&self, id: BufId, idx: usize) -> &AtomicU32 {
        let buf = &self.buffers[id.0];
        match buf.data.get(idx) {
            Some(w) => w,
            None => panic!(
                "device memory fault: `{}`[{idx}] out of bounds (len {})",
                buf.name,
                buf.data.len()
            ),
        }
    }

    // Handle-keyed convenience wrappers for the buffer accessors above;
    // the lane path resolves the handle once via [`DeviceMem::buffer`]
    // instead, so only tests go through these.

    #[cfg(test)]
    #[inline]
    pub(crate) fn addr_of(&self, id: BufId, idx: usize) -> u64 {
        self.buffers[id.0].addr_of(idx)
    }

    #[cfg(test)]
    #[inline]
    pub(crate) fn shadow_state(&self, id: BufId, idx: usize) -> ShadowState {
        self.buffers[id.0].shadow_state(idx)
    }

    #[cfg(test)]
    #[inline]
    pub(crate) fn try_store(&self, id: BufId, idx: usize, val: u32) -> Result<(), SimError> {
        self.buffers[id.0].try_store(idx, val)
    }

    #[cfg(test)]
    #[inline]
    pub(crate) fn try_rmw(&self, id: BufId, idx: usize, op: Rmw) -> Result<u32, SimError> {
        self.buffers[id.0].try_rmw(idx, op)
    }

    #[cfg(test)]
    #[inline]
    pub(crate) fn load(&self, id: BufId, idx: usize) -> u32 {
        self.word(id, idx).load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    fn small_device() -> Device {
        Device::with_memory_words(1024)
    }

    #[test]
    fn alloc_and_read_back() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_from_slice(&[7, 8, 9], "t").unwrap();
        assert_eq!(mem.read_back(b), vec![7, 8, 9]);
        assert_eq!(mem.len(b), 3);
        assert!(!mem.is_empty(b));
        assert_eq!(mem.name(b), "t");
    }

    #[test]
    fn capacity_enforced() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        // 1000 words pad to a 4096-byte extent = all 1024 words of the
        // device; alignment padding counts against capacity like it does
        // for `cudaMalloc`.
        mem.alloc_zeroed(1000, "big").unwrap();
        let err = mem.alloc_zeroed(100, "overflow").unwrap_err();
        match err {
            SimError::OutOfMemory {
                requested_words,
                available_words,
                ..
            } => {
                assert_eq!(requested_words, 100);
                assert_eq!(available_words, 0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn alignment_padding_charged() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        // A 1-word buffer still occupies a 256-byte extent (64 words).
        mem.alloc_zeroed(1, "tiny").unwrap();
        assert_eq!(mem.allocated_words(), 64);
        assert_eq!(mem.available_words(), 1024 - 64);
    }

    #[test]
    fn free_returns_capacity() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_zeroed(1000, "big").unwrap();
        mem.free(b).unwrap();
        assert_eq!(mem.allocated_words(), 0);
        mem.alloc_zeroed(1000, "again").unwrap();
    }

    #[test]
    fn double_free_is_refused_and_accounting_survives() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_zeroed(64, "scratch").unwrap();
        mem.free(b).unwrap();
        let err = mem.free(b).unwrap_err();
        match err {
            SimError::Sanitizer {
                kind, buffer, lane, ..
            } => {
                assert_eq!(kind, SanitizerKind::DoubleFree);
                assert_eq!(buffer, "scratch (freed)");
                assert_eq!(lane, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The failed second free must not have corrupted the books: the
        // whole device is still allocatable exactly once.
        assert_eq!(mem.allocated_words(), 0);
        mem.alloc_zeroed(1000, "all").unwrap();
        assert!(mem.alloc_zeroed(64, "over").is_err());
    }

    #[test]
    fn freed_marker_does_not_grow_across_reuse_cycles() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_zeroed(64, "cyc").unwrap();
        mem.free(b).unwrap();
        for _ in 0..10 {
            assert!(mem.free(b).is_err());
        }
        assert_eq!(mem.name(b), "cyc (freed)");
    }

    #[test]
    fn uninit_alloc_carries_shadow_and_writes_promote() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_uninit(4, "raw").unwrap();
        assert_eq!(mem.read_back(b), vec![UNINIT_PATTERN; 4]);
        assert_eq!(mem.shadow_state(b, 0), ShadowState::Uninit);
        mem.try_store(b, 0, 7).unwrap();
        assert_eq!(mem.shadow_state(b, 0), ShadowState::Init);
        assert_eq!(mem.shadow_state(b, 1), ShadowState::Uninit);
        mem.try_rmw(b, 1, Rmw::Add(1)).unwrap();
        assert_eq!(mem.shadow_state(b, 1), ShadowState::Init);
        mem.fill(b, 0);
        assert_eq!(mem.shadow_state(b, 3), ShadowState::Init);
    }

    #[test]
    fn shadow_states_cover_redzone_freed_and_oob() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        // 4 words pad to a 64-word extent: [4, 64) is redzone.
        let b = mem.alloc_zeroed(4, "z").unwrap();
        assert_eq!(mem.shadow_state(b, 3), ShadowState::Init);
        assert_eq!(mem.shadow_state(b, 4), ShadowState::Redzone);
        assert_eq!(mem.shadow_state(b, 63), ShadowState::Redzone);
        assert_eq!(mem.shadow_state(b, 64), ShadowState::OutOfBounds);
        mem.free(b).unwrap();
        assert_eq!(mem.shadow_state(b, 0), ShadowState::Freed);
        assert_eq!(mem.shadow_state(b, 999), ShadowState::Freed);
    }

    #[test]
    fn copy_back_from_freed_buffer_is_caught() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_zeroed(4, "gone").unwrap();
        mem.free(b).unwrap();
        let err = mem.try_read_back(b).unwrap_err();
        assert!(matches!(
            err,
            SimError::Sanitizer {
                kind: SanitizerKind::UseAfterFree,
                lane: None,
                ..
            }
        ));
    }

    #[test]
    fn leak_check_names_live_buffers() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        assert!(mem.leak_check().is_ok());
        let a = mem.alloc_zeroed(4, "kept").unwrap();
        let b = mem.alloc_zeroed(4, "dropped").unwrap();
        mem.free(b).unwrap();
        let err = mem.leak_check().unwrap_err();
        match err {
            SimError::Sanitizer {
                kind, buffer, word, ..
            } => {
                assert_eq!(kind, SanitizerKind::Leak);
                assert_eq!(buffer, "kept");
                assert_eq!(word, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        mem.free(a).unwrap();
        assert!(mem.leak_check().is_ok());
    }

    #[test]
    fn free_reclaims_address_space() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        // Regression: repeated alloc/free cycles used to leak address
        // space (the bump pointer only ever grew), so a fresh allocation
        // after a free landed at an ever-higher base.
        let a = mem.alloc_zeroed(512, "a").unwrap();
        let base_a = mem.addr_of(a, 0);
        mem.free(a).unwrap();
        for round in 0..100 {
            let b = mem.alloc_zeroed(512, "b").unwrap();
            assert_eq!(
                mem.addr_of(b, 0),
                base_a,
                "round {round}: freed extent not reused"
            );
            mem.free(b).unwrap();
        }
    }

    #[test]
    fn freed_neighbours_coalesce() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let a = mem.alloc_zeroed(64, "a").unwrap();
        let b = mem.alloc_zeroed(64, "b").unwrap();
        let c = mem.alloc_zeroed(64, "c").unwrap();
        let base_a = mem.addr_of(a, 0);
        let base_c = mem.addr_of(c, 0);
        // Free a and b in either order: their extents merge, so a single
        // 128-word allocation fits where two 64-word buffers were.
        mem.free(a).unwrap();
        mem.free(b).unwrap();
        let big = mem.alloc_zeroed(128, "big").unwrap();
        assert_eq!(mem.addr_of(big, 0), base_a);
        // c is still live and untouched.
        assert_eq!(mem.addr_of(c, 0), base_c);
        assert_eq!(mem.read_back(c), vec![0; 64]);
    }

    #[test]
    fn freeing_top_extent_rewinds_bump_pointer() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let a = mem.alloc_zeroed(64, "a").unwrap();
        let b = mem.alloc_zeroed(64, "b").unwrap();
        mem.free(b).unwrap();
        // b was the topmost extent, so its space rejoins the bump region
        // and the next same-size allocation lands exactly where b was.
        let b2 = mem.alloc_zeroed(64, "b2").unwrap();
        assert_eq!(mem.addr_of(b2, 0), mem.addr_of(a, 0) + 256);
    }

    #[test]
    fn buffers_start_sector_aligned() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let a = mem.alloc_from_slice(&[1], "a").unwrap();
        let b = mem.alloc_from_slice(&[2], "b").unwrap();
        assert_eq!(mem.addr_of(a, 0) % ALLOC_ALIGN, 0);
        assert_eq!(mem.addr_of(b, 0) % ALLOC_ALIGN, 0);
        assert_ne!(mem.addr_of(a, 0), mem.addr_of(b, 0));
    }

    #[test]
    fn locate_resolves_data_words_but_not_redzone_or_freed() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let a = mem.alloc_zeroed(4, "a").unwrap();
        let b = mem.alloc_zeroed(4, "b").unwrap();
        assert_eq!(mem.locate(mem.addr_of(a, 0)), Some(("a", 0)));
        assert_eq!(mem.locate(mem.addr_of(a, 3) + 2), Some(("a", 3)));
        assert_eq!(mem.locate(mem.addr_of(b, 1)), Some(("b", 1)));
        // Redzone (words [4, 64) of the padded extent) is nobody's data.
        assert_eq!(mem.locate(mem.addr_of(a, 0) + 4 * 4), None);
        mem.free(a).unwrap();
        assert_eq!(mem.locate(0), None);
        // A reused extent resolves to the new owner, not the freed one.
        let c = mem.alloc_zeroed(4, "c").unwrap();
        assert_eq!(mem.locate(mem.addr_of(c, 0)), Some(("c", 0)));
    }

    #[test]
    fn fill_overwrites_all_words() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_from_slice(&[1, 2, 3], "t").unwrap();
        mem.fill(b, 9);
        assert_eq!(mem.read_back(b), vec![9, 9, 9]);
    }

    #[test]
    fn atomics_behave() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_zeroed(2, "t").unwrap();
        assert_eq!(mem.try_rmw(b, 0, Rmw::Add(5)).unwrap(), 0);
        assert_eq!(mem.try_rmw(b, 0, Rmw::Add(5)).unwrap(), 5);
        assert_eq!(mem.load(b, 0), 10);
        assert_eq!(mem.try_rmw(b, 1, Rmw::Or(0b10)).unwrap(), 0);
        assert_eq!(mem.try_rmw(b, 1, Rmw::And(0b10)).unwrap(), 0b10);
        assert_eq!(mem.try_rmw(b, 1, Rmw::And(0b01)).unwrap(), 0b10);
        assert_eq!(mem.load(b, 1), 0);
        assert!(mem.try_rmw(b, 2, Rmw::Add(1)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        let dev = small_device();
        let mut mem = DeviceMem::new(&dev);
        let b = mem.alloc_zeroed(2, "t").unwrap();
        mem.load(b, 2);
    }
}
