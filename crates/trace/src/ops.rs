//! Trace operations at the granularity the implementation logs them.
//!
//! The paper models an execution as a sequence of *thread-level* operations
//! (`rd`, `wr`, `atm`, acquires/releases) punctuated by *warp-level*
//! operations (`endi`, `if`, `else`, `fi`) and *block-level* barriers
//! (§3.1). For efficiency the implementation logs one record per warp
//! instruction (§4.2); [`Event`] is the decoded form of such a record, and
//! the detector reads it directly: an `Access` stands for one thread-level
//! op per active lane followed by `endi`. [`HostOp`] is a host-side
//! operation the engine records itself when a host API call is intercepted.

/// Which memory space an access touched. Local memory is thread-private
/// and never logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemSpace {
    Global,
    /// Shared memory; addresses are offsets within the owning block's
    /// shared segment (the block is implied by the accessing warp).
    Shared,
}

/// Synchronization scope of an acquire/release, set by the fence kind:
/// `membar.cta` → block, `membar.gl`/`membar.sys` → global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Scope {
    Block,
    Global,
}

/// The access flavour of a warp-level memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // plain kinds are self-describing
pub enum AccessKind {
    Read,
    Write,
    /// Standalone atomic (`atm`).
    Atomic,
    /// Load + following fence (`acqBlk`/`acqGlb`).
    Acquire(Scope),
    /// Fence + following store (`relBlk`/`relGlb`).
    Release(Scope),
    /// Fenced atomic (`arBlk`/`arGlb`).
    AcquireRelease(Scope),
}

impl AccessKind {
    /// True if this access can race as a write.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }

    /// True for synchronization accesses (acquire/release flavours).
    pub fn is_sync(self) -> bool {
        matches!(
            self,
            AccessKind::Acquire(_) | AccessKind::Release(_) | AccessKind::AcquireRelease(_)
        )
    }
}

/// A host-side operation on a device-lifetime trace. These never travel
/// through the 272-byte device record format (their [`RecordKind`] space
/// is pinned by the decoder tests); they are produced directly by the
/// host API shims — `cudaMemcpy`, launch calls and synchronization — and
/// consumed by the persistent engine to build host↔device happens-before
/// edges.
///
/// [`RecordKind`]: crate::record::RecordKind
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    /// Host-to-device copy: a host *write* of device memory, stream-ordered
    /// on `stream` and blocking the host thread.
    MemcpyH2D {
        /// Stream the copy is ordered on.
        stream: u32,
        /// Destination device address.
        dst: u64,
        /// Copy length in bytes.
        len: u64,
    },
    /// Device-to-host copy: a host *read* of device memory.
    MemcpyD2H {
        /// Stream the copy is ordered on.
        stream: u32,
        /// Source device address.
        src: u64,
        /// Copy length in bytes.
        len: u64,
    },
    /// An asynchronous kernel launch on `stream`, assigned launch `epoch`
    /// by the engine.
    LaunchKernel {
        /// Stream the launch is ordered on.
        stream: u32,
        /// Launch epoch assigned by the engine's registry.
        epoch: u32,
    },
    /// `cudaStreamSynchronize`: the host waits for every operation
    /// previously enqueued on `stream`.
    StreamSynchronize {
        /// The synchronized stream.
        stream: u32,
    },
    /// `cudaDeviceSynchronize`: the host waits for every stream.
    DeviceSynchronize,
}

/// A warp-level event: the logical content of one 272-byte log record.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants are self-describing
#[allow(clippy::large_enum_variant)] // Access mirrors the 272-byte record
pub enum Event {
    /// A warp memory instruction: every active lane accessed `addrs[lane]`.
    Access {
        warp: u64,
        kind: AccessKind,
        space: MemSpace,
        /// Active-lane mask; only lanes with a set bit have valid addresses.
        mask: u32,
        /// Per-lane byte addresses.
        addrs: [u64; 32],
        /// Access width in bytes (1, 2, 4 or 8).
        size: u8,
    },
    /// Warp executed a conditional branch; the active set split into the
    /// then-path and else-path masks (either may be empty).
    If {
        warp: u64,
        then_mask: u32,
        else_mask: u32,
    },
    /// Warp switched to the else path of the innermost open branch.
    Else { warp: u64 },
    /// Warp reconverged at the end of the innermost open branch.
    Fi { warp: u64 },
    /// Warp arrived at a block-wide barrier (`bar.sync`) with `mask` active.
    Bar { warp: u64, mask: u32 },
    /// Warp finished kernel execution with `mask` lanes still live.
    Exit { warp: u64, mask: u32 },
}

impl Event {
    /// The global warp this event belongs to.
    pub fn warp(&self) -> u64 {
        match *self {
            Event::Access { warp, .. }
            | Event::If { warp, .. }
            | Event::Else { warp }
            | Event::Fi { warp }
            | Event::Bar { warp, .. }
            | Event::Exit { warp, .. } => warp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_queries() {
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::Atomic.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Acquire(Scope::Block).is_sync());
        assert!(!AccessKind::Atomic.is_sync());
    }
}
