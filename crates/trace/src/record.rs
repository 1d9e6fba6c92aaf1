//! The fixed-size log record of paper §4.2.
//!
//! > "Each record contains fields identifying the warp, the operation, a
//! > 32-bit mask of active threads, and 32 entries for the addresses
//! > accessed by each thread in the warp (for memory operations). Records
//! > are a fixed 16 + 8 × 32 = 272 bytes in size."

use crate::ops::{AccessKind, Event, MemSpace, Scope};

/// Operation discriminant stored in a [`Record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // variants are self-describing
pub enum RecordKind {
    Read = 0,
    Write = 1,
    Atomic = 2,
    AcqBlk = 3,
    RelBlk = 4,
    AcqRelBlk = 5,
    AcqGlb = 6,
    RelGlb = 7,
    AcqRelGlb = 8,
    If = 9,
    Else = 10,
    Fi = 11,
    Bar = 12,
    Exit = 13,
}

/// A warp-level log record: the paper's 272 bytes, a 16-byte header and
/// 32 × 8-byte address slots. Branch records reuse address slot 0 to
/// carry the else-path mask.
#[derive(Clone, Copy)]
#[repr(C)]
#[derive(Default)]
pub struct Record {
    /// Global warp id.
    pub warp: u64,
    /// Operation kind (a [`RecordKind`] as `u8`).
    pub kind: u8,
    /// Memory space (0 = global, 1 = shared); meaningful for accesses only.
    pub space: u8,
    /// Access width in bytes; meaningful for accesses only.
    pub size: u8,
    /// Co-resident launch slot: which kernel of an interleaved launch
    /// group emitted this record. Zero for eager (single-kernel) runs, so
    /// the classic pipeline never looks at it. Stamped device-side by the
    /// group scheduler's per-slot sink wrapper; groups are capped at 255
    /// launches so the slot always fits.
    pub slot: u8,
    /// Active-lane mask.
    pub mask: u32,
    /// Per-lane addresses for memory operations.
    pub addrs: [u64; 32],
}

impl std::fmt::Debug for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Record")
            .field("warp", &self.warp)
            .field("kind", &self.kind)
            .field("space", &self.space)
            .field("size", &self.size)
            .field("slot", &self.slot)
            .field("mask", &format_args!("{:#x}", self.mask))
            .finish_non_exhaustive()
    }
}

const _: () = assert!(
    std::mem::size_of::<Record>() == 272,
    "record must be the paper's 16 + 8*32 bytes"
);

impl Record {
    /// Encodes a warp-level [`Event`] as a record.
    pub fn encode(event: &Event) -> Record {
        let mut r = Record::default();
        match *event {
            Event::Access {
                warp,
                kind,
                space,
                mask,
                addrs,
                size,
            } => {
                r.warp = warp;
                r.kind = match kind {
                    AccessKind::Read => RecordKind::Read,
                    AccessKind::Write => RecordKind::Write,
                    AccessKind::Atomic => RecordKind::Atomic,
                    AccessKind::Acquire(Scope::Block) => RecordKind::AcqBlk,
                    AccessKind::Release(Scope::Block) => RecordKind::RelBlk,
                    AccessKind::AcquireRelease(Scope::Block) => RecordKind::AcqRelBlk,
                    AccessKind::Acquire(Scope::Global) => RecordKind::AcqGlb,
                    AccessKind::Release(Scope::Global) => RecordKind::RelGlb,
                    AccessKind::AcquireRelease(Scope::Global) => RecordKind::AcqRelGlb,
                } as u8;
                r.space = match space {
                    MemSpace::Global => 0,
                    MemSpace::Shared => 1,
                };
                r.size = size;
                r.mask = mask;
                r.addrs = addrs;
            }
            Event::If {
                warp,
                then_mask,
                else_mask,
            } => {
                r.warp = warp;
                r.kind = RecordKind::If as u8;
                r.mask = then_mask;
                r.addrs[0] = u64::from(else_mask);
            }
            Event::Else { warp } => {
                r.warp = warp;
                r.kind = RecordKind::Else as u8;
            }
            Event::Fi { warp } => {
                r.warp = warp;
                r.kind = RecordKind::Fi as u8;
            }
            Event::Bar { warp, mask } => {
                r.warp = warp;
                r.kind = RecordKind::Bar as u8;
                r.mask = mask;
            }
            Event::Exit { warp, mask } => {
                r.warp = warp;
                r.kind = RecordKind::Exit as u8;
                r.mask = mask;
            }
        }
        r
    }

    /// True for synchronization records on *global* memory — the records
    /// whose effect on the detector's shared synchronization-location map
    /// is order-sensitive across queues and must go through a
    /// [`SyncOrder`](crate::SyncOrder) ticket. Shared-memory
    /// synchronization is per-block (one queue) and needs no ordering.
    pub fn is_global_sync(&self) -> bool {
        self.space == 0
            && self.kind >= RecordKind::AcqBlk as u8
            && self.kind <= RecordKind::AcqRelGlb as u8
    }

    /// Decodes a record back to an [`Event`], or `None` when the kind
    /// byte is not one [`Record::encode`] produces (a corrupted record).
    /// Fault-tolerant consumers use this to skip and count damaged
    /// records instead of crashing.
    pub fn try_decode(&self) -> Option<Event> {
        if self.kind <= RecordKind::Exit as u8 {
            Some(self.decode())
        } else {
            None
        }
    }

    /// Decodes a record back to an [`Event`].
    ///
    /// # Panics
    ///
    /// Panics on a corrupted kind byte (records are produced only by
    /// [`Record::encode`]); see [`Record::try_decode`] for the tolerant
    /// variant.
    pub fn decode(&self) -> Event {
        let access = |kind: AccessKind| Event::Access {
            warp: self.warp,
            kind,
            space: if self.space == 0 {
                MemSpace::Global
            } else {
                MemSpace::Shared
            },
            mask: self.mask,
            addrs: self.addrs,
            size: self.size,
        };
        match self.kind {
            k if k == RecordKind::Read as u8 => access(AccessKind::Read),
            k if k == RecordKind::Write as u8 => access(AccessKind::Write),
            k if k == RecordKind::Atomic as u8 => access(AccessKind::Atomic),
            k if k == RecordKind::AcqBlk as u8 => access(AccessKind::Acquire(Scope::Block)),
            k if k == RecordKind::RelBlk as u8 => access(AccessKind::Release(Scope::Block)),
            k if k == RecordKind::AcqRelBlk as u8 => {
                access(AccessKind::AcquireRelease(Scope::Block))
            }
            k if k == RecordKind::AcqGlb as u8 => access(AccessKind::Acquire(Scope::Global)),
            k if k == RecordKind::RelGlb as u8 => access(AccessKind::Release(Scope::Global)),
            k if k == RecordKind::AcqRelGlb as u8 => {
                access(AccessKind::AcquireRelease(Scope::Global))
            }
            k if k == RecordKind::If as u8 => Event::If {
                warp: self.warp,
                then_mask: self.mask,
                else_mask: self.addrs[0] as u32,
            },
            k if k == RecordKind::Else as u8 => Event::Else { warp: self.warp },
            k if k == RecordKind::Fi as u8 => Event::Fi { warp: self.warp },
            k if k == RecordKind::Bar as u8 => Event::Bar {
                warp: self.warp,
                mask: self.mask,
            },
            k if k == RecordKind::Exit as u8 => Event::Exit {
                warp: self.warp,
                mask: self.mask,
            },
            k => panic!("corrupt record kind {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_the_papers_272_bytes() {
        // 16-byte header + 32 × 8-byte address slots.
        assert_eq!(std::mem::size_of::<Record>(), 16 + 8 * 32);
    }

    #[test]
    fn access_round_trip() {
        let mut addrs = [0u64; 32];
        addrs[3] = 0xdead_beef;
        let e = Event::Access {
            warp: 42,
            kind: AccessKind::AcquireRelease(Scope::Global),
            space: MemSpace::Shared,
            mask: 0b1000,
            addrs,
            size: 8,
        };
        assert_eq!(Record::encode(&e).decode(), e);
    }

    #[test]
    fn all_access_kinds_round_trip() {
        let kinds = [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Atomic,
            AccessKind::Acquire(Scope::Block),
            AccessKind::Release(Scope::Block),
            AccessKind::AcquireRelease(Scope::Block),
            AccessKind::Acquire(Scope::Global),
            AccessKind::Release(Scope::Global),
            AccessKind::AcquireRelease(Scope::Global),
        ];
        for kind in kinds {
            let e = Event::Access {
                warp: 7,
                kind,
                space: MemSpace::Global,
                mask: 1,
                addrs: [0; 32],
                size: 4,
            };
            assert_eq!(Record::encode(&e).decode(), e, "{kind:?}");
        }
    }

    #[test]
    fn control_events_round_trip() {
        for e in [
            Event::If {
                warp: 3,
                then_mask: 0b0110,
                else_mask: 0b1001,
            },
            Event::Else { warp: 3 },
            Event::Fi { warp: 3 },
            Event::Bar {
                warp: 9,
                mask: 0xffff,
            },
            Event::Exit { warp: 9, mask: 0x3 },
        ] {
            assert_eq!(Record::encode(&e).decode(), e, "{e:?}");
        }
    }

    #[test]
    fn global_sync_records_are_flagged_for_ordering() {
        let sync = Event::Access {
            warp: 0,
            kind: AccessKind::Release(Scope::Global),
            space: MemSpace::Global,
            mask: 1,
            addrs: [0; 32],
            size: 4,
        };
        assert!(Record::encode(&sync).is_global_sync());
        // Shared-memory sync is per-block: no cross-queue ordering.
        let shared = Event::Access {
            warp: 0,
            kind: AccessKind::Acquire(Scope::Block),
            space: MemSpace::Shared,
            mask: 1,
            addrs: [0; 32],
            size: 4,
        };
        assert!(!Record::encode(&shared).is_global_sync());
        // Plain accesses and control records are unordered.
        let write = Event::Access {
            warp: 0,
            kind: AccessKind::Write,
            space: MemSpace::Global,
            mask: 1,
            addrs: [0; 32],
            size: 4,
        };
        assert!(!Record::encode(&write).is_global_sync());
        assert!(!Record::encode(&Event::Bar { warp: 0, mask: 1 }).is_global_sync());
        // A corrupted kind byte is never treated as ordered.
        let mut r = Record::encode(&sync);
        r.kind = 0xC3;
        assert!(!r.is_global_sync());
    }

    #[test]
    fn try_decode_rejects_corrupt_kinds_accepts_valid_ones() {
        let mut r = Record::encode(&Event::Bar { warp: 1, mask: 0xf });
        assert_eq!(r.try_decode(), Some(Event::Bar { warp: 1, mask: 0xf }));
        for bad in [14u8, 0x40, 0xC7, 0xff] {
            r.kind = bad;
            assert_eq!(r.try_decode(), None, "kind {bad} must be rejected");
        }
    }
}
