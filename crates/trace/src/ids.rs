//! The GPU thread hierarchy: grids of blocks of warps of threads.
//!
//! BARRACUDA combines the 3-D block and thread ids into a globally unique
//! 64-bit TID (paper §4.1); all metadata is keyed on that TID plus the
//! warp/block structure derived from the launch dimensions.

use std::fmt;

/// A 3-D extent or coordinate (CUDA `dim3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // axis components
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// 1-D extent `(x, 1, 1)`.
    pub fn linear(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// Total element count `x*y*z`.
    pub fn count(self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// Linearizes a coordinate within this extent (CUDA order:
    /// `x + y*X + z*X*Y`).
    pub fn linearize(self, c: Dim3) -> u64 {
        u64::from(c.x)
            + u64::from(c.y) * u64::from(self.x)
            + u64::from(c.z) * u64::from(self.x) * u64::from(self.y)
    }

    /// Inverse of [`Dim3::linearize`].
    pub fn delinearize(self, mut l: u64) -> Dim3 {
        let x = (l % u64::from(self.x)) as u32;
        l /= u64::from(self.x);
        let y = (l % u64::from(self.y)) as u32;
        l /= u64::from(self.y);
        Dim3 { x, y, z: l as u32 }
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from(v: (u32, u32, u32)) -> Self {
        Dim3 {
            x: v.0,
            y: v.1,
            z: v.2,
        }
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::linear(x)
    }
}

/// Globally unique thread id: `block_linear * threads_per_block +
/// thread_linear`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Most threads one launch may have. Shadow memory keys threads by a
/// 32-bit TID and reserves `u32::MAX` for the host, so device TIDs run
/// `0..u32::MAX`.
pub const MAX_LAUNCH_THREADS: u64 = u32::MAX as u64;

/// Launch dimensions plus the architecture warp size; the single source of
/// truth for mapping between TIDs, warps, blocks and lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Blocks per grid.
    pub grid: Dim3,
    /// Threads per block.
    pub block: Dim3,
    /// Architecture warp width.
    pub warp_size: u32,
}

impl GridDims {
    /// Creates launch dimensions with the default warp size of 32.
    ///
    /// # Panics
    ///
    /// Panics where [`GridDims::try_with_warp_size`] returns an error.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        Self::with_warp_size(grid, block, 32)
    }

    /// Creates launch dimensions with an explicit warp size. The paper
    /// notes warp size varies across architectures and BARRACUDA checks
    /// races "based on the warp size of the current architecture"; small
    /// warps keep tests readable.
    ///
    /// # Panics
    ///
    /// Panics where [`GridDims::try_with_warp_size`] returns an error.
    pub fn with_warp_size(grid: impl Into<Dim3>, block: impl Into<Dim3>, warp_size: u32) -> Self {
        Self::try_with_warp_size(grid, block, warp_size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one check of launch geometry, for dimensions from untrusted
    /// input: every grid and block extent is non-zero, the warp size is a
    /// power of two in `1..=32`, and the launch has at most
    /// [`MAX_LAUNCH_THREADS`] threads.
    pub fn try_with_warp_size(
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        warp_size: u32,
    ) -> Result<Self, String> {
        let (grid, block) = (grid.into(), block.into());
        let extents = [grid.x, grid.y, grid.z, block.x, block.y, block.z];
        if extents[..3].contains(&0) {
            return Err("grid must be non-empty".to_string());
        }
        if extents[3..].contains(&0) {
            return Err("block must be non-empty".to_string());
        }
        if !(warp_size.is_power_of_two() && warp_size <= 32) {
            return Err(format!(
                "warp size must be a power of two ≤ 32, got {warp_size}"
            ));
        }
        // Capped at one past the limit, so the product never overflows.
        let threads = extents.iter().fold(1u64, |n, &d| {
            n.saturating_mul(u64::from(d)).min(MAX_LAUNCH_THREADS + 1)
        });
        if threads > MAX_LAUNCH_THREADS {
            return Err(format!(
                "launch exceeds the 32-bit thread-id space ({MAX_LAUNCH_THREADS} threads)"
            ));
        }
        Ok(GridDims {
            grid,
            block,
            warp_size,
        })
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.block.count()
    }

    /// Number of blocks in the grid.
    pub fn num_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.threads_per_block() * self.num_blocks()
    }

    /// Warps per block (last warp may be partial).
    pub fn warps_per_block(&self) -> u64 {
        self.threads_per_block().div_ceil(u64::from(self.warp_size))
    }

    /// Total warps in the grid.
    pub fn num_warps(&self) -> u64 {
        self.warps_per_block() * self.num_blocks()
    }

    /// Builds the global TID from linear block and in-block thread indices.
    pub fn tid(&self, block_linear: u64, thread_linear: u64) -> Tid {
        debug_assert!(block_linear < self.num_blocks());
        debug_assert!(thread_linear < self.threads_per_block());
        Tid(block_linear * self.threads_per_block() + thread_linear)
    }

    /// Linear block index owning `t`.
    pub fn block_of(&self, t: Tid) -> u64 {
        t.0 / self.threads_per_block()
    }

    /// Linear thread index of `t` within its block.
    pub fn thread_in_block(&self, t: Tid) -> u64 {
        t.0 % self.threads_per_block()
    }

    /// Global warp index of `t`.
    pub fn warp_of(&self, t: Tid) -> u64 {
        self.block_of(t) * self.warps_per_block()
            + self.thread_in_block(t) / u64::from(self.warp_size)
    }

    /// Lane (position within its warp) of `t`.
    pub fn lane_of(&self, t: Tid) -> u32 {
        (self.thread_in_block(t) % u64::from(self.warp_size)) as u32
    }

    /// Linear block index owning global warp `w`.
    pub fn block_of_warp(&self, w: u64) -> u64 {
        w / self.warps_per_block()
    }

    /// The TID of lane `lane` in global warp `w`.
    pub fn tid_of_lane(&self, w: u64, lane: u32) -> Tid {
        let block = self.block_of_warp(w);
        let warp_in_block = w % self.warps_per_block();
        self.tid(
            block,
            warp_in_block * u64::from(self.warp_size) + u64::from(lane),
        )
    }

    /// Number of live lanes in global warp `w` (the last warp of each block
    /// may be partial: "each warp's initial active mask takes account of
    /// the number of threads requested for the grid", paper §3.3).
    pub fn lanes_in_warp(&self, w: u64) -> u32 {
        let warp_in_block = w % self.warps_per_block();
        let start = warp_in_block * u64::from(self.warp_size);
        let remaining = self.threads_per_block() - start;
        remaining.min(u64::from(self.warp_size)) as u32
    }

    /// Initial active mask for global warp `w`: one bit per live lane.
    pub fn initial_mask(&self, w: u64) -> u32 {
        let n = self.lanes_in_warp(w);
        if n == 32 {
            u32::MAX
        } else {
            (1u32 << n) - 1
        }
    }

    /// 3-D thread coordinate of `t` within its block.
    pub fn thread_coord(&self, t: Tid) -> Dim3 {
        self.block.delinearize(self.thread_in_block(t))
    }

    /// 3-D block coordinate of `t`'s block.
    pub fn block_coord(&self, t: Tid) -> Dim3 {
        self.grid.delinearize(self.block_of(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        for l in 0..d.count() {
            assert_eq!(d.linearize(d.delinearize(l)), l);
        }
        assert_eq!(d.linearize(Dim3 { x: 1, y: 2, z: 1 }), 1 + 2 * 4 + 12);
    }

    #[test]
    fn warp_and_block_mapping_1d() {
        let g = GridDims::with_warp_size(2u32, 6u32, 4);
        assert_eq!(g.threads_per_block(), 6);
        assert_eq!(g.warps_per_block(), 2);
        assert_eq!(g.num_warps(), 4);
        assert_eq!(g.total_threads(), 12);
        let t = g.tid(1, 5);
        assert_eq!(t, Tid(11));
        assert_eq!(g.block_of(t), 1);
        assert_eq!(g.warp_of(t), 3);
        assert_eq!(g.lane_of(t), 1);
        assert_eq!(g.tid_of_lane(3, 1), t);
    }

    #[test]
    fn partial_last_warp_mask() {
        let g = GridDims::with_warp_size(1u32, 6u32, 4);
        assert_eq!(g.lanes_in_warp(0), 4);
        assert_eq!(g.lanes_in_warp(1), 2);
        assert_eq!(g.initial_mask(0), 0b1111);
        assert_eq!(g.initial_mask(1), 0b11);
    }

    #[test]
    fn full_warp_mask_is_all_ones() {
        let g = GridDims::new(1u32, 32u32);
        assert_eq!(g.initial_mask(0), u32::MAX);
    }

    #[test]
    fn three_d_layout() {
        let g = GridDims::new((2, 2, 1), (8, 4, 2));
        assert_eq!(g.threads_per_block(), 64);
        assert_eq!(g.num_blocks(), 4);
        assert_eq!(g.warps_per_block(), 2);
        let t = g.tid(3, 63);
        assert_eq!(g.thread_coord(t), Dim3 { x: 7, y: 3, z: 1 });
        assert_eq!(g.block_coord(t), Dim3 { x: 1, y: 1, z: 0 });
    }

    #[test]
    #[should_panic(expected = "warp size")]
    fn bad_warp_size_panics() {
        GridDims::with_warp_size(1u32, 1u32, 3);
    }

    #[test]
    fn geometry_errors_are_values() {
        let err = |g: (u32, u32, u32), b: u32, ws: u32| {
            GridDims::try_with_warp_size(g, b, ws).expect_err("geometry must be refused")
        };
        assert!(err((0, 1, 1), 32, 32).contains("grid"));
        assert!(err((1, 1, 0), 32, 32).contains("grid"));
        assert!(err((1, 1, 1), 0, 32).contains("block"));
        assert!(err((1, 1, 1), 32, 0).contains("warp size"));
        assert!(err((1, 1, 1), 32, 64).contains("warp size"));
        // 2^32 threads: one past the limit.
        assert!(err((65536, 1, 1), 65536, 32).contains("thread-id space"));
        // Extents whose product overflows u64 are refused, not wrapped.
        assert!(err((u32::MAX, u32::MAX, u32::MAX), u32::MAX, 32).contains("thread-id space"));
        // 65,537 × 65,535 = u32::MAX threads: exactly the limit.
        let most = GridDims::try_with_warp_size(65537u32, 65535u32, 32).expect("at the limit");
        assert_eq!(most.total_threads(), MAX_LAUNCH_THREADS);
    }
}
