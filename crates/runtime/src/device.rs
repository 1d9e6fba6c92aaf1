//! The CUDA-style host API of a persistent engine: streams, asynchronous
//! launches, checked memory copies, and synchronization.
//!
//! These entry points mirror the driver calls the paper's tool interposes
//! on (§4.1) and build the host↔device happens-before edges the engine
//! detects against:
//!
//! * launches on the **same stream** are ordered; launches on different
//!   streams are concurrent;
//! * a **memcpy** is stream-ordered *and* blocks the host thread, so it
//!   joins its stream's work into the host's view — but it does not wait
//!   for other streams, and can race with their in-flight kernels;
//! * **`stream_synchronize`** / **`device_synchronize`** join the waited
//!   work into the host's view, cutting later host-device races.

use crate::engine::{hash_key, Engine, KernelRun};
use crate::{Analysis, Error};
use barracuda_core::RaceReport;
use barracuda_instrument::instrument_module;
use barracuda_simt::DevicePtr;
use barracuda_trace::HostOp;

/// Handle to an execution stream. Stream 0 is the default stream and
/// exists from engine construction; others come from
/// [`Engine::create_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The default stream.
    pub const DEFAULT: StreamId = StreamId(0);

    /// The stream's index into the engine's stream table.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-stream ordering state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamState {
    /// Epoch of the most recent launch on this stream (the predecessor of
    /// the next launch).
    pub(crate) last_epoch: Option<u32>,
}

impl Engine {
    /// Creates a new stream, concurrent with every other stream.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamState::default());
        id
    }

    /// Launches a kernel asynchronously on `stream`: ordered after the
    /// stream's previous launch, concurrent with other streams and with
    /// later host operations. Returns the launch's analysis — races it
    /// exposes may be against *earlier launches* (inter-kernel) or *host
    /// operations* (host-device), not just within the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on parse or simulation failure. A launch that
    /// fails in simulation still keeps its place in stream order, its
    /// [`LaunchSummary`](crate::LaunchSummary) and its
    /// [`HostOp::LaunchKernel`] entry: the next launch on `stream` is
    /// ordered after it.
    ///
    /// # Panics
    ///
    /// Panics on a stream handle not created by this engine.
    pub fn launch_async(
        &mut self,
        stream: StreamId,
        run: &KernelRun<'_>,
    ) -> Result<Analysis, Error> {
        assert!(stream.index() < self.streams.len(), "unknown stream");
        let key = hash_key(0, run.source);
        let source = run.source;
        let (lk, istats) = self.cached_kernel(
            key,
            |opts| {
                let module = barracuda_ptx::parse(source)?;
                Ok(instrument_module(&module, opts))
            },
            run.kernel,
        )?;
        self.run_launch(stream, run.kernel, &lk, istats, run.dims, run.params)
    }

    /// Host-to-device copy on `stream` (`cudaMemcpy` H2D): waits for the
    /// stream's previous work, then writes `data` at `dst` as the host
    /// thread. Returns the races the copy exposed — conflicts with
    /// kernels still in flight on *other* streams. In interleave mode
    /// the copy is a barrier: it first flushes every deferred launch
    /// (the host thread blocks, so nothing stays co-resident past it)
    /// and includes the group's races in its report.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when flushing a deferred co-resident group
    /// fails (interleave mode only; eager copies cannot fail).
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream or an unallocated destination.
    pub fn memcpy_h2d(
        &mut self,
        stream: StreamId,
        dst: DevicePtr,
        data: &[u8],
    ) -> Result<Vec<RaceReport>, Error> {
        let mut races = self.flush_pending()?;
        self.join_stream(stream);
        self.gpu.write_bytes(dst, data);
        self.host_trace.push(HostOp::MemcpyH2D {
            stream: stream.0,
            dst: dst.0,
            len: data.len() as u64,
        });
        self.core.host_write(dst.0, data.len() as u64);
        races.extend(self.core.drain().0);
        self.reclaim();
        Ok(races)
    }

    /// Device-to-host copy on `stream` (`cudaMemcpy` D2H): waits for the
    /// stream's previous work, then reads `len = out.len()` bytes at
    /// `src` as the host thread. Returns the races the copy exposed.
    /// A barrier for deferred co-resident launches, exactly like
    /// [`memcpy_h2d`](Engine::memcpy_h2d).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when flushing a deferred co-resident group
    /// fails (interleave mode only; eager copies cannot fail).
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream or an unallocated source.
    pub fn memcpy_d2h(
        &mut self,
        stream: StreamId,
        src: DevicePtr,
        out: &mut [u8],
    ) -> Result<Vec<RaceReport>, Error> {
        let mut races = self.flush_pending()?;
        self.join_stream(stream);
        self.gpu.read_bytes(src, out);
        self.host_trace.push(HostOp::MemcpyD2H {
            stream: stream.0,
            src: src.0,
            len: out.len() as u64,
        });
        self.core.host_read(src.0, out.len() as u64);
        races.extend(self.core.drain().0);
        self.reclaim();
        Ok(races)
    }

    /// `cudaStreamSynchronize`: the host waits for everything previously
    /// enqueued on `stream`; later host operations are ordered after it.
    /// A barrier for deferred co-resident launches: the whole pending
    /// group executes first and its races are returned (empty in eager
    /// mode).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when flushing a deferred co-resident group
    /// fails (interleave mode only).
    ///
    /// # Panics
    ///
    /// Panics on an unknown stream.
    pub fn stream_synchronize(&mut self, stream: StreamId) -> Result<Vec<RaceReport>, Error> {
        let races = self.flush_pending()?;
        self.join_stream(stream);
        self.host_trace
            .push(HostOp::StreamSynchronize { stream: stream.0 });
        self.reclaim();
        Ok(races)
    }

    /// `cudaDeviceSynchronize`: the host waits for every launch on every
    /// stream. A barrier for deferred co-resident launches, like
    /// [`stream_synchronize`](Engine::stream_synchronize).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when flushing a deferred co-resident group
    /// fails (interleave mode only).
    pub fn device_synchronize(&mut self) -> Result<Vec<RaceReport>, Error> {
        let races = self.flush_pending()?;
        self.core.join_all();
        self.host_trace.push(HostOp::DeviceSynchronize);
        self.reclaim();
        Ok(races)
    }

    /// Joins the stream's most recent launch (and, transitively, all its
    /// predecessors) into the host's view.
    fn join_stream(&mut self, stream: StreamId) {
        assert!(stream.index() < self.streams.len(), "unknown stream");
        if let Some(e) = self.streams[stream.index()].last_epoch {
            self.core.join_epoch(e);
        }
    }
}
