//! Event sinks: where the device-side logger sends its records.

use barracuda_trace::record::Record;
use parking_lot::Mutex;

/// Destination for device-side log records. The runtime passes its
/// pipeline sink, which routes each record to a trace queue; tests use
/// [`VecSink`].
pub trait EventSink: Sync {
    /// Delivers one record produced by a warp of thread block `block`.
    fn emit(&self, block: u64, record: Record);
}

/// Collects records in memory, preserving emission order. For tests and
/// for the deterministic synchronous detection mode.
#[derive(Debug, Default)]
pub struct VecSink {
    records: Mutex<Vec<Record>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes all collected records, leaving the sink empty.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut self.records.lock())
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when no records were collected.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

impl EventSink for VecSink {
    fn emit(&self, _block: u64, record: Record) {
        self.records.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barracuda_trace::ops::Event;

    #[test]
    fn vec_sink_collects_in_order() {
        let s = VecSink::new();
        s.emit(0, Record::encode(&Event::Else { warp: 1 }));
        s.emit(1, Record::encode(&Event::Fi { warp: 2 }));
        assert_eq!(s.len(), 2);
        let recs = s.take();
        assert_eq!(recs[0].decode(), Event::Else { warp: 1 });
        assert_eq!(recs[1].decode(), Event::Fi { warp: 2 });
        assert!(s.is_empty());
    }
}
