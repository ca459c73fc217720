//! Packets in flight.

/// A packet in flight. Flits are not materialized individually: each
/// buffered flit is a [`FlitRef`](crate::router::FlitRef) pointing back
/// at its packet's slab slot, which is equivalent for a FIFO wormhole
/// network and far cheaper. The route lives in the simulator's static
/// route table and every packet has
/// [`SimConfig::flits_per_packet`](crate::SimConfig::flits_per_packet)
/// flits, so the packet itself keeps only what latency accounting needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Packet {
    /// Index of the generating flow.
    pub flow: usize,
    /// Cycle at which the packet was generated (enqueued at the source NI).
    pub generated_at: u64,
    /// Cycle at which the head flit left the source NI and entered the
    /// network (set by the simulator; `None` while still queued).
    pub injected_at: Option<u64>,
    /// True if the packet was generated inside the measurement window.
    pub measured: bool,
}
