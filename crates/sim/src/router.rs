//! Router-side plumbing: flit buffers and wormhole channel state.

use std::collections::VecDeque;

/// A flit sitting in a buffer. Flits reference their packet by slab index
/// and their route by position in the simulator's static route table;
/// payload is never materialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlitRef {
    /// Slab index of the owning packet.
    pub packet: u32,
    /// 0-based flit position within the packet.
    pub flit: u32,
    /// Route-table position of the next output the flit takes: a link
    /// index, or the ejection sentinel once the flit sits at its
    /// destination. Crossing a link advances it by one.
    pub route: u32,
    /// Cycle the flit entered this buffer.
    pub arrived: u64,
}

/// A FIFO flit buffer with bounded capacity (credit pool). The injection
/// queue uses `capacity = usize::MAX` (the NI's source queue is unbounded;
/// source queueing time is part of measured latency).
#[derive(Debug, Clone, Default)]
pub(crate) struct Buffer {
    fifo: VecDeque<FlitRef>,
    capacity: usize,
}

impl Buffer {
    pub fn new(capacity: usize) -> Self {
        Self { fifo: VecDeque::new(), capacity }
    }

    pub fn has_space(&self) -> bool {
        self.fifo.len() < self.capacity
    }

    pub fn push(&mut self, flit: FlitRef) {
        debug_assert!(self.has_space(), "buffer overflow");
        self.fifo.push_back(flit);
    }

    pub fn front(&self) -> Option<&FlitRef> {
        self.fifo.front()
    }

    pub fn pop(&mut self) -> Option<FlitRef> {
        self.fifo.pop_front()
    }

    /// Number of buffered flits (diagnostics; exercised by unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Removes every flit of `packet` (deadlock-recovery drop). Returns the
    /// number of flits removed.
    pub fn purge_packet(&mut self, packet: u32) -> usize {
        let before = self.fifo.len();
        self.fifo.retain(|f| f.packet != packet);
        before - self.fifo.len()
    }

    /// Iterates over buffered flits front-to-back (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &FlitRef> {
        self.fifo.iter()
    }
}

/// Wormhole allocation state of one output channel (a link's upstream end
/// or a node's ejection port): which input owns it and for which packet.
/// Inputs are dense input ids (link buffers first, then the injection
/// queues; see `Simulator`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ChannelState {
    /// Current owner `(input, packet slab index)`, if a packet holds the
    /// channel.
    pub owner: Option<(u32, u32)>,
    /// Round-robin pointer over the upstream node's input list.
    pub rr_next: u32,
}

impl ChannelState {
    /// True if `input` may send `packet` through this channel right now
    /// (diagnostics; exercised by unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn admits(&self, input: u32, packet: u32) -> bool {
        self.owner == Some((input, packet))
    }

    pub fn allocate(&mut self, input: u32, packet: u32) {
        debug_assert!(self.owner.is_none(), "channel already allocated");
        self.owner = Some((input, packet));
    }

    pub fn release(&mut self) {
        self.owner = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u32, flit: u32) -> FlitRef {
        FlitRef { packet, flit, route: 0, arrived: 0 }
    }

    #[test]
    fn buffer_is_fifo_with_capacity() {
        let mut b = Buffer::new(2);
        assert!(b.has_space());
        b.push(flit(1, 0));
        b.push(flit(1, 1));
        assert!(!b.has_space());
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().unwrap().flit, 0);
        assert_eq!(b.front().unwrap().flit, 1);
        assert!(b.has_space());
    }

    #[test]
    fn purge_removes_only_target_packet() {
        let mut b = Buffer::new(8);
        b.push(flit(1, 0));
        b.push(flit(2, 0));
        b.push(flit(1, 1));
        assert_eq!(b.purge_packet(1), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.front().unwrap().packet, 2);
    }

    #[test]
    fn channel_allocation_lifecycle() {
        let mut ch = ChannelState::default();
        assert!(!ch.admits(3, 5));
        ch.allocate(3, 5);
        assert!(ch.admits(3, 5));
        assert!(!ch.admits(3, 6));
        assert!(!ch.admits(4, 5));
        assert!(!ch.admits(0, 5));
        ch.release();
        assert!(!ch.admits(3, 5));
    }

    #[test]
    #[should_panic(expected = "channel already allocated")]
    #[cfg(debug_assertions)]
    fn double_allocation_panics_in_debug() {
        let mut ch = ChannelState::default();
        ch.allocate(0, 1);
        ch.allocate(0, 2);
    }
}
