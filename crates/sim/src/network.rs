//! The network simulator: one flit-level model, two main loops.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use noc_graph::{LinkId, Topology};
use noc_probe::{Counter, Probe};

use crate::config::SimConfig;
use crate::packet::Packet;
use crate::router::{Buffer, ChannelState, FlitRef};
use crate::stats::LatencyStats;
use crate::traffic::{BurstSource, FlowSpec};
use noc_units::{Latency, Mbps};

/// Cycles without any flit movement (while traffic is in flight) after
/// which the oldest in-network packet is dropped to break a deadlock.
const STALL_THRESHOLD: u64 = 5_000;

/// Which main-loop implementation [`Simulator::run`] uses. Both produce
/// bit-identical [`SimReport`]s (pinned by the loop-agreement unit tests
/// and the `loop_identity` differential suite); they differ only in how
/// much idle work they skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopKind {
    /// Visit every router and link every cycle (the original loop) —
    /// kept as the naive reference the identity suites diff against.
    FullScan,
    /// Visit only the ejection ports and links in the active index set —
    /// those with a channel owner or a head flit bound for them —
    /// replaying the skipped visits' serialization-token accrual lazily
    /// when a link is next visited. While no buffer holds a flit, jump
    /// straight to the next cycle that can change the network: the next
    /// source fire, the watchdog deadline or the end of the run.
    #[default]
    ActiveSet,
}

/// Measurement report returned by [`Simulator::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total simulated cycles (warm-up + measurement + drain).
    pub cycles: u64,
    /// Packets generated over the whole run.
    pub generated_packets: u64,
    /// Packets fully delivered (tail ejected) over the whole run.
    pub delivered_packets: u64,
    /// Packets dropped by deadlock recovery (should be 0 in healthy runs).
    pub dropped_packets: u64,
    /// Packets generated in the measurement window but not delivered by
    /// the end of the drain period (a symptom of saturation).
    pub unfinished_measured_packets: u64,
    /// Latency statistics over packets generated in the measurement
    /// window (generation → tail ejection, source queueing included).
    pub latency: LatencyStats,
    /// Network-only latency (head flit entering the network → tail
    /// ejection) over the same packets — the metric hardware NoC
    /// measurements usually report.
    pub network_latency: LatencyStats,
    /// Per-flow latency statistics (same window, full latency).
    pub per_flow_latency: Vec<LatencyStats>,
    /// Flits that crossed each link during the measurement window.
    pub link_flits: Vec<u64>,
    /// Length of the measurement window in cycles.
    pub measure_cycles: u64,
    /// Flit width used (bytes), for utilization conversions.
    pub flit_bytes: usize,
}

impl SimReport {
    /// Mean packet latency in cycles over the measurement window
    /// (including source queueing).
    pub fn avg_latency_cycles(&self) -> Latency {
        Latency::raw(self.latency.mean())
    }

    /// Mean network-only packet latency in cycles (excluding source
    /// queueing).
    pub fn avg_network_latency_cycles(&self) -> Latency {
        Latency::raw(self.network_latency.mean())
    }

    /// Delivered payload+header bandwidth of `link` during the window, in
    /// MB/s (1 GHz clock). An empty measurement window reports 0 rather
    /// than `0/0 = NaN` — [`SimConfig::validate`] rejects such configs at
    /// [`Simulator::new`], but `SimReport` fields are public and merged
    /// reports may be hand-built.
    pub fn link_throughput_mbps(&self, link: LinkId) -> Mbps {
        if self.measure_cycles == 0 {
            return Mbps::ZERO;
        }
        let bytes = self.link_flits[link.index()] as f64 * self.flit_bytes as f64;
        Mbps::raw(bytes / self.measure_cycles as f64 * 1000.0)
    }

    /// True when the run shows signs of saturation: deadlock drops or a
    /// non-negligible share of measured packets still in flight at the end.
    pub fn saturated(&self) -> bool {
        if self.dropped_packets > 0 {
            return true;
        }
        let measured = self.latency.count() + self.unfinished_measured_packets;
        measured > 0 && self.unfinished_measured_packets as f64 > 0.02 * measured as f64
    }
}

/// Telemetry handles for the simulator (see `crates/probe`): no-ops
/// unless [`Simulator::set_probe`] attached a live probe, and strictly
/// out-of-band either way — nothing in the simulation reads them, so
/// reports stay byte-identical with a live probe, a disabled one, or
/// none.
#[derive(Debug, Clone, Default)]
struct SimCounters {
    cycles_executed: Counter,
    cycles_skipped: Counter,
}

impl SimCounters {
    fn new(probe: &Probe) -> Self {
        Self {
            cycles_executed: probe.counter("sim.cycles_executed"),
            cycles_skipped: probe.counter("sim.cycles_skipped"),
        }
    }
}

/// Converts a structure index to the simulator's `u32` hot-state form.
fn dense(index: usize) -> u32 {
    u32::try_from(index).expect("simulator index exceeds u32")
}

/// First set bit of `bits` in `from..end`.
fn next_set_bit(bits: &[u64], from: usize, end: usize) -> Option<usize> {
    let mut word = from / 64;
    let mut rest = bits.get(word)? & (!0 << (from % 64));
    loop {
        if rest != 0 {
            let bit = word * 64 + rest.trailing_zeros() as usize;
            return (bit < end).then_some(bit);
        }
        word += 1;
        rest = *bits.get(word)?;
    }
}

/// Flit-level wormhole simulator over a [`Topology`] and a set of
/// [`FlowSpec`]s. See the [crate-level docs](crate) for the model.
///
/// The per-cycle state is flat arrays indexed by dense ids. Every input
/// buffer has an *input id*: link `l`'s downstream buffer is input `l`,
/// and the injection queues follow at `link_count..`. Every wormhole
/// channel has an *output id*: link `l`'s upstream end is output `l`,
/// and node `n`'s ejection port is output `link_count + n`. Each
/// (flow, path) route is one stretch of the static route table — the
/// output ids of its links, then its destination's ejection port — so a
/// flit's next output is one array read at its route position.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    loop_kind: LoopKind,
    flows: Vec<FlowSpec>,
    sources: Vec<BurstSource>,
    /// Each source's [`BurstSource::next_fire_cycle`] (`u64::MAX` =
    /// never): only due sources are polled, and a poll that is not due
    /// draws no randomness, so skipping it leaves the RNG stream intact.
    source_due: Vec<u64>,
    /// Earliest `source_due`: no source polls before it.
    first_due: u64,
    rng: ChaCha8Rng,

    // Static network structure (copied out of the Topology and flows).
    node_count: usize,
    link_count: usize,
    link_src: Vec<usize>,
    link_rate: Vec<f64>, // bytes per cycle
    /// Input ids of each node in round-robin order (its link inputs in
    /// link order, then its injection queues): node `n` owns
    /// `node_inputs[node_input_start[n]..node_input_start[n + 1]]`.
    node_input_start: Vec<usize>,
    node_inputs: Vec<u32>,
    /// Every (flow, path) route as output ids, each ended by its
    /// destination's ejection port.
    routes: Vec<u32>,
    /// Route-table start of each injection queue's route, by queue index
    /// (input id minus `link_count`).
    queue_route: Vec<u32>,
    /// Input id of each flow's first injection queue; path `p` of the
    /// flow uses the queue `p` places after it.
    flow_queue: Vec<u32>,
    flits_per_packet: u32,

    // Dynamic state.
    cycle: u64,
    packets: Vec<Option<Packet>>,
    free_slots: Vec<u32>,
    /// Every input buffer, by input id.
    buffers: Vec<Buffer>,
    link_tokens: Vec<f64>,
    /// Next cycle whose serialization-token accrual has *not* yet been
    /// applied to `link_tokens` (lazy replay for skipped idle links).
    link_token_due: Vec<u64>,
    /// Wormhole channel state of every output, by output id.
    channels: Vec<ChannelState>,
    /// Active index set, by output id: the buffer fronts that are head
    /// flits bound for the output, plus one while a packet holds its
    /// channel. An output at zero can neither allocate its channel nor
    /// move a flit, so both scan passes skip it.
    out_busy: Vec<u32>,
    /// Bitset of the outputs with a non-zero `out_busy`, which the scan
    /// passes walk in output order.
    out_active: Vec<u64>,
    last_progress: u64,

    // Accounting.
    /// Cycles the main loop actually ran the scan passes for: every cycle
    /// under [`LoopKind::FullScan`], all but the fast-forwarded ones under
    /// [`LoopKind::ActiveSet`]. Maintained unconditionally (it is one add
    /// per executed cycle), so it needs no probe.
    executed_cycles: u64,
    counters: SimCounters,
    generated: u64,
    delivered: u64,
    dropped: u64,
    latency: LatencyStats,
    network_latency: LatencyStats,
    per_flow_latency: Vec<LatencyStats>,
    link_flits: Vec<u64>,
    measured_outstanding: u64,
}

impl Simulator {
    /// Builds a simulator for `topology` with the given flows.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or any flow path is not a
    /// contiguous source→destination walk in `topology`.
    pub fn new(topology: &Topology, flows: Vec<FlowSpec>, config: SimConfig) -> Self {
        config.validate();
        for (i, flow) in flows.iter().enumerate() {
            for wp in &flow.paths {
                validate_path(topology, flow, &wp.links, i);
            }
        }

        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let sources: Vec<BurstSource> =
            flows.iter().map(|f| BurstSource::new(f, &config, &mut rng)).collect();
        let source_due: Vec<u64> =
            sources.iter().map(|s| s.next_fire_cycle().unwrap_or(u64::MAX)).collect();

        let node_count = topology.node_count();
        let link_count = topology.link_count();
        let mut inputs_of: Vec<Vec<u32>> = vec![Vec::new(); node_count];
        for (id, link) in topology.links() {
            inputs_of[link.dst.index()].push(dense(id.index()));
        }
        // Connection-oriented NI: one injection queue per (flow, path),
        // whose route is flattened into the route table.
        let mut routes = Vec::new();
        let mut queue_route = Vec::new();
        let mut flow_queue = Vec::with_capacity(flows.len());
        for flow in &flows {
            flow_queue.push(dense(link_count + queue_route.len()));
            for wp in &flow.paths {
                inputs_of[flow.source.index()].push(dense(link_count + queue_route.len()));
                queue_route.push(dense(routes.len()));
                routes.extend(wp.links.iter().map(|l| dense(l.index())));
                routes.push(dense(link_count + flow.dest.index()));
            }
        }
        let mut node_input_start = Vec::with_capacity(node_count + 1);
        node_input_start.push(0);
        for inputs in &inputs_of {
            node_input_start.push(node_input_start.last().copied().unwrap_or(0) + inputs.len());
        }
        let buffers = (0..link_count)
            .map(|_| Buffer::new(config.buffer_flits))
            .chain(queue_route.iter().map(|_| Buffer::new(usize::MAX)))
            .collect();

        let per_flow_latency = vec![LatencyStats::new(); flows.len()];
        Self {
            sources,
            first_due: source_due.iter().copied().min().unwrap_or(u64::MAX),
            source_due,
            rng,
            loop_kind: LoopKind::default(),
            node_count,
            link_count,
            link_src: topology.links().map(|(_, l)| l.src.index()).collect(),
            link_rate: topology
                .links()
                .map(|(_, l)| SimConfig::bytes_per_cycle(l.capacity))
                .collect(),
            node_input_start,
            node_inputs: inputs_of.concat(),
            routes,
            queue_route,
            flow_queue,
            flits_per_packet: dense(config.flits_per_packet()),
            cycle: 0,
            packets: Vec::new(),
            free_slots: Vec::new(),
            buffers,
            link_tokens: vec![0.0; link_count],
            link_token_due: vec![0; link_count],
            channels: vec![ChannelState::default(); link_count + node_count],
            out_busy: vec![0; link_count + node_count],
            out_active: vec![0; (link_count + node_count).div_ceil(64)],
            last_progress: 0,
            executed_cycles: 0,
            counters: SimCounters::default(),
            generated: 0,
            delivered: 0,
            dropped: 0,
            latency: LatencyStats::new(),
            network_latency: LatencyStats::new(),
            per_flow_latency,
            link_flits: vec![0; link_count],
            measured_outstanding: 0,
            flows,
            config,
        }
    }

    /// Selects the main-loop implementation (default
    /// [`LoopKind::ActiveSet`]). Both loops produce bit-identical reports;
    /// [`LoopKind::FullScan`] exists as the naive reference the identity
    /// suites diff the default against.
    pub fn set_loop_kind(&mut self, kind: LoopKind) {
        self.loop_kind = kind;
    }

    /// Attaches a telemetry probe (see `crates/probe`). The simulator
    /// only ever *writes* to it, so attaching one cannot change any
    /// report — pinned by the probe-identity differential suite.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.counters = SimCounters::new(probe);
    }

    /// Cycles whose scan passes actually ran: all of them under
    /// [`LoopKind::FullScan`], all but the cycles fast-forwarded over an
    /// empty network under [`LoopKind::ActiveSet`].
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }

    /// Runs warm-up, measurement and drain, returning the report.
    pub fn run(&mut self) -> SimReport {
        let total =
            self.config.warmup_cycles + self.config.measure_cycles + self.config.drain_cycles;
        let generation_end = self.config.warmup_cycles + self.config.measure_cycles;
        let cycle_before = self.cycle;
        let executed_before = self.executed_cycles;
        while self.cycle < total {
            if self.loop_kind == LoopKind::ActiveSet && self.network_empty() {
                self.cycle = self.fast_forward_target(total, generation_end);
                if self.cycle == total {
                    break;
                }
            }
            self.step(self.cycle < generation_end);
        }
        let executed = self.executed_cycles - executed_before;
        let window = self.cycle - cycle_before;
        self.counters.cycles_executed.add(executed);
        self.counters.cycles_skipped.add(window - executed);
        SimReport {
            cycles: self.cycle,
            generated_packets: self.generated,
            delivered_packets: self.delivered,
            dropped_packets: self.dropped,
            unfinished_measured_packets: self.measured_outstanding,
            latency: self.latency.clone(),
            network_latency: self.network_latency.clone(),
            per_flow_latency: self.per_flow_latency.clone(),
            link_flits: self.link_flits.clone(),
            measure_cycles: self.config.measure_cycles,
            flit_bytes: self.config.flit_bytes,
        }
    }

    /// Advances the simulation by one cycle. `generate` gates the traffic
    /// sources (off during the drain window).
    fn step(&mut self, generate: bool) {
        if generate {
            self.generate_traffic();
        }
        self.eject();
        self.traverse_links();
        self.watchdog();
        self.cycle += 1;
        self.executed_cycles += 1;
    }

    /// True when the active index set is empty, which is exactly when no
    /// buffer holds a flit: a buffer front is either a head flit, counted
    /// at its next output, or a later flit of a packet that holds the
    /// channel its head took; and a held channel's tail is still buffered.
    fn network_empty(&self) -> bool {
        self.out_active.iter().all(|&word| word == 0)
    }

    /// The first cycle, from the current one on, at which an empty network
    /// can change: the next source fire (while sources still generate),
    /// the watchdog deadline (whose check resets `last_progress` on an
    /// empty network) or the end of the run. Every cycle before it would
    /// visit nothing, poll no source and leave the watchdog alone, so
    /// jumping there is exact; the token accrual the skipped cycles would
    /// have applied is replayed by [`Self::sync_link_tokens`] when each
    /// link is next visited, as it is for any skipped visit.
    fn fast_forward_target(&self, total: u64, generation_end: u64) -> u64 {
        debug_assert!(
            self.buffers.iter().all(Buffer::is_empty),
            "fast-forward over a non-empty network at cycle {}",
            self.cycle
        );
        let fire = if self.first_due < generation_end { self.first_due } else { total };
        let target = fire.min(self.last_progress.saturating_add(STALL_THRESHOLD)).min(total);
        debug_assert!(target >= self.cycle, "fast-forward into the past at cycle {}", self.cycle);
        target
    }

    fn in_measurement_window(&self) -> bool {
        self.cycle >= self.config.warmup_cycles
            && self.cycle < self.config.warmup_cycles + self.config.measure_cycles
    }

    /// Polls every due source for its packet. A source that is not due is
    /// skipped: its poll would draw no randomness, so the RNG stream
    /// matches polling every source every cycle.
    fn generate_traffic(&mut self) {
        if self.cycle < self.first_due {
            return;
        }
        for i in 0..self.sources.len() {
            if self.cycle < self.source_due[i] {
                continue;
            }
            let fired = self.sources[i].poll(self.cycle, &self.flows[i], &mut self.rng);
            self.source_due[i] = self.sources[i].next_fire_cycle().unwrap_or(u64::MAX);
            let Some(path_idx) = fired else {
                continue;
            };
            let measured = self.in_measurement_window();
            let slot = self.alloc_packet(Packet {
                flow: i,
                generated_at: self.cycle,
                injected_at: None,
                measured,
            });
            self.generated += 1;
            if measured {
                self.measured_outstanding += 1;
            }
            let queue = (self.flow_queue[i] + dense(path_idx)) as usize;
            let route = self.queue_route[queue - self.link_count];
            let was_empty = self.buffers[queue].is_empty();
            for flit in 0..self.flits_per_packet {
                self.buffers[queue].push(FlitRef {
                    packet: slot,
                    flit,
                    route,
                    arrived: self.cycle,
                });
            }
            if was_empty {
                // The packet's head is the queue's new front.
                self.mark_busy(self.route_output(route));
            }
        }
        self.first_due = self.source_due.iter().copied().min().unwrap_or(u64::MAX);
    }

    fn alloc_packet(&mut self, packet: Packet) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.packets[slot as usize] = Some(packet);
            slot
        } else {
            self.packets.push(Some(packet));
            dense(self.packets.len() - 1)
        }
    }

    /// A flit may leave its buffer once its per-hop delay has elapsed:
    /// head flits pay the router pipeline, body/tail flits stream.
    fn eligible(&self, flit: &FlitRef) -> bool {
        let delay = if flit.flit == 0 { self.config.router_pipeline_cycles } else { 1 };
        flit.arrived + delay <= self.cycle
    }

    /// Input ids of `node`, in round-robin order.
    fn inputs(&self, node: usize) -> &[u32] {
        &self.node_inputs[self.node_input_start[node]..self.node_input_start[node + 1]]
    }

    /// Output id at route-table position `route`.
    fn route_output(&self, route: u32) -> usize {
        self.routes[route as usize] as usize
    }

    /// Output id of the next channel `flit` takes.
    fn next_output(&self, flit: &FlitRef) -> usize {
        self.route_output(flit.route)
    }

    /// Adds one to `out`'s active-index-set count.
    fn mark_busy(&mut self, out: usize) {
        if self.out_busy[out] == 0 {
            self.out_active[out / 64] |= 1 << (out % 64);
        }
        self.out_busy[out] += 1;
    }

    /// Takes one from `out`'s active-index-set count.
    fn unmark_busy(&mut self, out: usize) {
        self.out_busy[out] -= 1;
        if self.out_busy[out] == 0 {
            self.out_active[out / 64] &= !(1 << (out % 64));
        }
    }

    /// Next output in `from..end` the scan pass visits: every one under
    /// [`LoopKind::FullScan`], else the next one in the active index set.
    /// An output outside the set has no channel owner and no head flit
    /// bound for it, so visiting it would be a no-op — the allocation
    /// scan finds no winner — apart from the token accrual a link visit
    /// replays, which `sync_link_tokens` replays identically whenever the
    /// link is next visited.
    fn next_visit(&self, from: usize, end: usize) -> Option<usize> {
        if self.loop_kind == LoopKind::FullScan {
            (from < end).then_some(from)
        } else {
            next_set_bit(&self.out_active, from, end)
        }
    }

    /// Gives output `out`'s free channel to the first eligible head flit
    /// bound for it among `node`'s input fronts, in round-robin order
    /// from the input after the previous winner.
    fn arbitrate(&mut self, out: usize, node: usize) {
        let inputs = self.inputs(node);
        let count = inputs.len();
        let start = self.channels[out].rr_next as usize;
        let winner =
            (0..count).find_map(|off| {
                let input = inputs[(start + off) % count];
                let front = self.buffers[input as usize].front()?;
                (front.flit == 0 && self.next_output(front) == out && self.eligible(front))
                    .then_some((input, front.packet, off))
            });
        if let Some((input, packet, off)) = winner {
            self.channels[out].allocate(input, packet);
            self.channels[out].rr_next = dense((start + off + 1) % count);
            self.mark_busy(out);
        }
    }

    /// The input holding output `out`'s channel, if the owning packet's
    /// next flit is that input's front and eligible to move.
    fn ready_owner(&self, out: usize) -> Option<u32> {
        let (input, packet) = self.channels[out].owner?;
        let front = self.buffers[input as usize].front()?;
        (front.packet == packet && self.eligible(front)).then_some(input)
    }

    /// Frees output `out`'s channel.
    fn release(&mut self, out: usize) {
        self.channels[out].release();
        self.unmark_busy(out);
    }

    /// Pops the front flit of `input`, keeping the active index set in
    /// step: the popped flit leaves the set if it was a head, and a head
    /// exposed behind it joins.
    fn pop_front(&mut self, input: u32) -> FlitRef {
        let buffer = &mut self.buffers[input as usize];
        let flit = buffer.pop().expect("front exists");
        let exposed = buffer.front().filter(|f| f.flit == 0).map(|f| f.route);
        if flit.flit == 0 {
            self.unmark_busy(self.route_output(flit.route));
        }
        if let Some(route) = exposed {
            self.mark_busy(self.route_output(route));
        }
        flit
    }

    /// Ejection pass: each visited ejection port, if free, goes to an
    /// eligible head flit bound for it, then ejects one flit of the
    /// packet that holds it.
    fn eject(&mut self) {
        self.debug_check_active_set();
        let end = self.link_count + self.node_count;
        let mut from = self.link_count;
        while let Some(out) = self.next_visit(from, end) {
            from = out + 1;
            if self.channels[out].owner.is_none() {
                self.arbitrate(out, out - self.link_count);
            }
            let Some(input) = self.ready_owner(out) else {
                continue;
            };
            let flit = self.pop_front(input);
            self.last_progress = self.cycle;
            if flit.flit + 1 == self.flits_per_packet {
                self.release(out);
                self.complete_packet(flit.packet);
            }
        }
    }

    fn complete_packet(&mut self, slot: u32) {
        let packet = self.packets[slot as usize].take().expect("live packet");
        self.free_slots.push(slot);
        self.delivered += 1;
        if packet.measured {
            self.measured_outstanding -= 1;
            let latency = self.cycle - packet.generated_at;
            self.latency.record(latency);
            self.per_flow_latency[packet.flow].record(latency);
            let entered = packet.injected_at.unwrap_or(packet.generated_at);
            self.network_latency.record(self.cycle - entered);
        }
    }

    /// Applies the serialization-token accrual for every cycle up to and
    /// including the current one that `link` has not yet seen. The replay
    /// performs the identical sequence of capped additions the full-scan
    /// loop would have — fp-exact — and stops early once the cap is
    /// reached (further additions are fixed points).
    fn sync_link_tokens(&mut self, link: usize) {
        let cap = 2.0 * self.config.flit_bytes as f64;
        let rate = self.link_rate[link];
        let mut pending = self.cycle + 1 - self.link_token_due[link];
        self.link_token_due[link] = self.cycle + 1;
        if rate <= 0.0 {
            return; // each add is a no-op: tokens never grow
        }
        while pending > 0 && self.link_tokens[link] < cap {
            self.link_tokens[link] = (self.link_tokens[link] + rate).min(cap);
            pending -= 1;
        }
    }

    /// Link pass: each visited link accrues serialization tokens; with a
    /// flit's worth banked and room downstream, the link, if free, goes to
    /// an eligible head flit bound for it, then forwards one flit of the
    /// packet that holds it.
    fn traverse_links(&mut self) {
        let flit_bytes = self.config.flit_bytes as f64;
        let mut from = 0;
        while let Some(link) = self.next_visit(from, self.link_count) {
            from = link + 1;
            // Serialization: accumulate tokens. The cap must exceed one
            // flit so the fractional remainder after a send carries over
            // (otherwise every rate between flit/3 and flit/2 bytes-per-
            // cycle would quantize to the same 3-cycle serialization);
            // two flits' worth bounds idle bursts to a single extra flit.
            self.sync_link_tokens(link);
            if self.link_tokens[link] < flit_bytes || !self.buffers[link].has_space() {
                continue;
            }
            if self.channels[link].owner.is_none() {
                self.arbitrate(link, self.link_src[link]);
            }
            let Some(input) = self.ready_owner(link) else {
                continue;
            };
            let flit = self.pop_front(input);
            if input as usize >= self.link_count && flit.flit == 0 {
                let p = self.packets[flit.packet as usize].as_mut().expect("live packet");
                p.injected_at = Some(self.cycle);
            }
            self.link_tokens[link] -= flit_bytes;
            self.last_progress = self.cycle;
            if self.in_measurement_window() {
                self.link_flits[link] += 1;
            }
            if flit.flit + 1 == self.flits_per_packet {
                self.release(link);
            }
            let dst_was_empty = self.buffers[link].is_empty();
            let route = flit.route + 1;
            self.buffers[link].push(FlitRef {
                packet: flit.packet,
                flit: flit.flit,
                route,
                arrived: self.cycle,
            });
            if dst_was_empty && flit.flit == 0 {
                self.mark_busy(self.route_output(route));
            }
        }
    }

    /// Deadlock recovery: if nothing has moved for [`STALL_THRESHOLD`]
    /// cycles while flits wait in *network* buffers, drop the oldest
    /// in-network packet. Source-queue-only stalls are legitimate idle
    /// periods and are ignored. A purge rewrites buffer fronts and channel
    /// owners across the whole network, so it recounts the active index
    /// set from scratch.
    fn watchdog(&mut self) {
        if self.cycle - self.last_progress < STALL_THRESHOLD {
            return;
        }
        let link_buffers = &self.buffers[..self.link_count];
        let network_busy = link_buffers.iter().any(|b| !b.is_empty());
        if !network_busy {
            self.last_progress = self.cycle;
            return;
        }
        // Oldest packet with flits inside the network.
        let mut victim: Option<(u64, u32)> = None;
        for buffer in link_buffers {
            for flit in buffer.iter() {
                let gen = self.packets[flit.packet as usize].as_ref().expect("live").generated_at;
                if victim.is_none_or(|(g, _)| gen < g) {
                    victim = Some((gen, flit.packet));
                }
            }
        }
        let Some((_, slot)) = victim else {
            self.last_progress = self.cycle;
            return;
        };
        for buffer in &mut self.buffers {
            buffer.purge_packet(slot);
        }
        for ch in &mut self.channels {
            if ch.owner.is_some_and(|(_, p)| p == slot) {
                ch.release();
            }
        }
        self.out_busy = self.recount_busy();
        self.out_active.fill(0);
        for (out, &busy) in self.out_busy.iter().enumerate() {
            if busy > 0 {
                self.out_active[out / 64] |= 1 << (out % 64);
            }
        }
        let packet = self.packets[slot as usize].take().expect("live packet");
        self.free_slots.push(slot);
        self.dropped += 1;
        if packet.measured {
            self.measured_outstanding -= 1;
        }
        self.last_progress = self.cycle;
    }

    /// The active-index-set counts recomputed from the buffers and
    /// channels: per output, the head-flit fronts bound for it plus one
    /// if its channel is owned.
    fn recount_busy(&self) -> Vec<u32> {
        let mut busy: Vec<u32> =
            self.channels.iter().map(|c| u32::from(c.owner.is_some())).collect();
        for buffer in &self.buffers {
            if let Some(front) = buffer.front().filter(|f| f.flit == 0) {
                busy[self.next_output(front)] += 1;
            }
        }
        busy
    }

    /// Debug builds check that the incremental active index set equals a
    /// recount and that its bitset marks exactly the busy outputs: a drift
    /// would silently skip a visit the full scan makes. A drift persists
    /// until the next watchdog recount, so checking every 64th executed
    /// cycle still catches it (checking every cycle doubles the debug
    /// test time).
    fn debug_check_active_set(&self) {
        if cfg!(debug_assertions) && self.executed_cycles % 64 == 0 {
            let busy = self.recount_busy();
            assert_eq!(self.out_busy, busy, "active index set drifted at cycle {}", self.cycle);
            for (out, &count) in busy.iter().enumerate() {
                let marked = self.out_active[out / 64] >> (out % 64) & 1 == 1;
                assert_eq!(
                    marked,
                    count > 0,
                    "output {out} bitset drifted at cycle {}",
                    self.cycle
                );
            }
        }
    }
}

/// Validates one flow path: contiguous walk from the flow's source to its
/// destination.
fn validate_path(topology: &Topology, flow: &FlowSpec, links: &[LinkId], flow_idx: usize) {
    assert!(
        !(links.is_empty() && flow.source != flow.dest),
        "flow {flow_idx}: empty path but distinct endpoints"
    );
    let mut at = flow.source;
    for &l in links {
        let link = topology.link(l);
        assert_eq!(link.src, at, "flow {flow_idx}: path link {l} does not continue from {at}");
        at = link.dst;
    }
    assert_eq!(at, flow.dest, "flow {flow_idx}: path ends at {at}, not the destination");
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{NodeId, Topology};
    use noc_units::mbps;

    fn mesh() -> Topology {
        Topology::mesh(3, 3, 1_000.0)
    }

    fn path(t: &Topology, hops: &[(usize, usize)]) -> Vec<LinkId> {
        hops.iter()
            .map(|&(a, b)| t.find_link(NodeId::new(a), NodeId::new(b)).expect("link"))
            .collect()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            drain_cycles: 10_000,
            ..Default::default()
        }
    }

    #[test]
    fn single_flow_delivers_all_packets() {
        let t = mesh();
        let flow = FlowSpec::single_path(
            NodeId::new(0),
            NodeId::new(2),
            mbps(200.0),
            path(&t, &[(0, 1), (1, 2)]),
        );
        let mut sim = Simulator::new(&t, vec![flow], quick_config());
        let report = sim.run();
        assert!(report.generated_packets > 20);
        assert_eq!(report.dropped_packets, 0);
        assert_eq!(report.unfinished_measured_packets, 0);
        assert_eq!(report.delivered_packets, report.generated_packets);
    }

    #[test]
    fn uncontended_latency_matches_analytic_model() {
        // One 2-hop flow at light load on 1 GB/s links, 4 B flits:
        // serialization 4 cycles/flit, 17 flits. Head: ~7 (NI) + 4 + 7 + 4
        // per hop; tail arrives ~16*4 cycles after the head. Latency should
        // sit in the few-dozen range and stay far from the hundreds.
        let t = mesh();
        let flow = FlowSpec::single_path(
            NodeId::new(0),
            NodeId::new(2),
            mbps(50.0), // light load
            path(&t, &[(0, 1), (1, 2)]),
        );
        let mut sim = Simulator::new(&t, vec![flow], quick_config());
        let report = sim.run();
        let avg = report.avg_latency_cycles().to_f64();
        assert!(avg > 60.0 && avg < 130.0, "unexpected latency {avg}");
    }

    #[test]
    fn latency_grows_with_load() {
        let t = mesh();
        let mk = |rate: f64| {
            FlowSpec::single_path(
                NodeId::new(0),
                NodeId::new(2),
                mbps(rate),
                path(&t, &[(0, 1), (1, 2)]),
            )
        };
        let light = Simulator::new(&t, vec![mk(100.0)], quick_config()).run();
        let heavy = Simulator::new(&t, vec![mk(800.0)], quick_config()).run();
        assert!(
            heavy.avg_latency_cycles() > light.avg_latency_cycles(),
            "heavy {} <= light {}",
            heavy.avg_latency_cycles(),
            light.avg_latency_cycles()
        );
    }

    #[test]
    fn contention_on_shared_link_increases_latency() {
        let t = mesh();
        let solo = FlowSpec::single_path(
            NodeId::new(0),
            NodeId::new(2),
            mbps(400.0),
            path(&t, &[(0, 1), (1, 2)]),
        );
        let rival = FlowSpec::single_path(
            NodeId::new(3),
            NodeId::new(2),
            mbps(400.0),
            path(&t, &[(3, 4), (4, 1), (1, 2)]),
        );
        let alone = Simulator::new(&t, vec![solo.clone()], quick_config()).run();
        let shared = Simulator::new(&t, vec![solo, rival], quick_config()).run();
        assert!(
            shared.per_flow_latency[0].mean() > alone.per_flow_latency[0].mean(),
            "shared {} <= alone {}",
            shared.per_flow_latency[0].mean(),
            alone.per_flow_latency[0].mean()
        );
    }

    #[test]
    fn split_flow_uses_both_paths() {
        let t = mesh();
        let p1 = path(&t, &[(0, 1), (1, 2)]);
        let p2 = path(&t, &[(0, 3), (3, 4), (4, 5), (5, 2)]);
        let flow = FlowSpec::split(
            NodeId::new(0),
            NodeId::new(2),
            mbps(400.0),
            vec![(p1.clone(), 0.5), (p2.clone(), 0.5)],
        );
        let mut sim = Simulator::new(&t, vec![flow], quick_config());
        let report = sim.run();
        assert!(report.link_flits[p1[0].index()] > 0, "path 1 unused");
        assert!(report.link_flits[p2[0].index()] > 0, "path 2 unused");
        let f1 = report.link_flits[p1[0].index()] as f64;
        let f2 = report.link_flits[p2[0].index()] as f64;
        let share = f1 / (f1 + f2);
        assert!((share - 0.5).abs() < 0.1, "split share {share}");
    }

    #[test]
    fn link_throughput_matches_offered_load() {
        let t = mesh();
        let flow =
            FlowSpec::single_path(NodeId::new(0), NodeId::new(1), mbps(400.0), path(&t, &[(0, 1)]));
        let config = SimConfig {
            warmup_cycles: 5_000,
            measure_cycles: 200_000,
            drain_cycles: 10_000,
            ..Default::default()
        };
        let mut sim = Simulator::new(&t, vec![flow], config);
        let report = sim.run();
        let l = t.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let tput = report.link_throughput_mbps(l).to_f64();
        // Offered 400 MB/s payload + 1/16 header overhead ≈ 425 MB/s.
        assert!((tput - 425.0).abs() < 50.0, "throughput {tput}");
    }

    #[test]
    fn oversubscribed_link_saturates() {
        let t = Topology::mesh(2, 1, 100.0); // one 100 MB/s channel
        let flow = FlowSpec::single_path(
            NodeId::new(0),
            NodeId::new(1),
            mbps(400.0), // 4x the capacity
            vec![t.find_link(NodeId::new(0), NodeId::new(1)).unwrap()],
        );
        let mut sim = Simulator::new(&t, vec![flow], quick_config());
        let report = sim.run();
        assert!(report.saturated(), "4x oversubscription must saturate");
    }

    #[test]
    #[should_panic(expected = "does not continue")]
    fn discontiguous_path_is_rejected() {
        let t = mesh();
        let bad = path(&t, &[(0, 1), (4, 5)]);
        let flow = FlowSpec::single_path(NodeId::new(0), NodeId::new(5), mbps(10.0), bad);
        let _ = Simulator::new(&t, vec![flow], quick_config());
    }

    #[test]
    #[should_panic(expected = "ends at")]
    fn wrong_destination_is_rejected() {
        let t = mesh();
        let flow =
            FlowSpec::single_path(NodeId::new(0), NodeId::new(5), mbps(10.0), path(&t, &[(0, 1)]));
        let _ = Simulator::new(&t, vec![flow], quick_config());
    }

    /// Runs the same flow set under both main loops and asserts the
    /// reports are bit-identical (PartialEq compares every f64 exactly).
    fn assert_loops_agree(t: &Topology, flows: Vec<FlowSpec>, config: SimConfig) -> SimReport {
        let mut full = Simulator::new(t, flows.clone(), config.clone());
        full.set_loop_kind(LoopKind::FullScan);
        let full_report = full.run();
        let mut active = Simulator::new(t, flows, config);
        active.set_loop_kind(LoopKind::ActiveSet);
        assert_eq!(active.run(), full_report, "active-set loop diverged from full scan");
        full_report
    }

    #[test]
    fn active_set_matches_full_scan_under_contention() {
        let t = mesh();
        let flows = vec![
            FlowSpec::single_path(
                NodeId::new(0),
                NodeId::new(2),
                mbps(400.0),
                path(&t, &[(0, 1), (1, 2)]),
            ),
            FlowSpec::single_path(
                NodeId::new(3),
                NodeId::new(2),
                mbps(400.0),
                path(&t, &[(3, 4), (4, 1), (1, 2)]),
            ),
            FlowSpec::split(
                NodeId::new(6),
                NodeId::new(8),
                mbps(300.0),
                vec![
                    (path(&t, &[(6, 7), (7, 8)]), 0.5),
                    (path(&t, &[(6, 3), (3, 4), (4, 5), (5, 8)]), 0.5),
                ],
            ),
        ];
        let report = assert_loops_agree(&t, flows, quick_config());
        assert!(report.delivered_packets > 100, "workload too light to be meaningful");
    }

    #[test]
    fn active_set_matches_full_scan_when_saturated() {
        // Oversubscription exercises backpressure and unfinished-packet
        // accounting: the run drops nothing, its unfinished packets alone
        // make it saturated. Watchdog drops are pinned by the cyclic
        // deadlock case in `tests/loop_identity.rs`.
        let t = Topology::mesh(2, 1, 100.0);
        let flow = FlowSpec::single_path(
            NodeId::new(0),
            NodeId::new(1),
            mbps(400.0),
            vec![t.find_link(NodeId::new(0), NodeId::new(1)).unwrap()],
        );
        let report = assert_loops_agree(&t, vec![flow], quick_config());
        assert!(report.saturated());
        assert_eq!(report.dropped_packets, 0);
        assert!(report.unfinished_measured_packets > 0);
    }

    #[test]
    fn active_set_matches_full_scan_on_slow_links() {
        // Sub-flit-per-cycle rates make the lazy token replay do real
        // work: a 100 MB/s link accrues 0.1 B/cycle against 4 B flits, so
        // reactivated links replay long idle stretches.
        let t = Topology::mesh(3, 3, 100.0);
        let flow = FlowSpec::single_path(
            NodeId::new(0),
            NodeId::new(2),
            mbps(60.0),
            path(&t, &[(0, 1), (1, 2)]),
        );
        let report = assert_loops_agree(&t, vec![flow], quick_config());
        assert!(report.delivered_packets > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = mesh();
        let mk = || {
            FlowSpec::single_path(
                NodeId::new(0),
                NodeId::new(2),
                mbps(300.0),
                path(&t, &[(0, 1), (1, 2)]),
            )
        };
        let r1 = Simulator::new(&t, vec![mk()], quick_config()).run();
        let r2 = Simulator::new(&t, vec![mk()], quick_config()).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn zero_measure_window_throughput_is_zero_not_nan() {
        // SimReport fields are public; a hand-built report (or one merged
        // from partial windows) must not turn 0/0 into NaN.
        let report = SimReport {
            cycles: 0,
            generated_packets: 0,
            delivered_packets: 0,
            dropped_packets: 0,
            unfinished_measured_packets: 0,
            latency: LatencyStats::new(),
            network_latency: LatencyStats::new(),
            per_flow_latency: Vec::new(),
            link_flits: vec![42],
            measure_cycles: 0,
            flit_bytes: 4,
        };
        let tput = report.link_throughput_mbps(LinkId::new(0));
        assert_eq!(tput, Mbps::ZERO);
        assert!(!tput.to_f64().is_nan());
    }

    #[test]
    #[should_panic(expected = "measurement window must be non-empty")]
    fn empty_measure_window_rejected_at_construction() {
        let t = mesh();
        let flow =
            FlowSpec::single_path(NodeId::new(0), NodeId::new(1), mbps(10.0), path(&t, &[(0, 1)]));
        let config = SimConfig { measure_cycles: 0, ..Default::default() };
        let _ = Simulator::new(&t, vec![flow], config);
    }

    #[test]
    fn zero_rate_flow_generates_nothing() {
        let t = mesh();
        let flow =
            FlowSpec::single_path(NodeId::new(0), NodeId::new(1), Mbps::ZERO, path(&t, &[(0, 1)]));
        let mut sim = Simulator::new(&t, vec![flow], quick_config());
        let report = sim.run();
        assert_eq!(report.generated_packets, 0);
        assert_eq!(report.avg_latency_cycles(), Latency::ZERO);
    }
}
