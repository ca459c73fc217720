//! The network simulator: one flit-level model, three main loops.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use noc_graph::{LinkId, Topology};
use noc_probe::{Counter, Probe};

use crate::config::SimConfig;
use crate::event::{Component, TickQueue};
use crate::packet::Packet;
use crate::router::{Buffer, ChannelState, FlitRef};
use crate::stats::LatencyStats;
use crate::traffic::{BurstSource, FlowSpec};
use noc_units::{CycleFrac, Latency, Mbps};

/// Cycles without any flit movement (while traffic is in flight) after
/// which the oldest in-network packet is dropped to break a deadlock.
const STALL_THRESHOLD: u64 = 5_000;

/// Run-relative cycles a [`LoopKind::Hybrid`] run must cover before its
/// executed-cycle fraction is trusted as a density signal — short runs
/// and start-up transients should not trigger the fall-back.
const HYBRID_MIN_WINDOW: u64 = 4_096;

/// Executed-cycle percentage above which [`LoopKind::Hybrid`] abandons
/// the tick queue: when most cycles execute anyway, queue maintenance
/// costs more than the handful of skips it buys.
const HYBRID_DENSITY_PCT: u64 = 55;

/// Iteration bound of the frozen-state serialization-token replay that
/// predicts a blocked link's wake-up cycle. Crossing the one-flit
/// threshold takes `⌈flit_bytes / rate⌉` accrual cycles (~40 for the
/// slowest realistic links); if a degenerate rate has not crossed within
/// the bound, the link is conservatively woken at the bound to re-predict
/// from advanced state — progress is guaranteed either way.
const TOKEN_REPLAY_BOUND: u64 = 10_000;

/// `link_token_ready` cache sentinel: no valid prediction, recompute.
const TOKEN_READY_UNKNOWN: u64 = u64::MAX;

/// `link_token_ready` cache sentinel: the balance can never cross the
/// threshold ([`Simulator::token_ready_cycle`] returned `None`).
const TOKEN_READY_NEVER: u64 = u64::MAX - 1;

/// Which main-loop implementation [`Simulator::run`] uses. All variants
/// produce bit-identical [`SimReport`]s (pinned by the loop-agreement
/// unit tests and the `event_queue_identity` differential suite); they
/// differ only in how much idle work they skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopKind {
    /// Visit every router and link every cycle (the original loop) —
    /// kept as the reference implementation and benchmark baseline.
    FullScan,
    /// Cycle-stepped, but visit only the ejection ports and links in the
    /// active index set — those with a channel owner or a head flit bound
    /// for them — replaying the skipped cycles' serialization-token
    /// accrual lazily when a link is next visited. Retained as the
    /// cycle-stepped oracle the event-queue loop is differentially tested
    /// against.
    ActiveSet,
    /// Event-driven: a tick queue (`crate::event`, private) of
    /// per-component (source, router, link, watchdog) next-active cycles
    /// skips idle *time* rather than merely idle ports and links within a
    /// cycle. Executed cycles run the exact [`LoopKind::ActiveSet`] scan,
    /// so reports stay bit-identical while mostly-idle stretches —
    /// low-load sweeps, long drain windows — collapse to their handful of
    /// active cycles.
    #[default]
    EventQueue,
    /// Density-adaptive: starts event-driven and permanently falls back
    /// to cycle-stepping once the run's executed-cycle fraction proves
    /// the load dense (most cycles execute anyway, so queue maintenance
    /// is pure overhead — the ~9% event-queue deficit on saturated
    /// Fig. 5(c)-class loads). The switch happens at an executed-tick
    /// boundary, where both regimes agree on the whole state, so reports
    /// stay bit-identical to the other loop kinds.
    Hybrid,
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
/// reports stay byte-identical with probes on, off, or compiled out.
///
/// Wake-up counters tally scheduling *requests* by reason, before the
/// tick queue's dedup (the interesting signal is how often each
/// mechanism fires, not how many queue slots survive coalescing).
#[derive(Debug, Clone, Default)]
struct SimCounters {
    cycles_executed: Counter,
    cycles_skipped: Counter,
    wake_source: Counter,
    wake_eligibility: Counter,
    wake_token_ready: Counter,
    wake_backpressure: Counter,
    wake_tail_release: Counter,
    wake_watchdog: Counter,
    sched_near: Counter,
    sched_heap: Counter,
}

impl SimCounters {
    fn new(probe: &Probe) -> Self {
        Self {
            cycles_executed: probe.counter("sim.cycles_executed"),
            cycles_skipped: probe.counter("sim.cycles_skipped"),
            wake_source: probe.counter("sim.wake_source"),
            wake_eligibility: probe.counter("sim.wake_eligibility"),
            wake_token_ready: probe.counter("sim.wake_token_ready"),
            wake_backpressure: probe.counter("sim.wake_backpressure"),
            wake_tail_release: probe.counter("sim.wake_tail_release"),
            wake_watchdog: probe.counter("sim.wake_watchdog"),
            sched_near: probe.counter("sim.sched_near"),
            sched_heap: probe.counter("sim.sched_heap"),
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
    link_dst: Vec<usize>,
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
    /// Node each injection queue feeds, by queue index.
    queue_node: Vec<usize>,
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
    /// Memoized [`Self::token_ready_cycle`] per link: the absolute cycle
    /// the balance next crosses the one-flit threshold, or a sentinel
    /// ([`TOKEN_READY_UNKNOWN`], [`TOKEN_READY_NEVER`]). Accrual is
    /// deterministic, so a prediction stays valid until a send perturbs
    /// the balance; without the cache a token-blocked link would re-run
    /// the fp-exact replay on every executed cycle of its wait.
    link_token_ready: Vec<u64>,
    /// Wormhole channel state of every output, by output id.
    channels: Vec<ChannelState>,
    /// Flits currently buffered at each node's inputs (link buffers at the
    /// link's downstream node plus local injection queues). Gates the
    /// tail-release wake-ups: a released channel can only be claimed by
    /// a flit already buffered at its node.
    node_flits: Vec<u32>,
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
    /// Cycles the main loop actually ran the scan passes for — equal to
    /// `cycle` under the cycle-stepped loops, typically far smaller under
    /// [`LoopKind::EventQueue`]. Maintained unconditionally (it is one
    /// add per executed cycle) so [`Self::executed_cycle_fraction`] works
    /// without the `probe` feature.
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
        let mut queue_node = Vec::new();
        let mut flow_queue = Vec::with_capacity(flows.len());
        for flow in &flows {
            flow_queue.push(dense(link_count + queue_route.len()));
            for wp in &flow.paths {
                inputs_of[flow.source.index()].push(dense(link_count + queue_route.len()));
                queue_route.push(dense(routes.len()));
                queue_node.push(flow.source.index());
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
            link_dst: topology.links().map(|(_, l)| l.dst.index()).collect(),
            link_rate: topology
                .links()
                .map(|(_, l)| SimConfig::bytes_per_cycle(l.capacity))
                .collect(),
            node_input_start,
            node_inputs: inputs_of.concat(),
            routes,
            queue_route,
            queue_node,
            flow_queue,
            flits_per_packet: dense(config.flits_per_packet()),
            cycle: 0,
            packets: Vec::new(),
            free_slots: Vec::new(),
            buffers,
            link_tokens: vec![0.0; link_count],
            link_token_due: vec![0; link_count],
            link_token_ready: vec![TOKEN_READY_UNKNOWN; link_count],
            channels: vec![ChannelState::default(); link_count + node_count],
            node_flits: vec![0; node_count],
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
    /// [`LoopKind::EventQueue`]). All loops produce bit-identical reports;
    /// [`LoopKind::FullScan`] exists as the reference baseline and
    /// [`LoopKind::ActiveSet`] as the cycle-stepped oracle the identity
    /// suites diff the event-queue loop against.
    pub fn set_loop_kind(&mut self, kind: LoopKind) {
        self.loop_kind = kind;
    }

    /// Attaches a telemetry probe (see `crates/probe`). The simulator
    /// only ever *writes* to it, so attaching one cannot change any
    /// report — pinned by the probe-identity differential suite.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.counters = SimCounters::new(probe);
    }

    /// Cycles whose scan passes actually ran (all of them under the
    /// cycle-stepped loops; only provably-relevant ones under
    /// [`LoopKind::EventQueue`]).
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }

    /// Fraction of simulated cycles actually executed so far — the
    /// workload-density signal [`LoopKind::Hybrid`] switches on: near
    /// 1.0 the event queue is pure overhead, near 0.0 it is the whole
    /// win. Returns zero before any cycle has been simulated.
    pub fn executed_cycle_fraction(&self) -> CycleFrac {
        if self.cycle == 0 {
            return CycleFrac::ZERO;
        }
        CycleFrac::raw(self.executed_cycles as f64 / self.cycle as f64)
    }

    /// Runs warm-up, measurement and drain, returning the report.
    pub fn run(&mut self) -> SimReport {
        let total =
            self.config.warmup_cycles + self.config.measure_cycles + self.config.drain_cycles;
        let generation_end = self.config.warmup_cycles + self.config.measure_cycles;
        let cycle_before = self.cycle;
        let executed_before = self.executed_cycles;
        if matches!(self.loop_kind, LoopKind::EventQueue | LoopKind::Hybrid) {
            self.run_event_queue(total, generation_end);
        } else {
            while self.cycle < total {
                self.step(self.cycle < generation_end);
            }
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

    /// Advances the cycle-stepped simulation by one cycle. `generate`
    /// gates the traffic sources (off during the drain window).
    fn step(&mut self, generate: bool) {
        if generate {
            self.generate_traffic(None);
        }
        self.eject(None);
        self.traverse_links(None);
        self.watchdog();
        self.cycle += 1;
        self.executed_cycles += 1;
    }

    /// The event-driven main loop: executes only the cycles the tick
    /// queue proves *could* matter, running the exact active-set scan at
    /// each. Between executed cycles the state is frozen — no source is
    /// due, no flit's pipeline delay expires into an enabled move, no
    /// serialization-token threshold is crossed and the watchdog deadline
    /// is not reached — so skipping them is observationally identical to
    /// stepping through them. The scan passes collect the time-triggered
    /// wake-ups; every *state* change that can enable a move elsewhere
    /// (a pop freeing buffer space, a buffer gaining a new front, a tail
    /// releasing its channel, a packet entering an empty injection queue)
    /// schedules a targeted wake-up at its own mutation site. Only a
    /// watchdog purge — which rewrites fronts, channels and occupancy all
    /// over the network at once — falls back to rescanning the next cycle
    /// wholesale.
    fn run_event_queue(&mut self, total: u64, generation_end: u64) {
        let mut window_start = self.cycle;
        let mut window_executed = self.executed_cycles;
        let mut queue = TickQueue::new(self.node_count, self.link_count, self.sources.len());
        queue.set_counters(self.counters.sched_near.clone(), self.counters.sched_heap.clone());
        for (i, &fire) in self.source_due.iter().enumerate() {
            if fire < generation_end {
                self.counters.wake_source.inc();
                queue.schedule(fire, Component::Source(i));
            }
        }
        self.counters.wake_watchdog.inc();
        queue.schedule(self.last_progress + STALL_THRESHOLD, Component::Watchdog);
        let mut next = queue.pop_due(total);
        while let Some(tick) = next {
            self.cycle = tick;
            self.executed_cycles += 1;
            if tick < generation_end {
                self.generate_traffic(Some(&mut queue));
            }
            self.eject(Some(&mut queue));
            self.traverse_links(Some(&mut queue));
            let purged = self.watchdog();
            // The watchdog must fire at exactly `last_progress +
            // STALL_THRESHOLD` like the per-cycle check would; it also
            // bounds how far the loop can skip ahead, keeping every
            // conservative wake-up within one stall window.
            self.counters.wake_watchdog.inc();
            queue.schedule(self.last_progress + STALL_THRESHOLD, Component::Watchdog);
            if purged {
                self.counters.wake_watchdog.inc();
                queue.schedule(self.cycle + 1, Component::Watchdog);
            }
            // Hybrid density fall-back: once a long enough *recent*
            // window shows most cycles executing anyway, the tick queue
            // is pure overhead — finish the run cycle-stepped. A sparse
            // window re-baselines instead (a busy start must not forfeit
            // the idle tail), and the check only arms while sources
            // generate: the drain goes idle and is the event queue's
            // best case. The switch lands on an executed-tick boundary,
            // where the event-driven and stepped regimes agree on the
            // entire network state, so the report is unaffected.
            if self.loop_kind == LoopKind::Hybrid && tick < generation_end {
                let window = tick - window_start + 1;
                if window >= HYBRID_MIN_WINDOW {
                    let executed = self.executed_cycles - window_executed;
                    if executed * 100 > window * HYBRID_DENSITY_PCT {
                        self.cycle = tick + 1;
                        while self.cycle < total {
                            self.step(self.cycle < generation_end);
                        }
                        return;
                    }
                    window_start = tick + 1;
                    window_executed = self.executed_cycles;
                }
            }
            next = queue.pop_due(total);
        }
        self.cycle = total;
    }

    fn in_measurement_window(&self) -> bool {
        self.cycle >= self.config.warmup_cycles
            && self.cycle < self.config.warmup_cycles + self.config.measure_cycles
    }

    /// Polls every due source for its packet. With a tick queue attached,
    /// each fired source's next injection cycle is scheduled (sources that
    /// are not due keep their already-pending wake-up, and skipping their
    /// poll draws no randomness, so the RNG stream matches polling every
    /// source every cycle).
    fn generate_traffic(&mut self, mut sched: Option<&mut TickQueue>) {
        if self.cycle < self.first_due {
            return;
        }
        let generation_end = self.config.warmup_cycles + self.config.measure_cycles;
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
            let queue = self.flow_queue[i] + dense(path_idx);
            let route = self.queue_route[queue as usize - self.link_count];
            let source = self.flows[i].source.index();
            let was_empty = self.buffers[queue as usize].is_empty();
            for flit in 0..self.flits_per_packet {
                self.buffers[queue as usize].push(FlitRef {
                    packet: slot,
                    flit,
                    route,
                    arrived: self.cycle,
                });
            }
            self.node_flits[source] += self.flits_per_packet;
            if was_empty {
                // The packet's head is the queue's new front.
                self.mark_busy(self.route_output(route));
            }
            if let Some(q) = sched.as_deref_mut() {
                if was_empty {
                    // The queue gained a front: it is now a
                    // forwarding/ejection candidate.
                    self.schedule_front_wake(q, queue);
                }
                let fire = self.source_due[i];
                if fire < generation_end {
                    self.counters.wake_source.inc();
                    q.schedule(fire, Component::Source(i));
                }
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

    /// Per-hop delay of a buffered flit: head flits pay the router
    /// pipeline, body/tail flits stream.
    fn flit_delay(&self, flit: &FlitRef) -> u64 {
        if flit.flit == 0 {
            self.config.router_pipeline_cycles
        } else {
            1
        }
    }

    /// A flit may leave its buffer once its per-hop delay has elapsed.
    /// `arrived + delay` is also the flit's *eligibility cycle* — the
    /// event-queue loop's wake-up for moves blocked purely on this delay.
    fn eligible(&self, flit: &FlitRef) -> bool {
        flit.arrived + self.flit_delay(flit) <= self.cycle
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
    /// scan finds no winner and derives no retry — apart from the token
    /// accrual a link visit replays, which `sync_link_tokens` replays
    /// identically whenever the link is next visited.
    fn next_visit(&self, from: usize, end: usize) -> Option<usize> {
        if self.loop_kind == LoopKind::FullScan {
            (from < end).then_some(from)
        } else {
            next_set_bit(&self.out_active, from, end)
        }
    }

    /// Gives output `out`'s channel to `packet` at `input`.
    fn allocate(&mut self, out: usize, input: u32, packet: u32) {
        self.channels[out].allocate(input, packet);
        self.mark_busy(out);
    }

    /// Frees output `out`'s channel.
    fn release(&mut self, out: usize) {
        self.channels[out].release();
        self.unmark_busy(out);
    }

    /// Pops the front flit of `input` at `node`, keeping the node's
    /// occupancy and the active index set in step: the popped flit leaves
    /// the set if it was a head, and a head exposed behind it joins.
    fn pop_front(&mut self, input: u32, node: usize) -> FlitRef {
        let buffer = &mut self.buffers[input as usize];
        let flit = buffer.pop().expect("front exists");
        let exposed = buffer.front().filter(|f| f.flit == 0).map(|f| f.route);
        self.node_flits[node] -= 1;
        if flit.flit == 0 {
            self.unmark_busy(self.route_output(flit.route));
        }
        if let Some(route) = exposed {
            self.mark_busy(self.route_output(route));
        }
        flit
    }

    /// Ejection pass. With a tick queue attached, every move blocked
    /// *purely on time* — an ejectable front whose per-hop delay has not
    /// elapsed — schedules the node at its eligibility cycle; moves
    /// blocked on state (channel held by another packet, front mid-packet
    /// elsewhere) need no wake-up of their own, since the enabling state
    /// change is itself a movement and every movement wakes exactly what
    /// it could have enabled ([`Self::wake_after_pop`], the tail-release
    /// wake below).
    fn eject(&mut self, mut sched: Option<&mut TickQueue>) {
        self.debug_check_active_set();
        let end = self.link_count + self.node_count;
        let mut from = self.link_count;
        while let Some(out) = self.next_visit(from, end) {
            from = out + 1;
            let node = out - self.link_count;
            // Earliest future cycle a currently-blocked ejection at this
            // node becomes eligible (`u64::MAX` = nothing time-blocked).
            let mut retry = u64::MAX;
            'node: {
                // Allocate the ejection channel if free.
                if self.channels[out].owner.is_none() {
                    let inputs = self.inputs(node);
                    let count = inputs.len();
                    let start = self.channels[out].rr_next as usize;
                    let mut winner = None;
                    for off in 0..count {
                        let input = inputs[(start + off) % count];
                        let Some(front) = self.buffers[input as usize].front() else {
                            continue;
                        };
                        if front.flit == 0 && self.next_output(front) == out {
                            if self.eligible(front) {
                                winner = Some((input, front.packet, off));
                                break;
                            }
                            retry = retry.min(front.arrived + self.flit_delay(front));
                        }
                    }
                    if let Some((input, packet, off)) = winner {
                        self.allocate(out, input, packet);
                        self.channels[out].rr_next = dense((start + off + 1) % count);
                    }
                }
                // Move one flit through the allocated ejection channel.
                let Some((input, packet)) = self.channels[out].owner else {
                    break 'node;
                };
                let Some(&front) = self.buffers[input as usize].front() else {
                    break 'node;
                };
                if front.packet != packet {
                    break 'node;
                }
                if !self.eligible(&front) {
                    retry = retry.min(front.arrived + self.flit_delay(&front));
                    break 'node;
                }
                let was_full = !self.buffers[input as usize].has_space();
                let flit = self.pop_front(input, node);
                self.last_progress = self.cycle;
                let is_tail = flit.flit + 1 == self.flits_per_packet;
                if is_tail {
                    self.release(out);
                    self.complete_packet(packet);
                }
                if let Some(q) = sched.as_deref_mut() {
                    self.wake_after_pop(q, input, was_full);
                    if is_tail && self.node_flits[node] > 0 {
                        // Ejection channel released: any other buffered
                        // flit at this node may now be allocatable.
                        self.counters.wake_tail_release.inc();
                        q.schedule(self.cycle + 1, Component::Node(node));
                    }
                }
            }
            if let Some(q) = sched.as_deref_mut() {
                if retry != u64::MAX {
                    self.counters.wake_eligibility.inc();
                    q.schedule(retry, Component::Node(node));
                }
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

    /// Link pass. With a tick queue attached, every forward blocked purely
    /// on *time* — a candidate flit's per-hop delay or the link's
    /// serialization-token threshold — schedules the link at the cycle the
    /// blockage expires; forwards blocked on state (full downstream
    /// buffer, channel held, front mid-packet elsewhere) are woken by the
    /// enabling movement itself ([`Self::wake_after_pop`] and the
    /// tail-release / new-downstream-front wakes in the forward below).
    fn traverse_links(&mut self, mut sched: Option<&mut TickQueue>) {
        let flit_bytes = self.config.flit_bytes as f64;
        let mut from = 0;
        while let Some(link) = self.next_visit(from, self.link_count) {
            from = link + 1;
            let upstream = self.link_src[link];
            // Serialization: accumulate tokens. The cap must exceed one
            // flit so the fractional remainder after a send carries over
            // (otherwise every rate between flit/3 and flit/2 bytes-per-
            // cycle would quantize to the same 3-cycle serialization);
            // two flits' worth bounds idle bursts to a single extra flit.
            self.sync_link_tokens(link);
            let has_tokens = self.link_tokens[link] >= flit_bytes;
            let has_space = self.buffers[link].has_space();
            // Earliest future cycle a candidate flit's per-hop delay
            // expires (`u64::MAX` = no candidate is time-blocked).
            let mut elig_retry = u64::MAX;
            'link: {
                if !has_tokens || !has_space {
                    // Token-starved with room downstream: find when the
                    // current candidate (if any) could go, so the token
                    // wake-up below can wait for *both* conditions. Only
                    // worth deriving when no wake-up is already pending —
                    // the pending one either fires into an enabled forward
                    // or clears its slot for a fresh derivation here. A
                    // full buffer, by contrast, frees only via a
                    // downstream pop, and that pop wakes this link itself.
                    if !has_tokens && has_space {
                        if let Some(q) = sched.as_deref_mut() {
                            if !q.has_pending(Component::Link(link)) {
                                elig_retry = self.link_candidate_ready(link, upstream);
                            }
                        }
                    }
                    break 'link;
                }

                // Allocate the channel to a head flit if free.
                if self.channels[link].owner.is_none() {
                    let inputs = self.inputs(upstream);
                    let count = inputs.len();
                    let start = self.channels[link].rr_next as usize;
                    let mut winner = None;
                    for off in 0..count {
                        let input = inputs[(start + off) % count];
                        let Some(front) = self.buffers[input as usize].front() else {
                            continue;
                        };
                        if front.flit == 0 && self.next_output(front) == link {
                            if self.eligible(front) {
                                winner = Some((input, front.packet, off));
                                break;
                            }
                            elig_retry = elig_retry.min(front.arrived + self.flit_delay(front));
                        }
                    }
                    if let Some((input, packet, off)) = winner {
                        self.allocate(link, input, packet);
                        self.channels[link].rr_next = dense((start + off + 1) % count);
                    }
                }

                // Forward one flit of the owning packet.
                let Some((input, packet)) = self.channels[link].owner else {
                    break 'link;
                };
                let Some(&front) = self.buffers[input as usize].front() else {
                    break 'link;
                };
                if front.packet != packet {
                    break 'link;
                }
                if !self.eligible(&front) {
                    elig_retry = elig_retry.min(front.arrived + self.flit_delay(&front));
                    break 'link;
                }
                let was_full = !self.buffers[input as usize].has_space();
                let flit = self.pop_front(input, upstream);
                if input as usize >= self.link_count && flit.flit == 0 {
                    let p = self.packets[flit.packet as usize].as_mut().expect("live packet");
                    p.injected_at = Some(self.cycle);
                }
                self.link_tokens[link] -= flit_bytes;
                self.link_token_ready[link] = TOKEN_READY_UNKNOWN;
                self.last_progress = self.cycle;
                if self.in_measurement_window() {
                    self.link_flits[link] += 1;
                }
                let is_tail = flit.flit + 1 == self.flits_per_packet;
                if is_tail {
                    self.release(link);
                }
                let dst = self.link_dst[link];
                let dst_was_empty = self.buffers[link].is_empty();
                let route = flit.route + 1;
                self.buffers[link].push(FlitRef {
                    packet: flit.packet,
                    flit: flit.flit,
                    route,
                    arrived: self.cycle,
                });
                self.node_flits[dst] += 1;
                if dst_was_empty && flit.flit == 0 {
                    self.mark_busy(self.route_output(route));
                }
                if let Some(q) = sched.as_deref_mut() {
                    if was_full && (input as usize) < self.link_count {
                        self.counters.wake_backpressure.inc();
                        q.schedule(self.cycle + 1, Component::Link(input as usize));
                    }
                    match self.buffers[input as usize].front() {
                        // Streaming continuation (the hot path): the new
                        // front is the owning packet's next flit, bound
                        // for this same link — whose tokens are already
                        // synced, with the send's spend applied.
                        Some(&nf) if !is_tail && nf.packet == packet => {
                            let elig = (nf.arrived + self.flit_delay(&nf)).max(self.cycle + 1);
                            if self.link_tokens[link] >= flit_bytes {
                                self.counters.wake_eligibility.inc();
                                q.schedule(elig, Component::Link(link));
                            } else if let Some(t) = self.cached_token_ready(link, flit_bytes) {
                                self.counters.wake_token_ready.inc();
                                q.schedule(t.max(elig), Component::Link(link));
                            }
                        }
                        Some(_) => self.schedule_front_wake(q, input),
                        None => {}
                    }
                    if is_tail && self.node_flits[upstream] > 0 {
                        // Channel released: another packet's head flit at
                        // this node may now be allocatable onto the link.
                        self.counters.wake_tail_release.inc();
                        q.schedule(self.cycle + 1, Component::Link(link));
                    }
                    if dst_was_empty {
                        // The forwarded flit is the new front downstream.
                        self.schedule_front_wake(q, dense(link));
                    }
                }
            }
            if let Some(q) = sched.as_deref_mut() {
                // A token-starved link must wait for the later of the
                // token crossing and the candidate's eligibility; with no
                // time-blocked candidate at all there is nothing to wake
                // for (a candidate appearing is a movement → cascade).
                let retry = if has_tokens {
                    elig_retry
                } else if elig_retry == u64::MAX {
                    u64::MAX
                } else {
                    match self.cached_token_ready(link, flit_bytes) {
                        Some(t) => t.max(elig_retry),
                        None => u64::MAX,
                    }
                };
                if retry != u64::MAX {
                    if has_tokens {
                        self.counters.wake_eligibility.inc();
                    } else {
                        self.counters.wake_token_ready.inc();
                    }
                    q.schedule(retry, Component::Link(link));
                }
            }
        }
    }

    /// Wakes whatever a pop from the buffer `input` could have enabled:
    /// the link feeding that buffer, if the pop freed its only space (a
    /// space-blocked link frees *only* through such a pop), and the
    /// buffer's new front, which just became a forwarding/ejection
    /// candidate.
    fn wake_after_pop(&mut self, q: &mut TickQueue, input: u32, was_full: bool) {
        if was_full && (input as usize) < self.link_count {
            self.counters.wake_backpressure.inc();
            q.schedule(self.cycle + 1, Component::Link(input as usize));
        }
        self.schedule_front_wake(q, input);
    }

    /// Schedules the wake-up for the front of the buffer `input`, at the
    /// earliest future cycle it could move: its pipeline
    /// eligibility, pushed past the serialization-token crossing of the
    /// link it wants (a flit bound for a starved link cannot move at
    /// eligibility anyway). Conservative — channel or buffer-space
    /// conflicts at that cycle re-arm through the scan's own retry logic
    /// or the movement that resolves them. No wake is scheduled for an
    /// empty buffer (a push will wake the new front) or when the tokens
    /// can never cross (the oracle never moves that flit either; the
    /// watchdog eventually purges it in both loops).
    fn schedule_front_wake(&mut self, q: &mut TickQueue, input: u32) {
        let Some(&front) = self.buffers[input as usize].front() else {
            return;
        };
        let elig = (front.arrived + self.flit_delay(&front)).max(self.cycle + 1);
        match self.next_output(&front) {
            out if out >= self.link_count => {
                self.counters.wake_eligibility.inc();
                q.schedule(elig, Component::Node(out - self.link_count));
            }
            link => {
                let flit_bytes = self.config.flit_bytes as f64;
                self.sync_link_tokens(link);
                let wake = if self.link_tokens[link] >= flit_bytes {
                    self.counters.wake_eligibility.inc();
                    elig
                } else {
                    match self.cached_token_ready(link, flit_bytes) {
                        Some(t) => {
                            self.counters.wake_token_ready.inc();
                            t.max(elig)
                        }
                        None => return,
                    }
                };
                q.schedule(wake, Component::Link(link));
            }
        }
    }

    /// Earliest cycle the link's current forwarding candidate — its
    /// channel owner's front, or any allocatable head flit if the channel
    /// is free — has its per-hop delay elapsed (`u64::MAX` = no candidate,
    /// or the owner's flit is not at a buffer front yet). Pure frozen-state
    /// prediction for the token-starved case; may be in the past when the
    /// candidate is already eligible and only tokens are missing.
    fn link_candidate_ready(&self, link: usize, upstream: usize) -> u64 {
        match self.channels[link].owner {
            Some((input, packet)) => match self.buffers[input as usize].front() {
                Some(front) if front.packet == packet => front.arrived + self.flit_delay(front),
                _ => u64::MAX,
            },
            None => {
                let mut best = u64::MAX;
                for &input in self.inputs(upstream) {
                    if let Some(front) = self.buffers[input as usize].front() {
                        if front.flit == 0 && self.next_output(front) == link {
                            best = best.min(front.arrived + self.flit_delay(front));
                        }
                    }
                }
                best
            }
        }
    }
    /// First cycle after the current one at which `link`'s token balance
    /// reaches one flit, replaying the *exact* capped additions
    /// [`sync_link_tokens`] will perform (fp-identical — a closed-form
    /// `k * rate` is not) on a local copy. `None` means the balance can
    /// never cross: zero rate, or an fp fixed point below the threshold
    /// (the cycle-stepped oracle would never cross either).
    /// [`Self::token_ready_cycle`] through the per-link memo. A cached
    /// prediction at or before the current cycle is recomputed: it came
    /// from the conservative replay bound, and its wake-up has now
    /// arrived with the threshold still uncrossed.
    fn cached_token_ready(&mut self, link: usize, flit_bytes: f64) -> Option<u64> {
        match self.link_token_ready[link] {
            TOKEN_READY_NEVER => None,
            t if t != TOKEN_READY_UNKNOWN && t > self.cycle => Some(t),
            _ => {
                // The prediction replays from the current balance, which
                // must first absorb any accrual the link has not yet seen.
                self.sync_link_tokens(link);
                let computed = self.token_ready_cycle(link, flit_bytes);
                self.link_token_ready[link] = computed.unwrap_or(TOKEN_READY_NEVER);
                computed
            }
        }
    }

    fn token_ready_cycle(&self, link: usize, flit_bytes: f64) -> Option<u64> {
        let cap = 2.0 * flit_bytes;
        let rate = self.link_rate[link];
        if rate <= 0.0 {
            return None;
        }
        let mut tokens = self.link_tokens[link];
        let mut t = self.cycle;
        for _ in 0..TOKEN_REPLAY_BOUND {
            t += 1;
            let next = (tokens + rate).min(cap);
            if next >= flit_bytes {
                return Some(t);
            }
            if next == tokens {
                return None; // fixed point below the threshold
            }
            tokens = next;
        }
        Some(t) // conservative wake-up; re-predict from advanced state
    }

    /// Deadlock recovery: if nothing has moved for [`STALL_THRESHOLD`]
    /// cycles while flits wait in *network* buffers, drop the oldest
    /// in-network packet. Source-queue-only stalls are legitimate idle
    /// periods and are ignored. Returns whether a packet was purged — a
    /// purge rewrites buffer fronts, channel owners and occupancy across
    /// the whole network, so it recounts the active index set from
    /// scratch, and the event-queue loop rescans the next cycle wholesale
    /// instead of enumerating what it could have enabled.
    fn watchdog(&mut self) -> bool {
        if self.cycle - self.last_progress < STALL_THRESHOLD {
            return false;
        }
        let link_buffers = &self.buffers[..self.link_count];
        let network_busy = link_buffers.iter().any(|b| !b.is_empty());
        if !network_busy {
            self.last_progress = self.cycle;
            return false;
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
            return false;
        };
        for input in 0..self.buffers.len() {
            let purged = self.buffers[input].purge_packet(slot);
            let node = self.input_node(input);
            self.node_flits[node] -= dense(purged);
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
        true
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

    /// Node whose router the input `input` feeds.
    fn input_node(&self, input: usize) -> usize {
        if input < self.link_count {
            self.link_dst[input]
        } else {
            self.queue_node[input - self.link_count]
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

    /// Runs the same flow set under every main loop and asserts the
    /// reports are bit-identical (PartialEq compares every f64 exactly).
    fn assert_loops_agree(t: &Topology, flows: Vec<FlowSpec>, config: SimConfig) -> SimReport {
        let mut full = Simulator::new(t, flows.clone(), config.clone());
        full.set_loop_kind(LoopKind::FullScan);
        let full_report = full.run();
        for kind in [LoopKind::ActiveSet, LoopKind::EventQueue, LoopKind::Hybrid] {
            let mut sim = Simulator::new(t, flows.clone(), config.clone());
            sim.set_loop_kind(kind);
            assert_eq!(sim.run(), full_report, "{kind:?} loop diverged from full scan");
        }
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
        // deadlock case in `tests/event_queue_identity.rs`.
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
