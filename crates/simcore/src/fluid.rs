//! Fluid-flow bandwidth model with max-min fair sharing.
//!
//! Every shared device in the simulated cluster — NIC, fabric core,
//! OST, NVM DIMM — is a [`Resource`] with a capacity in bytes/second.
//! A data movement is a [`Flow`] traversing an ordered path of
//! resources, optionally with a per-flow rate cap (e.g. a single
//! `ofi+tcp` stream saturates ≈1.7 GiB/s no matter how fat the link).
//!
//! Rates are assigned by *progressive filling*: all unfrozen flows grow
//! at the same rate until either a flow hits its cap or a resource
//! saturates; saturated participants freeze and filling continues. This
//! yields the classic max-min fair allocation and reproduces both
//! contention (many flows on one OST) and aggregation (many node-local
//! devices in parallel) — the two mechanisms behind every throughput
//! figure in the paper.
//!
//! The network itself is a passive state machine: callers must
//! [`FluidNetwork::advance`] it to the current time before mutating it
//! and re-arm a completion event afterwards. [`crate::fluid_driver`]
//! packages that pattern for use inside a [`crate::sim::Sim`].

use std::collections::BTreeSet;

use crate::slab::{Key, Slab};
use crate::time::{SimDuration, SimTime};

/// Handle to a bandwidth resource.
pub type ResourceId = Key;
/// Handle to an in-flight flow.
pub type FlowId = Key;

/// Bytes below which a flow counts as finished (guards float rounding).
const COMPLETE_EPS: f64 = 1e-3;

#[derive(Debug)]
struct Resource {
    /// Capacity in bytes per second. May be changed at runtime (the PFS
    /// interference model modulates OST capacity).
    capacity: f64,
    /// Flows currently traversing this resource. BTreeSet keeps
    /// iteration order deterministic.
    flows: BTreeSet<FlowId>,
    label: String,
}

#[derive(Debug)]
struct Flow {
    remaining: f64,
    total: f64,
    path: Vec<ResourceId>,
    rate_cap: f64,
    rate: f64,
    started: SimTime,
    /// Caller-supplied correlation tag (task id, client id, ...).
    tag: u64,
}

/// Description of a new flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    pub bytes: f64,
    pub path: Vec<ResourceId>,
    /// Per-flow rate cap in bytes/s; `f64::INFINITY` for none.
    pub rate_cap: f64,
    pub tag: u64,
}

impl FlowSpec {
    pub fn new(bytes: f64, path: Vec<ResourceId>) -> Self {
        FlowSpec {
            bytes,
            path,
            rate_cap: f64::INFINITY,
            tag: 0,
        }
    }

    pub fn with_cap(mut self, cap: f64) -> Self {
        self.rate_cap = cap;
        self
    }

    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// A finished (or cancelled) flow, reported to the model.
#[derive(Debug, Clone)]
pub struct CompletedFlow {
    pub flow: FlowId,
    pub tag: u64,
    pub bytes: f64,
    pub started: SimTime,
    pub finished: SimTime,
}

impl CompletedFlow {
    pub fn duration(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Mean achieved bandwidth in bytes/second.
    pub fn mean_rate(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.bytes / secs
        }
    }
}

/// The passive fluid-flow state machine.
#[derive(Debug, Default)]
pub struct FluidNetwork {
    resources: Slab<Resource>,
    flows: Slab<Flow>,
    last_advance: SimTime,
    completed: Vec<CompletedFlow>,
}

impl FluidNetwork {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_resource(&mut self, capacity_bps: f64, label: impl Into<String>) -> ResourceId {
        assert!(capacity_bps >= 0.0, "negative capacity");
        self.resources.insert(Resource {
            capacity: capacity_bps,
            flows: BTreeSet::new(),
            label: label.into(),
        })
    }

    pub fn resource_capacity(&self, rid: ResourceId) -> f64 {
        self.resources[rid].capacity
    }

    pub fn resource_label(&self, rid: ResourceId) -> &str {
        &self.resources[rid].label
    }

    /// Number of flows currently traversing `rid`.
    pub fn resource_load(&self, rid: ResourceId) -> usize {
        self.resources[rid].flows.len()
    }

    /// Change a resource's capacity (callers must have advanced the
    /// network to "now" first and must recompute afterwards).
    pub fn set_capacity(&mut self, rid: ResourceId, capacity_bps: f64) {
        assert!(capacity_bps >= 0.0);
        self.resources[rid].capacity = capacity_bps;
    }

    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    pub fn flow_rate(&self, fid: FlowId) -> Option<f64> {
        self.flows.get(fid).map(|f| f.rate)
    }

    pub fn flow_remaining(&self, fid: FlowId) -> Option<f64> {
        self.flows.get(fid).map(|f| f.remaining)
    }

    pub fn flow_progress(&self, fid: FlowId) -> Option<f64> {
        self.flows
            .get(fid)
            .map(|f| 1.0 - f.remaining / f.total.max(1e-12))
    }

    /// Progress all flows to `now`, moving any that finish into the
    /// completed list. Must be called before any mutation.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt = (now - self.last_advance).as_secs_f64();
        self.last_advance = now;
        let mut done: Vec<FlowId> = Vec::new();
        for (id, flow) in self.flows.iter_mut() {
            if flow.rate > 0.0 {
                flow.remaining -= flow.rate * dt;
                if flow.remaining <= COMPLETE_EPS {
                    flow.remaining = 0.0;
                    done.push(id);
                }
            }
        }
        for id in done {
            self.finish_flow(id, now);
        }
    }

    fn finish_flow(&mut self, id: FlowId, now: SimTime) {
        let flow = self.flows.remove(id).expect("finishing unknown flow");
        for rid in &flow.path {
            if let Some(r) = self.resources.get_mut(*rid) {
                r.flows.remove(&id);
            }
        }
        self.completed.push(CompletedFlow {
            flow: id,
            tag: flow.tag,
            bytes: flow.total,
            started: flow.started,
            finished: now,
        });
    }

    /// Start a flow. Zero-byte flows complete immediately.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        assert!(spec.bytes >= 0.0, "negative flow size");
        assert!(
            !spec.path.is_empty(),
            "flow must traverse at least one resource"
        );
        let id = self.flows.insert(Flow {
            remaining: spec.bytes,
            total: spec.bytes,
            path: spec.path.clone(),
            rate_cap: spec.rate_cap,
            rate: 0.0,
            started: now,
            tag: spec.tag,
        });
        if spec.bytes <= COMPLETE_EPS {
            self.finish_flow(id, now);
            return id;
        }
        for rid in &spec.path {
            self.resources[*rid].flows.insert(id);
        }
        id
    }

    /// Abort a flow, returning the bytes it had left (None if unknown
    /// or already finished).
    pub fn cancel_flow(&mut self, fid: FlowId) -> Option<f64> {
        let flow = self.flows.remove(fid)?;
        for rid in &flow.path {
            if let Some(r) = self.resources.get_mut(*rid) {
                r.flows.remove(&fid);
            }
        }
        Some(flow.remaining)
    }

    /// Recompute the max-min fair allocation via progressive filling.
    /// O(iterations × flows×path-len); iterations ≤ #resources+#flows.
    pub fn recompute(&mut self) {
        if self.flows.is_empty() {
            return;
        }
        // Working state, indexed by slab slot (`Key::index`): the
        // unfrozen flows in key order, and how many cross each resource.
        let flow_keys: Vec<FlowId> = self.flows.iter().map(|(k, _)| k).collect();
        let flow_slots = flow_keys.iter().map(|k| k.index() + 1).max().unwrap_or(0);
        let mut rate = vec![0.0f64; flow_slots];
        let res_slots = self
            .resources
            .iter()
            .map(|(k, _)| k.index() + 1)
            .max()
            .unwrap_or(0);
        let mut remaining_cap = vec![0.0f64; res_slots];
        for (k, r) in self.resources.iter() {
            remaining_cap[k.index()] = r.capacity;
        }
        let mut unfrozen_on = vec![0usize; res_slots];
        for k in &flow_keys {
            for rid in &self.flows[*k].path {
                unfrozen_on[rid.index()] += 1;
            }
        }
        let mut unfrozen = flow_keys.clone();

        // Each iteration freezes at least one flow, so this terminates.
        while !unfrozen.is_empty() {
            // The binding increment: smallest per-flow headroom across
            // saturating resources and flow caps.
            let mut inc = f64::INFINITY;
            for (r, n) in unfrozen_on.iter().enumerate() {
                if *n > 0 {
                    inc = inc.min(remaining_cap[r].max(0.0) / *n as f64);
                }
            }
            for k in &unfrozen {
                inc = inc.min(self.flows[*k].rate_cap - rate[k.index()]);
            }
            if !inc.is_finite() {
                // All unfrozen flows are uncapped and cross no finite
                // resource: give them "infinite" rate (completes next
                // tick); practically this cannot happen since every
                // resource has finite capacity.
                inc = 0.0;
            }
            let inc = inc.max(0.0);

            // Apply the increment.
            for k in &unfrozen {
                rate[k.index()] += inc;
            }
            for (r, n) in unfrozen_on.iter().enumerate() {
                if *n > 0 {
                    remaining_cap[r] -= inc * *n as f64;
                }
            }

            // Freeze flows at their cap and flows crossing saturated
            // resources; if none is, a numerical stall, freeze them all.
            let frozen = |k: &FlowId| {
                let f = &self.flows[*k];
                let at_cap = rate[k.index()] >= f.rate_cap - 1e-9;
                let saturated = f.path.iter().any(|rid| {
                    remaining_cap[rid.index()] <= self.resources[*rid].capacity * 1e-12 + 1e-9
                });
                at_cap || saturated
            };
            let stalled = !unfrozen.iter().any(frozen);
            unfrozen.retain(|k| {
                let keep = !stalled && !frozen(k);
                if !keep {
                    for rid in &self.flows[*k].path {
                        unfrozen_on[rid.index()] -= 1;
                    }
                }
                keep
            });
        }

        for k in flow_keys {
            self.flows[k].rate = rate[k.index()];
        }
    }

    /// Earliest instant at which some flow completes at current rates.
    pub fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for (_, f) in self.flows.iter() {
            if f.rate > 0.0 {
                let secs = f.remaining / f.rate;
                // Round up to the next nanosecond so the event never
                // fires before the flow has actually drained.
                let ns = (secs * 1e9).ceil() as u64;
                let t = self.last_advance + SimDuration::from_nanos(ns.max(1));
                best = Some(match best {
                    Some(b) => b.min(t),
                    None => t,
                });
            }
        }
        best
    }

    /// Drain the completed-flow list.
    pub fn take_completed(&mut self) -> Vec<CompletedFlow> {
        std::mem::take(&mut self.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let f = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        assert!((net.flow_rate(f).unwrap() - 100.0).abs() < 1e-9);
        let done_at = net.next_completion().unwrap();
        assert!((done_at.as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let a = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        let b = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        assert!((net.flow_rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn per_flow_cap_limits_and_leftover_is_shared() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let capped = net.start_flow(
            SimTime::ZERO,
            FlowSpec::new(1000.0, vec![link]).with_cap(10.0),
        );
        let free = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        assert!((net.flow_rate(capped).unwrap() - 10.0).abs() < 1e-9);
        // Max-min: the uncapped flow takes the rest.
        assert!((net.flow_rate(free).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_is_respected_on_multi_resource_paths() {
        let mut net = FluidNetwork::new();
        let nic = net.add_resource(100.0, "nic");
        let core = net.add_resource(40.0, "core");
        let f = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![nic, core]));
        net.recompute();
        assert!((net.flow_rate(f).unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_on_asymmetric_paths() {
        // Two flows share link A (cap 100); one of them also crosses
        // link B (cap 30). Max-min: constrained flow gets 30, the other
        // gets 70.
        let mut net = FluidNetwork::new();
        let a = net.add_resource(100.0, "A");
        let b = net.add_resource(30.0, "B");
        let f1 = net.start_flow(SimTime::ZERO, FlowSpec::new(1e6, vec![a, b]));
        let f2 = net.start_flow(SimTime::ZERO, FlowSpec::new(1e6, vec![a]));
        net.recompute();
        assert!((net.flow_rate(f1).unwrap() - 30.0).abs() < 1e-9);
        assert!((net.flow_rate(f2).unwrap() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn advance_completes_flows() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]).with_tag(7));
        net.recompute();
        net.advance(t(10.001));
        let done = net.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert!((done[0].bytes - 1000.0).abs() < 1e-9);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn partial_advance_tracks_remaining() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let f = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        net.advance(t(4.0));
        assert!((net.flow_remaining(f).unwrap() - 600.0).abs() < 1e-6);
        assert!((net.flow_progress(f).unwrap() - 0.4).abs() < 1e-6);
    }

    #[test]
    fn rates_rebalance_when_a_flow_finishes() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let small = net.start_flow(SimTime::ZERO, FlowSpec::new(100.0, vec![link]));
        let big = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        // Both at 50 B/s; small finishes at t=2.
        net.advance(t(2.0));
        assert!(net.flow_rate(small).is_none());
        net.recompute();
        assert!((net.flow_rate(big).unwrap() - 100.0).abs() < 1e-9);
        // big had 900 left at t=2, now at 100 B/s → 9 more seconds.
        let done_at = net.next_completion().unwrap();
        assert!((done_at.as_secs_f64() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn cancel_flow_returns_remaining_and_frees_resource() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let a = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        let b = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        net.advance(t(2.0));
        let left = net.cancel_flow(a).unwrap();
        assert!((left - 900.0).abs() < 1e-6);
        net.recompute();
        assert!((net.flow_rate(b).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(net.resource_load(link), 1);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        net.start_flow(t(1.0), FlowSpec::new(0.0, vec![link]).with_tag(3));
        let done = net.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished, t(1.0));
    }

    #[test]
    fn capacity_change_rebalances() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(100.0, "link");
        let f = net.start_flow(SimTime::ZERO, FlowSpec::new(1000.0, vec![link]));
        net.recompute();
        net.advance(t(1.0));
        net.set_capacity(link, 10.0);
        net.recompute();
        assert!((net.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_scales_linearly_across_disjoint_resources() {
        // 8 flows on 8 independent devices: total throughput = 8×cap —
        // the mechanism behind Fig. 8's node-local NVM scaling.
        let mut net = FluidNetwork::new();
        let mut total = 0.0;
        for i in 0..8 {
            let dev = net.add_resource(50.0, format!("nvm{i}"));
            net.start_flow(SimTime::ZERO, FlowSpec::new(1e6, vec![dev]));
        }
        net.recompute();
        let keys: Vec<_> = net.flows.iter().map(|(k, _)| k).collect();
        for k in keys {
            total += net.flow_rate(k).unwrap();
        }
        assert!((total - 400.0).abs() < 1e-6);
    }

    #[test]
    fn many_capped_flows_aggregate_until_shared_bottleneck() {
        // 32 flows capped at 1.7 into a shared resource of 100:
        // aggregated = min(32×1.7, 100) = 54.4 — the Fig. 6 shape.
        let mut net = FluidNetwork::new();
        let shared = net.add_resource(100.0, "target");
        for _ in 0..32 {
            net.start_flow(
                SimTime::ZERO,
                FlowSpec::new(1e9, vec![shared]).with_cap(1.7),
            );
        }
        net.recompute();
        let total: f64 = net
            .flows
            .iter()
            .map(|(k, _)| net.flow_rate(k).unwrap())
            .sum();
        assert!((total - 54.4).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn next_completion_never_fires_early() {
        let mut net = FluidNetwork::new();
        let link = net.add_resource(3.0, "link");
        net.start_flow(SimTime::ZERO, FlowSpec::new(10.0, vec![link]));
        net.recompute();
        let tc = net.next_completion().unwrap();
        net.advance(tc);
        assert_eq!(
            net.take_completed().len(),
            1,
            "flow must be done at its completion time"
        );
    }
}
