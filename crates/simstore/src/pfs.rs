//! Lustre/GPFS-like parallel file system model.
//!
//! The PFS is the shared, contended resource whose behaviour motivates
//! the whole paper (Section II / Fig. 1): bandwidth is served by a set
//! of OSTs behind a server-side ingress link, files are striped over
//! OSTs, metadata goes through a single MDS, and *cross-application
//! interference* — background load from the rest of the machine —
//! makes observed bandwidth vary wildly between runs.
//!
//! Resources created per OST: a read lane, a write lane and a disk
//! coupling resource (so mixed read/write traffic contends), plus one
//! shared ingress resource and one PFS-client lane per compute node
//! (the client-side stack limits a single node well below the server
//! aggregate).

use simcore::{FluidNetwork, ResourceId, SimDuration, SimRng};

/// Direction of an I/O with respect to the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoDir {
    /// Data flows tier → node.
    Read,
    /// Data flows node → tier.
    Write,
}

/// How strongly background load from the rest of the machine perturbs
/// the PFS. Calibrated per testbed in the `cluster` crate.
#[derive(Debug, Clone, Copy)]
pub enum Interference {
    /// No background load (dedicated benchmark slice).
    Off,
    /// Moderate, lognormally distributed background occupancy —
    /// ARCHER-like: ~4× spread between best and worst runs.
    Lognormal { sigma: f64, mean_load: f64 },
    /// Heavy-tailed occupancy — MareNostrum-IV-like: observed
    /// bandwidths "often diverging by orders of magnitude".
    HeavyTail { alpha: f64, mean_load: f64 },
}

impl Interference {
    /// Sample the fraction of a resource consumed by background load,
    /// in [0, 0.995].
    pub fn sample_load(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Interference::Off => 0.0,
            Interference::Lognormal { sigma, mean_load } => {
                // Lognormal with median ≈ mean_load. Moderate regime:
                // background jobs never monopolize the server (ARCHER
                // shows ≈4× spread, i.e. ≥25% residual capacity).
                let x = mean_load * rng.lognormal(0.0, sigma);
                x.clamp(0.0, self.load_cap())
            }
            Interference::HeavyTail { alpha, mean_load } => {
                // Pareto-distributed bursts, scaled so the *median*
                // load is ≈ mean_load; occasionally pins near 1.
                let x = mean_load * rng.pareto(0.5, alpha);
                x.clamp(0.0, self.load_cap())
            }
        }
    }

    /// Ceiling on background occupancy, also applied after per-OST
    /// jitter so composites cannot exceed the regime's bound.
    pub fn load_cap(&self) -> f64 {
        match self {
            Interference::Off => 0.0,
            Interference::Lognormal { .. } => 0.78,
            Interference::HeavyTail { .. } => 0.995,
        }
    }
}

/// Static description of a PFS deployment.
#[derive(Debug, Clone)]
pub struct PfsParams {
    pub osts: usize,
    /// Per-OST bandwidths, bytes/s.
    pub ost_read_bps: f64,
    pub ost_write_bps: f64,
    /// Server-side ingress (e.g. the 56 Gbps IB link on NEXTGenIO).
    pub ingress_bps: f64,
    /// Per-compute-node client-stack limit.
    pub client_bps: f64,
    /// Default stripe count for files that don't specify one.
    pub default_stripe: usize,
    /// Mean metadata operation service time.
    pub mds_op_time: SimDuration,
    pub interference: Interference,
}

impl PfsParams {
    /// The NEXTGenIO Lustre: 6 OSTs behind 56 Gbps InfiniBand.
    pub fn nextgenio_lustre() -> Self {
        PfsParams {
            osts: 6,
            ost_read_bps: simcore::units::gib_per_s(1.1),
            ost_write_bps: simcore::units::gib_per_s(0.9),
            ingress_bps: simcore::units::gbit_per_s(56.0),
            client_bps: simcore::units::gib_per_s(2.4),
            default_stripe: 4,
            mds_op_time: SimDuration::from_micros(300),
            interference: Interference::Lognormal {
                sigma: 0.45,
                mean_load: 0.25,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OstResources {
    read: ResourceId,
    write: ResourceId,
    disk: ResourceId,
}

/// A built PFS instance with its fluid resources.
#[derive(Debug)]
pub struct PfsModel {
    pub params: PfsParams,
    osts: Vec<OstResources>,
    ingress: ResourceId,
    clients: Vec<ResourceId>,
    next_ost: usize,
    base_read: f64,
    base_write: f64,
    base_ingress: f64,
}

impl PfsModel {
    pub fn build(net: &mut FluidNetwork, name: &str, nodes: usize, params: PfsParams) -> Self {
        let ingress = net.add_resource(params.ingress_bps, format!("{name}.ingress"));
        let osts = (0..params.osts)
            .map(|i| {
                let disk_cap = params.ost_read_bps.max(params.ost_write_bps);
                OstResources {
                    read: net.add_resource(params.ost_read_bps, format!("{name}.ost{i}.r")),
                    write: net.add_resource(params.ost_write_bps, format!("{name}.ost{i}.w")),
                    disk: net.add_resource(disk_cap, format!("{name}.ost{i}.disk")),
                }
            })
            .collect();
        let clients = (0..nodes)
            .map(|n| net.add_resource(params.client_bps, format!("{name}.client{n}")))
            .collect();
        PfsModel {
            base_read: params.ost_read_bps,
            base_write: params.ost_write_bps,
            base_ingress: params.ingress_bps,
            params,
            osts,
            ingress,
            clients,
            next_ost: 0,
        }
    }

    /// Split `bytes` across `stripe` OSTs starting from the rotating
    /// allocation cursor, as Lustre's round-robin allocator does.
    /// Returns `(ost_index, bytes)` shards.
    pub fn plan_shards(&mut self, bytes: u64, stripe: Option<usize>) -> Vec<(usize, u64)> {
        let stripe = stripe
            .unwrap_or(self.params.default_stripe)
            .clamp(1, self.osts.len());
        let start = self.next_ost;
        self.next_ost = (self.next_ost + stripe) % self.osts.len();
        let per = bytes / stripe as u64;
        let mut rem = bytes % stripe as u64;
        (0..stripe)
            .map(|i| {
                let extra = if rem > 0 {
                    rem -= 1;
                    1
                } else {
                    0
                };
                ((start + i) % self.osts.len(), per + extra)
            })
            .filter(|(_, b)| *b > 0)
            .collect()
    }

    /// Split `bytes` across a *fixed* OST set — shared-file semantics:
    /// every client of one striped file hits the same OSTs, no matter
    /// how many clients there are.
    pub fn plan_shards_at(&self, bytes: u64, osts: &[usize]) -> Vec<(usize, u64)> {
        assert!(!osts.is_empty());
        let per = bytes / osts.len() as u64;
        let mut rem = bytes % osts.len() as u64;
        osts.iter()
            .map(|&o| {
                let extra = if rem > 0 {
                    rem -= 1;
                    1
                } else {
                    0
                };
                (o % self.osts.len(), per + extra)
            })
            .filter(|(_, b)| *b > 0)
            .collect()
    }

    /// Allocate an OST set for a new striped file (advances the
    /// round-robin cursor once).
    pub fn allocate_osts(&mut self, stripe: Option<usize>) -> Vec<usize> {
        let stripe = stripe
            .unwrap_or(self.params.default_stripe)
            .clamp(1, self.osts.len());
        let start = self.next_ost;
        self.next_ost = (self.next_ost + stripe) % self.osts.len();
        (0..stripe).map(|i| (start + i) % self.osts.len()).collect()
    }

    /// The resource path for one shard of an I/O issued from `node`
    /// against OST `ost`.
    pub fn shard_path(&self, node: usize, ost: usize, dir: IoDir) -> Vec<ResourceId> {
        let o = &self.osts[ost];
        let lane = match dir {
            IoDir::Read => o.read,
            IoDir::Write => o.write,
        };
        vec![self.clients[node], self.ingress, lane, o.disk]
    }

    /// Deterministic metadata cost for `ops` operations (create, open,
    /// stat). A single MDS serializes heavy bursts, so cost is linear.
    pub fn mds_cost(&self, ops: u64) -> SimDuration {
        SimDuration::from_nanos(self.params.mds_op_time.as_nanos() * ops)
    }

    /// Resample background interference, modulating OST lanes and the
    /// ingress. Caller must invoke inside `with_fluid` so rates
    /// rebalance.
    ///
    /// The background load has a *common mode*: production
    /// interference comes from whole applications hammering the file
    /// system, so one machine-wide draw dominates, with small per-OST
    /// jitter on top. (Independent per-OST draws would average out
    /// across stripes and erase the run-to-run spread of Fig. 1.)
    pub fn resample_interference(&mut self, net: &mut FluidNetwork, rng: &mut SimRng) {
        match self.params.interference {
            Interference::Off => {}
            model => {
                let cap = model.load_cap();
                let global = model.sample_load(rng);
                for o in &self.osts {
                    let jitter = rng.lognormal(0.0, 0.15);
                    let load = (global * jitter).clamp(0.0, cap);
                    net.set_capacity(o.read, self.base_read * (1.0 - load));
                    net.set_capacity(o.write, self.base_write * (1.0 - load));
                    let disk_cap = (self.base_read.max(self.base_write)) * (1.0 - load);
                    net.set_capacity(o.disk, disk_cap);
                }
                let load = (global * rng.lognormal(0.0, 0.1)).clamp(0.0, cap);
                net.set_capacity(self.ingress, self.base_ingress * (1.0 - load));
            }
        }
    }

    /// Aggregate server-side read capacity at base (no interference).
    pub fn aggregate_read_bps(&self) -> f64 {
        (self.base_read * self.osts.len() as f64).min(self.base_ingress)
    }

    pub fn aggregate_write_bps(&self) -> f64 {
        (self.base_write * self.osts.len() as f64).min(self.base_ingress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FlowSpec, SimTime};

    fn build(nodes: usize) -> (FluidNetwork, PfsModel) {
        let mut net = FluidNetwork::new();
        let pfs = PfsModel::build(&mut net, "lustre", nodes, PfsParams::nextgenio_lustre());
        (net, pfs)
    }

    #[test]
    fn shard_planning_round_robins_and_balances() {
        let (_, mut pfs) = build(1);
        let shards = pfs.plan_shards(100, Some(4));
        assert_eq!(shards.len(), 4);
        let total: u64 = shards.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 100);
        let osts1: Vec<usize> = shards.iter().map(|(o, _)| *o).collect();
        assert_eq!(osts1, vec![0, 1, 2, 3]);
        // Next allocation starts where the previous ended.
        let shards2 = pfs.plan_shards(100, Some(4));
        let osts2: Vec<usize> = shards2.iter().map(|(o, _)| *o).collect();
        assert_eq!(osts2, vec![4, 5, 0, 1]);
    }

    #[test]
    fn stripe_wider_than_osts_is_clamped() {
        let (_, mut pfs) = build(1);
        let shards = pfs.plan_shards(600, Some(100));
        assert_eq!(shards.len(), 6);
    }

    #[test]
    fn zero_byte_shards_are_dropped() {
        let (_, mut pfs) = build(1);
        let shards = pfs.plan_shards(2, Some(4));
        assert_eq!(shards.len(), 2);
    }

    #[test]
    fn single_node_is_client_limited() {
        let (mut net, mut pfs) = build(4);
        // One node reading with full stripe: aggregate OST read would
        // allow ~6.6 GiB/s but the client lane caps at 2.4 GiB/s.
        for (ost, bytes) in pfs.plan_shards(6 * (1 << 30), Some(6)) {
            let path = pfs.shard_path(0, ost, IoDir::Read);
            net.start_flow(SimTime::ZERO, FlowSpec::new(bytes as f64, path));
        }
        net.recompute();
        let secs = net.next_completion().unwrap().as_secs_f64();
        let rate = 6.0 * (1u64 << 30) as f64 / secs;
        let client = simcore::units::gib_per_s(2.4);
        assert!((rate - client).abs() / client < 0.01, "rate {rate}");
    }

    #[test]
    fn many_nodes_saturate_the_server_side() {
        let (mut net, mut pfs) = build(32);
        for node in 0..32 {
            for (ost, bytes) in pfs.plan_shards(1 << 30, Some(6)) {
                let path = pfs.shard_path(node, ost, IoDir::Write);
                net.start_flow(SimTime::ZERO, FlowSpec::new(bytes as f64, path));
            }
        }
        net.recompute();
        // Aggregate write cannot exceed min(6 × 0.9 GiB/s, ingress).
        let expected = pfs.aggregate_write_bps();
        // Steady-state aggregate: all flows symmetric; use first
        // completion to estimate aggregate rate.
        let secs = net.next_completion().unwrap().as_secs_f64();
        let slowest_total = 32.0 * (1u64 << 30) as f64;
        let rate = slowest_total / secs; // all equal shares
        assert!(rate <= expected * 1.01, "rate {rate} vs cap {expected}");
        assert!(
            rate >= expected * 0.60,
            "server should be near-saturated: {rate}"
        );
    }

    #[test]
    fn reads_faster_than_writes() {
        let (_, pfs) = build(1);
        assert!(pfs.aggregate_read_bps() > pfs.aggregate_write_bps());
    }

    #[test]
    fn interference_reduces_capacity_and_varies() {
        let (mut net, mut pfs) = build(1);
        let mut rng = SimRng::seed_from_u64(11);
        let base = pfs.aggregate_read_bps();
        let mut seen = Vec::new();
        for _ in 0..50 {
            pfs.resample_interference(&mut net, &mut rng);
            // Measure effective capacity of ost0 read lane.
            let shards = pfs.plan_shards(1 << 20, Some(1));
            let path = pfs.shard_path(0, shards[0].0, IoDir::Read);
            let cap = net.resource_capacity(path[2]);
            seen.push(cap);
        }
        let min = seen.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = seen.iter().cloned().fold(0.0f64, f64::max);
        assert!(max <= pfs.params.ost_read_bps + 1.0);
        assert!(min < max, "interference must vary");
        assert!(max / min > 1.3, "spread too small: {}", max / min);
        let _ = base;
    }

    #[test]
    fn heavy_tail_interference_produces_order_of_magnitude_spread() {
        let mut net = FluidNetwork::new();
        let mut params = PfsParams::nextgenio_lustre();
        params.interference = Interference::HeavyTail {
            alpha: 1.1,
            mean_load: 0.55,
        };
        let mut pfs = PfsModel::build(&mut net, "gpfs", 1, params);
        let mut rng = SimRng::seed_from_u64(12);
        let mut caps = Vec::new();
        for _ in 0..200 {
            pfs.resample_interference(&mut net, &mut rng);
            let path = pfs.shard_path(0, 0, IoDir::Read);
            caps.push(net.resource_capacity(path[2]));
        }
        let min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = caps.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 10.0, "heavy tail spread {}", max / min);
    }

    #[test]
    fn mds_cost_is_linear() {
        let (_, pfs) = build(1);
        let one = pfs.mds_cost(1);
        let thousand = pfs.mds_cost(1000);
        assert_eq!(thousand.as_nanos(), 1000 * one.as_nanos());
    }
}
