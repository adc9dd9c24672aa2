//! Shared burst-buffer appliance model (Cray DataWarp / DDN IME-like).
//!
//! The paper discusses shared burst buffers as dedicated storage
//! hardware on separate I/O nodes, "available as an I/O resource that
//! is external to the compute nodes in the same way a traditional
//! parallel filesystem is accessed", and lists transfer plugins for
//! them as future work. This model lets the reproduction run the
//! paper's comparisons *and* that extension: a handful of BB servers
//! behind a shared ingress, no striping metadata, flat namespace
//! allocation round-robined over servers.

use simcore::{FluidNetwork, ResourceId, SimDuration};

use crate::pfs::IoDir;

/// Static parameters of a burst-buffer appliance.
#[derive(Debug, Clone)]
pub struct BurstBufferParams {
    pub servers: usize,
    pub server_bps: f64,
    pub ingress_bps: f64,
    pub capacity: u64,
    /// Allocation/session setup cost (DataWarp allocation calls).
    pub setup: SimDuration,
}

impl BurstBufferParams {
    /// A DataWarp-like appliance: 4 servers, fast NVMe arrays.
    pub fn datawarp_like() -> Self {
        BurstBufferParams {
            servers: 4,
            server_bps: simcore::units::gib_per_s(5.0),
            ingress_bps: simcore::units::gib_per_s(16.0),
            capacity: 40 * simcore::units::TB,
            setup: SimDuration::from_millis(2),
        }
    }
}

/// A built appliance with its fluid resources.
#[derive(Debug)]
pub struct BurstBufferModel {
    pub params: BurstBufferParams,
    ingress: ResourceId,
    servers: Vec<ResourceId>,
    next_server: usize,
}

impl BurstBufferModel {
    pub fn build(net: &mut FluidNetwork, name: &str, params: BurstBufferParams) -> Self {
        let ingress = net.add_resource(params.ingress_bps, format!("{name}.ingress"));
        let servers = (0..params.servers)
            .map(|i| net.add_resource(params.server_bps, format!("{name}.srv{i}")))
            .collect();
        BurstBufferModel {
            params,
            ingress,
            servers,
            next_server: 0,
        }
    }

    /// Pick the server for a new object (round-robin) and return the
    /// resource path for moving data to/from it. Direction does not
    /// change the path: BB servers are symmetric NVMe arrays.
    pub fn alloc_path(&mut self, _dir: IoDir) -> Vec<ResourceId> {
        let s = self.servers[self.next_server];
        self.next_server = (self.next_server + 1) % self.servers.len();
        vec![self.ingress, s]
    }

    pub fn aggregate_bps(&self) -> f64 {
        (self.params.server_bps * self.servers.len() as f64).min(self.params.ingress_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FlowSpec, SimTime};

    #[test]
    fn round_robin_allocation() {
        let mut net = FluidNetwork::new();
        let mut bb = BurstBufferModel::build(&mut net, "bb", BurstBufferParams::datawarp_like());
        let p1 = bb.alloc_path(IoDir::Write);
        let p2 = bb.alloc_path(IoDir::Write);
        assert_ne!(
            p1[1], p2[1],
            "consecutive objects land on different servers"
        );
        assert_eq!(p1[0], p2[0], "shared ingress");
    }

    #[test]
    fn aggregate_is_ingress_limited() {
        let mut net = FluidNetwork::new();
        let mut bb = BurstBufferModel::build(&mut net, "bb", BurstBufferParams::datawarp_like());
        // 4 servers × 5 GiB/s = 20, but ingress = 16 GiB/s.
        for _ in 0..4 {
            let p = bb.alloc_path(IoDir::Write);
            net.start_flow(SimTime::ZERO, FlowSpec::new(1e12, p));
        }
        net.recompute();
        let secs = net.next_completion().unwrap().as_secs_f64();
        let aggregate = 4.0 * 1e12 / secs;
        let expected = bb.aggregate_bps();
        assert!((aggregate - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn many_to_few_funnel_contends() {
        // The paper's critique of stage-node designs: "the overall
        // buffer available for data staging is limited, and subject to
        // performance interference between applications". 16 clients
        // into 4 servers share 16 GiB/s; per-client share is 1 GiB/s,
        // far below a node-local device.
        let mut net = FluidNetwork::new();
        let mut bb = BurstBufferModel::build(&mut net, "bb", BurstBufferParams::datawarp_like());
        for _ in 0..16 {
            let p = bb.alloc_path(IoDir::Write);
            net.start_flow(SimTime::ZERO, FlowSpec::new(1e12, p));
        }
        net.recompute();
        let secs = net.next_completion().unwrap().as_secs_f64();
        let per_client = 1e12 / secs;
        assert!(per_client <= simcore::units::gib_per_s(1.0) * 1.01);
    }
}
