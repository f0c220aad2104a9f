//! Appliance configuration: the hardware manifest plus a handful of
//! behavioural switches.
//!
//! §3.1: the software is "pre-installed, automatically detecting which
//! hardware components are available". The simulation's "detected
//! hardware" is this manifest. Every field defaults to a working value —
//! booting with `ApplianceConfig::default()` requires zero decisions,
//! which is the TCO story. The non-default switches exist for the
//! ablation experiments (C2, C7), not for administrators.

/// Configuration for one Impliance instance.
#[derive(Debug, Clone)]
pub struct ApplianceConfig {
    /// Data nodes in the cluster deployment. The single-box appliance
    /// multiplies it by `partitions_per_node` for its partition count.
    pub data_nodes: usize,
    /// Grid nodes in the cluster deployment.
    pub grid_nodes: usize,
    /// Cluster (consistency) nodes in the cluster deployment.
    pub cluster_nodes: usize,
    /// Storage partitions per data node.
    pub partitions_per_node: usize,
    /// Memtable seal threshold (documents).
    pub seal_threshold: usize,
    /// Compress sealed segments (ablated by C7).
    pub compression: bool,
    /// Encrypt sealed segments at rest (§3.1 encryption push-down).
    pub encryption_key: Option<[u8; 16]>,
    /// Evaluate predicates at the storage node (ablated by C2).
    pub pushdown: bool,
    /// Replication factor for user data in the cluster deployment.
    pub replication: usize,
    /// Tuples/rows per pipeline batch in the streaming executor
    /// (overridable per request via `QueryRequest::batch_size`).
    pub batch_size: usize,
    /// Worker threads for morsel-driven parallel query execution
    /// (1 = serial). Defaults to the machine's available cores — the
    /// appliance "detects" its hardware, per §3.1 — and is overridable
    /// per request via `QueryRequest::parallelism`.
    pub worker_threads: usize,
    /// Multi-tenant workload policy: per-tenant admission quotas, the
    /// concurrency limit, and overload/degradation behavior. The default
    /// is fully permissive (nothing is ever shed), preserving
    /// single-tenant behavior for callers that never set quotas.
    pub workload: impliance_virt::WorkloadConfig,
}

impl Default for ApplianceConfig {
    fn default() -> Self {
        ApplianceConfig {
            data_nodes: 4,
            grid_nodes: 2,
            cluster_nodes: 3,
            partitions_per_node: 2,
            seal_threshold: 512,
            compression: true,
            encryption_key: None,
            pushdown: true,
            replication: 3,
            batch_size: impliance_query::DEFAULT_BATCH_SIZE,
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            workload: impliance_virt::WorkloadConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_describe_the_paper_design() {
        let c = ApplianceConfig::default();
        assert!(c.pushdown, "pushdown is the paper's design point");
        assert!(c.compression);
        assert!(c.data_nodes >= 1 && c.grid_nodes >= 1 && c.cluster_nodes >= 1);
        assert!(c.worker_threads >= 1, "hardware detection floors at one");
    }
}
