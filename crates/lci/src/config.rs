//! Device configuration: what varies between LCI devices. The defaults
//! are the paper's stack and the home of those values; world builders
//! take them from here. Tests drive `eager_threshold` and
//! `packet_pool_size` to other values, the worker-progress
//! configurations use smaller progress bursts, and each device of a
//! multi-device process binds its own `ctx`.

/// Configuration of an LCI device (one per locality/process).
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Largest payload sent with the eager (medium) protocol; larger
    /// payloads use the long (rendezvous) protocol. LCI's default packet
    /// size gives an 8 KiB threshold, matching HPX's default zero-copy
    /// serialization threshold.
    pub eager_threshold: usize,
    /// Number of pre-registered packets in the pool.
    pub packet_pool_size: usize,
    /// Maximum packets handled by one `progress` call. A dedicated
    /// progress thread calls back-to-back, so bursts amortize entry costs;
    /// worker threads calling opportunistically use small bursts.
    pub progress_burst: usize,
    /// Network context this device binds to (multi-device processes bind
    /// device *i* to context *i*; see the paper's §7.2 future work).
    pub ctx: u8,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig { eager_threshold: 8192, packet_pool_size: 4096, progress_burst: 8, ctx: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DeviceConfig::default();
        assert_eq!(c.eager_threshold, 8192);
        assert!(c.packet_pool_size >= 1024);
    }
}
