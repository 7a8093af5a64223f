//! Cluster configuration: the shape of a deployment (Fig. 1) and the
//! §9.7 tuning parameters in one place.

use std::time::Duration;

use ocs_sim::LinkParams;

/// Everything needed to build a cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of server machines (the trial: 3).
    pub servers: usize,
    /// Neighborhoods per server (the trial: 2).
    pub neighborhoods_per_server: u32,
    /// Number of settops to create.
    pub settops: usize,
    /// Movies in the catalog.
    pub movies: usize,
    /// Movie bit rate (bits/s).
    pub movie_bitrate_bps: u64,
    /// Content replicas per movie.
    pub movie_replicas: usize,
    /// VOD application binary size (bytes). §9.3's "rich" apps take
    /// 2–4 s at 1 MB/s, i.e. 2–4 MB.
    pub vod_app_size: u64,
    /// §9.7 knob: backup bind retry interval (10 s deployed).
    pub bind_retry: Duration,
    /// §9.7 knob: name service → RAS audit interval (10 s deployed).
    pub ns_audit: Duration,
    /// §9.7 knob: RAS ↔ RAS poll interval (5 s deployed).
    pub ras_poll: Duration,
    /// MMS → RAS settop poll interval (10 s).
    pub mms_ras_poll: Duration,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            servers: 3,
            neighborhoods_per_server: 2,
            settops: 12,
            movies: 8,
            movie_bitrate_bps: 4_000_000,
            movie_replicas: 2,
            vod_app_size: 2_500_000,
            bind_retry: Duration::from_secs(10),
            ns_audit: Duration::from_secs(10),
            ras_poll: Duration::from_secs(5),
            mms_ras_poll: Duration::from_secs(10),
        }
    }
}

impl ClusterConfig {
    /// A small configuration for fast tests.
    pub fn small() -> ClusterConfig {
        ClusterConfig {
            servers: 2,
            neighborhoods_per_server: 1,
            settops: 2,
            movies: 2,
            ..ClusterConfig::default()
        }
    }

    /// The Orlando trial's deployed shape (§9.6): three servers, two
    /// neighborhoods each.
    pub fn orlando() -> ClusterConfig {
        ClusterConfig::default()
    }

    /// Total number of neighborhoods.
    pub fn neighborhoods(&self) -> u32 {
        self.servers as u32 * self.neighborhoods_per_server
    }

    /// Settop downstream link (bits/s). §9.3 cites a download bandwidth
    /// of 1 MByte/s; §3.1 caps streams at 6 Mbit/s — we use 8 Mbit/s as
    /// the line rate and let the Connection Manager enforce 6 Mbit/s for
    /// media.
    pub const SETTOP_DOWN_BPS: u64 = 8_000_000;
    /// Settop upstream link (bits/s; the trial: 50 kbit/s).
    pub const SETTOP_UP_BPS: u64 = 50_000;
    /// Settop link one-way latency.
    pub const SETTOP_LATENCY: Duration = Duration::from_millis(2);
    /// Server-to-server (FDDI) link.
    pub const SERVER_LINK: LinkParams = LinkParams {
        latency: Duration::from_micros(300),
        bandwidth: Some(100_000_000 / 8), // FDDI, bytes/s
        loss: 0.0,
    };
    /// Movie duration (ms).
    pub const MOVIE_DURATION_MS: u64 = 2 * 3600 * 1000;
    /// Settop kernel image size (bytes).
    pub const KERNEL_SIZE: u64 = 500_000;
    /// Shopping application binary size (bytes).
    pub const SHOP_APP_SIZE: u64 = 1_000_000;
    /// MDS stream slots per server.
    pub const MDS_MAX_STREAMS: u32 = 40;

    /// Channel numbers for the built-in applications.
    pub const CHANNEL_NAVIGATOR: u32 = 2;
    /// Video-on-demand channel.
    pub const CHANNEL_VOD: u32 = 40;
    /// Home-shopping channel.
    pub const CHANNEL_SHOP: u32 = 41;
}
