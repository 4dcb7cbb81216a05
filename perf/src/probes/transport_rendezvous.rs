//! Rendezvous tag messaging: 644 KiB messages (RTS, RDMA read, FIN).

use super::transport_eager::tag_messages;
use super::Probe;

pub const PROBE: Probe = Probe {
    metric: "transport.rendezvous_ns_per_msg",
    per_sec: 1e9,
    events_metric: None,
    batch: || tag_messages(644 << 10),
};
