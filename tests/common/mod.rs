//! Helpers shared by the serving test binaries.

use cnn_stack::prelude::ServerHealth;

/// Every submitted ticket is counted under exactly one outcome: served,
/// shed at admission, shed at its deadline, or failed. Holds for any
/// server that shed nothing as `ShuttingDown`, whose refusals count
/// nowhere.
pub fn assert_every_ticket_counted_once(health: &ServerHealth) {
    let settled = health.served + health.shed_queue_full + health.shed_deadline + health.failed;
    assert_eq!(health.submitted, settled, "{health:?}");
}
