//! Fixture: the repository's other L9 roots, so that every configured
//! root matches a fn (an unmatched root is a finding of its own) and the
//! only L9 finding stays the panic reachable from `Impliance::query`.
//! None of these reaches a panic site.

pub struct FeedConsumer;

impl FeedConsumer {
    pub fn drain(&self) -> usize {
        0
    }
}

pub struct WorkloadManager;

impl WorkloadManager {
    pub fn admit(&self) -> bool {
        true
    }

    pub fn submit(&self) -> bool {
        true
    }

    pub fn next_ready(&self) -> Option<u32> {
        None
    }
}

pub fn execute(plan: &str) -> usize {
    plan.len()
}
