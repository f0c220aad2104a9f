//! Fixture: a channel send while a lock guard is held (L11, direct sink).
//! The send after the guard is dropped must stay silent. (Fixture
//! sources are scanned, never compiled; the lock API mimics parking_lot.)

use parking_lot::Mutex;
use std::sync::mpsc::Sender;

pub struct Relay {
    pub outbox: Sender<Vec<u8>>,
    pub log: Mutex<Vec<u64>>,
}

impl Relay {
    pub fn log_and_forward(&self, payload: Vec<u8>) {
        let log = self.log.lock();
        let n = log.len() as u64;
        // L11: channel send while the `log` guard is still held
        let _ = self.outbox.send(payload);
        drop(log);
        let _ = n;
    }

    pub fn forward_after_drop(&self, payload: Vec<u8>) {
        let log = self.log.lock();
        drop(log);
        let _ = self.outbox.send(payload);
    }
}
