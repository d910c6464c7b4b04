//! Offline stand-in for the subset of `crossbeam` this workspace uses:
//! bounded channels wiring the time-traveling pipeline stages together.
//!
//! Every channel in the pipeline has exactly one producer and one
//! consumer, so `std::sync::mpsc::sync_channel` provides identical
//! semantics (bounded capacity, blocking send, `try_send` that hands
//! the message back when the channel is full, iteration until the
//! sender is dropped). When network access is available, replace the
//! `path` dependency with the real `crossbeam` — the names and
//! signatures below match its `channel` module.

pub mod channel {
    //! Multi-producer channels with bounded capacity.

    pub use std::sync::mpsc::{Receiver, SendError, SyncSender as Sender, TrySendError};

    /// Create a bounded channel: sends block once `cap` messages are in
    /// flight, providing the backpressure the pipeline relies on.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn bounded_channel_delivers_in_order_until_disconnect() {
        let (tx, rx) = bounded::<u32>(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).expect("receiver alive");
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        producer.join().expect("producer ok");
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
