//! Inter-tile streams.
//!
//! The tiles of the DRBPF exchange the shift-register boundary values of the
//! folded systolic array. The paper observes that this traffic runs at a
//! rate `T` times lower than the computation and therefore does not limit
//! performance; the reproduction still models it explicitly so the claim can
//! be measured.
//!
//! [`QueueLink`] is that stream: a single-threaded FIFO the lockstep
//! simulation drives once per frequency step, one link per direction and
//! tile boundary. (The analytic execution mode moves no words; it derives
//! the same transfer counts in closed form.)

use cfd_dsp::complex::Cplx;
use std::collections::VecDeque;

/// A value travelling between tiles, tagged with the flow it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamWord {
    /// The complex payload.
    pub value: Cplx,
    /// `true` for the conjugate flow (towards higher tile indices), `false`
    /// for the direct flow (towards lower tile indices).
    pub conjugate_flow: bool,
}

/// A single-threaded FIFO link with a transfer counter.
#[derive(Debug, Default)]
pub struct QueueLink {
    queue: VecDeque<StreamWord>,
    transfers: u64,
}

impl QueueLink {
    /// Creates an empty link.
    pub fn new() -> Self {
        QueueLink::default()
    }

    /// Pushes a word onto the link.
    pub fn send(&mut self, word: StreamWord) {
        self.queue.push_back(word);
        self.transfers += 1;
    }

    /// Pops the oldest word, if any.
    pub fn receive(&mut self) -> Option<StreamWord> {
        self.queue.pop_front()
    }

    /// Number of words currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Total words ever sent over this link.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(re: f64) -> StreamWord {
        StreamWord {
            value: Cplx::new(re, -re),
            conjugate_flow: true,
        }
    }

    #[test]
    fn queue_link_is_fifo_and_counts() {
        let mut link = QueueLink::new();
        assert!(link.receive().is_none());
        link.send(word(1.0));
        link.send(word(2.0));
        assert_eq!(link.in_flight(), 2);
        assert_eq!(link.transfers(), 2);
        assert_eq!(link.receive().unwrap().value.re, 1.0);
        assert_eq!(link.receive().unwrap().value.re, 2.0);
        assert!(link.receive().is_none());
        assert_eq!(link.transfers(), 2);
    }

    #[test]
    fn stream_word_carries_flow_tag() {
        let w = StreamWord {
            value: Cplx::ONE,
            conjugate_flow: false,
        };
        assert!(!w.conjugate_flow);
        assert_eq!(w.value, Cplx::ONE);
    }
}
