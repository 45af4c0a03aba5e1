//! The per-session bounded ingest queue: the buffer between a producer
//! (sensor feed, network decoder, replay file) and the session it feeds.
//!
//! The queue reuses the session layer's backpressure semantics
//! ([`EmvsError::Backpressure`], `write(2)`-style short writes) so a
//! producer written against `EventorSession::push_events` drives
//! `ServeEngine::enqueue_events` unchanged. Events are validated for time
//! order *at enqueue time* — a reordered packet is rejected before it can
//! poison the pump — and poses ride a separate unbounded lane (they are tiny
//! and always make progress).

use eventor_emvs::EmvsError;
use eventor_events::Event;
use eventor_geom::Pose;
use std::collections::VecDeque;

/// Bounded FIFO of not-yet-ingested input for one admitted session.
#[derive(Debug)]
pub(crate) struct IngestQueue {
    /// Pose samples waiting to be pushed into the session (unbounded: a pose
    /// is two orders of magnitude rarer and smaller than the events it
    /// covers).
    pub(crate) poses: VecDeque<(f64, Pose)>,
    /// Events waiting to be ingested, time-ordered across all enqueues.
    pub(crate) events: VecDeque<Event>,
    /// Capacity of the event lane, in events.
    capacity: usize,
    /// Timestamp of the newest enqueued event, for order validation.
    last_event_t: Option<f64>,
    /// Whether the producer declared end-of-stream ([`close`](Self::close)).
    closed: bool,
}

impl IngestQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            poses: VecDeque::new(),
            events: VecDeque::new(),
            capacity: capacity.max(1),
            last_event_t: None,
            closed: false,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn depth(&self) -> usize {
        self.events.len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Marks end-of-stream: no further events are accepted. Poses may still
    /// be enqueued — the trailing frames of a closed stream can legitimately
    /// wait on poses covering their mid-points.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    pub(crate) fn enqueue_pose(&mut self, timestamp: f64, pose: Pose) {
        self.poses.push_back((timestamp, pose));
    }

    /// Enqueues a time-ordered packet with short-write semantics: the
    /// accepted prefix is buffered and its length returned.
    ///
    /// # Errors
    ///
    /// * [`EmvsError::OutOfOrder`] when the packet is not time-ordered
    ///   against everything already enqueued (nothing is accepted),
    /// * [`EmvsError::Backpressure`] when the queue is full and **zero**
    ///   events could be accepted.
    pub(crate) fn enqueue_events(&mut self, events: &[Event]) -> Result<usize, EmvsError> {
        if events.is_empty() {
            return Ok(0);
        }
        // The session layer's exact whole-packet ordering rule, via the one
        // shared helper (`eventor_events::first_out_of_order`), so the two
        // ingestion layers cannot drift apart.
        if let Some(timestamp) = eventor_events::first_out_of_order(events, self.last_event_t) {
            return Err(EmvsError::OutOfOrder { timestamp });
        }
        let free = self.capacity - self.events.len().min(self.capacity);
        if free == 0 {
            return Err(EmvsError::Backpressure {
                pending: self.events.len(),
                capacity: self.capacity,
            });
        }
        let take = free.min(events.len());
        self.events.extend(events[..take].iter().copied());
        self.last_event_t = Some(events[take - 1].t);
        Ok(take)
    }

    /// Drops every queued event (not poses) and returns how many were
    /// discarded. The order watermark is kept, so later enqueues must still
    /// follow the discarded events in time.
    pub(crate) fn discard_events(&mut self) -> usize {
        let dropped = self.events.len();
        self.events.clear();
        dropped
    }

    /// Closes the queue for good, drops everything still queued and frees
    /// both lanes' storage (`clear` keeps it). Every terminal path of a
    /// session calls this, so a server's memory does not grow with the
    /// number of sessions it has served.
    pub(crate) fn release(&mut self) {
        self.events = VecDeque::new();
        self.poses = VecDeque::new();
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_events::Polarity;

    fn ev(t: f64) -> Event {
        Event::new(t, 1, 1, Polarity::Positive)
    }

    #[test]
    fn short_write_and_backpressure() {
        let mut q = IngestQueue::new(4);
        assert_eq!(q.enqueue_events(&[ev(0.0), ev(1.0)]).unwrap(), 2);
        // Only two of three fit: short write.
        assert_eq!(q.enqueue_events(&[ev(2.0), ev(3.0), ev(4.0)]).unwrap(), 2);
        assert_eq!(q.depth(), 4);
        // Full: zero acceptance is an error, not a silent drop.
        assert!(matches!(
            q.enqueue_events(&[ev(5.0)]),
            Err(EmvsError::Backpressure {
                pending: 4,
                capacity: 4
            })
        ));
    }

    #[test]
    fn out_of_order_is_rejected_whole() {
        let mut q = IngestQueue::new(8);
        q.enqueue_events(&[ev(1.0)]).unwrap();
        assert!(matches!(
            q.enqueue_events(&[ev(2.0), ev(0.5)]),
            Err(EmvsError::OutOfOrder { .. })
        ));
        assert_eq!(q.depth(), 1, "a rejected packet enqueues nothing");
        // Equal timestamps are allowed (sensor bursts).
        q.enqueue_events(&[ev(1.0)]).unwrap();
    }

    #[test]
    fn discard_keeps_the_order_watermark() {
        let mut q = IngestQueue::new(8);
        q.enqueue_events(&[ev(1.0), ev(2.0)]).unwrap();
        assert_eq!(q.discard_events(), 2);
        assert_eq!(q.depth(), 0);
        assert!(matches!(
            q.enqueue_events(&[ev(0.5)]),
            Err(EmvsError::OutOfOrder { .. })
        ));
        q.enqueue_events(&[ev(3.0)]).unwrap();
    }

    #[test]
    fn capacity_is_clamped_and_empty_pushes_are_free() {
        let mut q = IngestQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.enqueue_events(&[]).unwrap(), 0);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
    }
}
