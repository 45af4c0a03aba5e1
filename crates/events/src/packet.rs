//! Event aggregation (`𝒜` in the paper): splitting the event stream into
//! fixed-size *event frames* that are processed together.
//!
//! The paper uses frames of 1024 events, "determined according to the
//! sensor's event rate and storage" — that constant is
//! [`DEFAULT_EVENTS_PER_FRAME`].

use crate::event::Event;
use crate::stream::EventStream;

/// Number of events per frame used throughout the paper's evaluation.
pub const DEFAULT_EVENTS_PER_FRAME: usize = 1024;

/// A packet of events processed as one unit by the back-projection stages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventFrame {
    /// The events of the frame, in time order.
    pub events: Vec<Event>,
    /// Sequential frame index within the stream.
    pub index: usize,
}

impl EventFrame {
    /// Number of events in the frame.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the frame has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the first event.
    pub fn start_time(&self) -> Option<f64> {
        self.events.first().map(|e| e.t)
    }

    /// Timestamp of the last event.
    pub fn end_time(&self) -> Option<f64> {
        self.events.last().map(|e| e.t)
    }

    /// Representative timestamp of the frame (mid-point between first and last
    /// event) used to look up the camera pose for the whole frame.
    ///
    /// Using one pose per frame is the approximation the accelerator relies on
    /// (the homography and φ are computed once per frame).
    pub fn timestamp(&self) -> Option<f64> {
        match (self.start_time(), self.end_time()) {
            (Some(a), Some(b)) => Some(0.5 * (a + b)),
            _ => None,
        }
    }
}

/// Splits an event stream into frames of a fixed number of events.
///
/// The trailing partial frame (fewer than `events_per_frame` events) is kept:
/// discarding it would bias the accuracy evaluation on short sequences.
///
/// # Panics
///
/// Panics if `events_per_frame` is zero.
///
/// # Examples
///
/// ```
/// use eventor_events::{aggregate, Event, EventStream, Polarity};
/// let stream: EventStream = (0..2500)
///     .map(|i| Event::new(i as f64 * 1e-4, 0, 0, Polarity::Positive))
///     .collect();
/// let frames = aggregate(&stream, 1024);
/// assert_eq!(frames.len(), 3);
/// assert_eq!(frames[0].len(), 1024);
/// assert_eq!(frames[2].len(), 2500 - 2048);
/// ```
pub fn aggregate(stream: &EventStream, events_per_frame: usize) -> Vec<EventFrame> {
    assert!(events_per_frame > 0, "events_per_frame must be positive");
    stream
        .as_slice()
        .chunks(events_per_frame)
        .enumerate()
        .map(|(index, chunk)| EventFrame {
            events: chunk.to_vec(),
            index,
        })
        .collect()
}

/// An iterator adapter that yields event frames lazily from a stream slice.
///
/// Useful for the streaming accelerator model, which consumes frames one at a
/// time through the DMA model rather than materialising all of them.
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    remaining: &'a [Event],
    events_per_frame: usize,
    next_index: usize,
}

impl<'a> FrameIter<'a> {
    /// Creates a new frame iterator over `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `events_per_frame` is zero.
    pub fn new(stream: &'a EventStream, events_per_frame: usize) -> Self {
        assert!(events_per_frame > 0, "events_per_frame must be positive");
        Self {
            remaining: stream.as_slice(),
            events_per_frame,
            next_index: 0,
        }
    }
}

impl Iterator for FrameIter<'_> {
    type Item = EventFrame;

    fn next(&mut self) -> Option<EventFrame> {
        if self.remaining.is_empty() {
            return None;
        }
        let n = self.events_per_frame.min(self.remaining.len());
        let (head, tail) = self.remaining.split_at(n);
        self.remaining = tail;
        let frame = EventFrame {
            events: head.to_vec(),
            index: self.next_index,
        };
        self.next_index += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.len().div_ceil(self.events_per_frame);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polarity;

    fn stream(n: usize) -> EventStream {
        (0..n)
            .map(|i| {
                Event::new(
                    i as f64 * 1e-3,
                    (i % 240) as u16,
                    (i % 180) as u16,
                    Polarity::Positive,
                )
            })
            .collect()
    }

    #[test]
    fn aggregation_preserves_all_events_in_order() {
        let s = stream(3000);
        let frames = aggregate(&s, DEFAULT_EVENTS_PER_FRAME);
        assert_eq!(frames.len(), 3);
        let total: usize = frames.iter().map(|f| f.len()).sum();
        assert_eq!(total, 3000);
        assert_eq!(frames[0].index, 0);
        assert_eq!(frames[2].index, 2);
        assert_eq!(frames[2].len(), 3000 - 2048);
        // Frame boundaries keep global time order.
        assert!(frames[0].end_time().unwrap() <= frames[1].start_time().unwrap());
    }

    #[test]
    fn empty_stream_gives_no_frames() {
        let frames = aggregate(&EventStream::new(), 1024);
        assert!(frames.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_frame_size_panics() {
        let _ = aggregate(&EventStream::new(), 0);
    }

    #[test]
    fn frame_timestamp_is_midpoint() {
        let s = stream(11);
        let frames = aggregate(&s, 11);
        let f = &frames[0];
        let mid = 0.5 * (f.start_time().unwrap() + f.end_time().unwrap());
        assert!((f.timestamp().unwrap() - mid).abs() < 1e-15);
        assert!(EventFrame::default().timestamp().is_none());
    }

    #[test]
    fn frame_iter_matches_aggregate() {
        let s = stream(2500);
        let eager = aggregate(&s, 1000);
        let lazy: Vec<EventFrame> = FrameIter::new(&s, 1000).collect();
        assert_eq!(eager, lazy);
        assert_eq!(FrameIter::new(&s, 1000).size_hint(), (3, Some(3)));
    }
}
