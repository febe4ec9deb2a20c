//! Time-stamped series for in-simulation probes. Plain data (no executor
//! coupling). Counters and latency histograms live in `imca-metrics`.

use crate::time::SimTime;

/// A sequence of `(time, value)` observations, e.g. throughput over time.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Series {
        Series::default()
    }

    /// Append an observation.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All observations in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent observation.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_points_in_order() {
        let mut s = Series::new();
        s.push(SimTime(1), 10.0);
        s.push(SimTime(2), 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((SimTime(2), 20.0)));
    }
}
