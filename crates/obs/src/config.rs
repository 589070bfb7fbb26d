//! Per-scenario observability selection.
//!
//! [`ObsConfig`] rides on `netdsl_netsim::scenario::EngineConfig` the
//! way the engine axes do, but it is **not** a parity axis: turning
//! telemetry on must never change a scenario's result or transcript
//! (the E16 harness measures the overhead, and `tests/flight_parity.rs`
//! pins that a ring recording is the transcript recording less its
//! digest events), so golden fixtures and `EngineConfig::label` ignore
//! it.

/// Ring capacity of [`ObsConfig::with_flight`].
pub const DEFAULT_FLIGHT_CAPACITY: u32 = 4096;

/// Which flight recorder a scenario's simulator carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightMode {
    /// A ring keeping the newest `n` events, evicting the oldest.
    Ring(u32),
    /// Every event, never evicted, plus the wire bytes of every send
    /// and delivery and one `Digest` event per delivery an endpoint has
    /// handled: the recording a golden transcript is projected from.
    Transcript,
}

/// What a scenario asks the engine to record.
///
/// The default is no recorder: the hot path then pays one branch per
/// recording site. The metric registry is process-wide, not
/// per-scenario: [`crate::set_metrics_enabled`] turns it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ObsConfig {
    /// The flight recorder to install on the scenario's simulator, if
    /// any.
    pub flight: Option<FlightMode>,
}

impl ObsConfig {
    /// No recorder (the default).
    #[must_use]
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Installs a ring of [`DEFAULT_FLIGHT_CAPACITY`] events (builder
    /// style).
    #[must_use]
    pub fn with_flight(self) -> Self {
        self.with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Installs a ring of `capacity` events (builder style; 0 keeps
    /// only the count).
    #[must_use]
    pub fn with_flight_capacity(mut self, capacity: u32) -> Self {
        self.flight = Some(FlightMode::Ring(capacity));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let cfg = ObsConfig::default();
        assert!(cfg.flight.is_none());
        assert_eq!(cfg, ObsConfig::off());
    }

    #[test]
    fn builders_compose() {
        let cfg = ObsConfig::off().with_flight().with_flight_capacity(64);
        assert_eq!(cfg.flight, Some(FlightMode::Ring(64)));
        assert_eq!(
            ObsConfig::off().with_flight().flight,
            Some(FlightMode::Ring(DEFAULT_FLIGHT_CAPACITY))
        );
    }
}
