//! Per-scenario observability selection.
//!
//! [`ObsConfig`] rides on `netdsl_netsim::scenario::EngineConfig` the
//! way the engine axes do, but it is **not** a parity axis: turning
//! telemetry on must never change a scenario's result or transcript
//! (the E16 harness measures the overhead and the flight-parity suite
//! pins the equivalence), so golden fixtures and `EngineConfig::label`
//! ignore it.

/// Flight-recorder ring capacity used when a scenario enables the
/// recorder without choosing one.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What a scenario asks the engine to observe.
///
/// The default is everything off — the hot path pays one branch for the
/// absent flight recorder and one relaxed load per metric site, which is
/// what keeps the `alloc_zero` invariant and the E13/E14/E15 numbers
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ObsConfig {
    /// Enable the process-wide metric registry
    /// ([`crate::set_metrics_enabled`]) when this scenario is installed
    /// on a simulator. Enabling is sticky — the registry is global by
    /// nature, and concurrent scenarios without the flag must not turn
    /// it back off mid-run.
    pub metrics: bool,
    /// Install a flight recorder on the scenario's simulator.
    pub flight: bool,
    /// Flight ring capacity; 0 selects [`DEFAULT_FLIGHT_CAPACITY`].
    pub flight_capacity: u32,
}

impl ObsConfig {
    /// Everything off (the default).
    #[must_use]
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Turns the metric registry on (builder style).
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Installs a flight recorder at the default capacity (builder
    /// style).
    #[must_use]
    pub fn with_flight(mut self) -> Self {
        self.flight = true;
        self
    }

    /// Installs a flight recorder with an explicit ring capacity
    /// (builder style; implies [`ObsConfig::with_flight`]).
    #[must_use]
    pub fn with_flight_capacity(mut self, capacity: u32) -> Self {
        self.flight = true;
        self.flight_capacity = capacity;
        self
    }

    /// `true` if anything is enabled.
    pub fn enabled(&self) -> bool {
        self.metrics || self.flight
    }

    /// The effective flight ring capacity.
    pub fn flight_cap(&self) -> usize {
        if self.flight_capacity == 0 {
            DEFAULT_FLIGHT_CAPACITY
        } else {
            self.flight_capacity as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg, ObsConfig::off());
    }

    #[test]
    fn builders_compose() {
        let cfg = ObsConfig::off().with_metrics().with_flight_capacity(64);
        assert!(cfg.metrics && cfg.flight);
        assert_eq!(cfg.flight_cap(), 64);
        assert_eq!(
            ObsConfig::off().with_flight().flight_cap(),
            DEFAULT_FLIGHT_CAPACITY
        );
    }
}
