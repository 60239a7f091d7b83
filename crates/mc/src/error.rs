//! Error type of the Monte-Carlo engine.

use std::fmt;

/// Failure modes of scenario construction and estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// A parameter is outside the domain the engine supports.
    InvalidInput(String),
}

impl McError {
    /// Convenience constructor for [`McError::InvalidInput`].
    pub fn invalid(message: impl Into<String>) -> Self {
        McError::InvalidInput(message.into())
    }
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::InvalidInput(message) => write!(f, "invalid input: {message}"),
        }
    }
}

impl std::error::Error for McError {}

impl From<raysearch_strategies::StrategyError> for McError {
    fn from(e: raysearch_strategies::StrategyError) -> Self {
        McError::invalid(format!("strategy: {e}"))
    }
}

impl From<raysearch_bounds::BoundsError> for McError {
    fn from(e: raysearch_bounds::BoundsError) -> Self {
        McError::invalid(format!("bounds: {e}"))
    }
}

/// Core errors reach this crate only from compiling a fleet's
/// first-visit pieces.
impl From<raysearch_core::CoreError> for McError {
    fn from(e: raysearch_core::CoreError) -> Self {
        McError::invalid(format!("first-visit compilation: {e}"))
    }
}

impl From<raysearch_sim::SimError> for McError {
    fn from(e: raysearch_sim::SimError) -> Self {
        McError::invalid(format!("sim: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e = McError::invalid("bad p");
        assert!(e.to_string().contains("bad p"));
        // an out-of-regime instance surfaces as a strategy-tagged error
        let err = raysearch_strategies::CyclicExponential::optimal(2, 1, 5).unwrap_err();
        let s: McError = err.into();
        assert!(s.to_string().contains("strategy"));
    }
}
