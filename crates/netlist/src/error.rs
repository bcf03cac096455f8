//! Error type for netlist construction and validation.

use std::error::Error;
use std::fmt;

use crate::{GateId, NetId};

/// Errors reported while building or validating a [`Netlist`](crate::Netlist).
///
/// # Example
///
/// ```
/// use agemul_logic::GateKind;
/// use agemul_netlist::{Netlist, NetlistError};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let err = n.add_gate(GateKind::Mux2, &[a, a]).unwrap_err();
/// assert!(matches!(err, NetlistError::BadArity { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was created with an input count its kind does not accept.
    BadArity {
        /// The offending gate kind, formatted for display.
        kind: String,
        /// The number of inputs supplied.
        got: usize,
    },
    /// A gate referenced a net id that does not exist in this netlist.
    UnknownNet {
        /// The dangling reference.
        net: NetId,
    },
    /// The netlist contains a combinational cycle through the given gate.
    CombinationalCycle {
        /// A gate on the cycle.
        gate: GateId,
    },
    /// Two input/output vectors disagree on width.
    WidthMismatch {
        /// Expected width.
        expected: usize,
        /// Provided width.
        got: usize,
    },
    /// A batch simulation call was given an unusable pattern count (zero,
    /// or more than the 64 available lanes).
    BatchSize {
        /// The number of patterns supplied.
        got: usize,
    },
    /// An export or import path failed on the underlying I/O stream.
    ///
    /// Carries the rendered [`std::io::Error`] message so the error stays
    /// `Clone`/`Eq` (raw `io::Error` is neither).
    Io {
        /// The rendered I/O error message.
        message: String,
    },
    /// A per-gate delay factor is unusable: not finite and positive, or it
    /// scales the gate's delay to 0 fs or past the timing kernels'
    /// timestamp range.
    BadDelayFactor {
        /// The gate the factor applies to.
        gate: GateId,
        /// The factor, rendered for display (keeps the error `Eq`).
        factor: String,
    },
    /// A simulation was cooperatively cancelled via a
    /// [`CancelToken`](crate::CancelToken) (explicit cancel or expired
    /// deadline). Simulator state is unspecified after a cancelled step;
    /// re-`settle` before reuse.
    Cancelled,
}

impl From<std::io::Error> for NetlistError {
    fn from(e: std::io::Error) -> Self {
        NetlistError::Io {
            message: e.to_string(),
        }
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::BadArity { kind, got } => {
                write!(f, "gate {kind} cannot have {got} inputs")
            }
            NetlistError::UnknownNet { net } => {
                write!(f, "reference to unknown net {net}")
            }
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through gate {gate}")
            }
            NetlistError::WidthMismatch { expected, got } => {
                write!(f, "expected {expected} signals, got {got}")
            }
            NetlistError::BatchSize { got } => {
                write!(f, "batch needs 1..=64 patterns, got {got}")
            }
            NetlistError::Io { message } => {
                write!(f, "i/o failure: {message}")
            }
            NetlistError::BadDelayFactor { gate, factor } => {
                write!(f, "delay factor {factor} of gate {gate} is out of range")
            }
            NetlistError::Cancelled => {
                write!(
                    f,
                    "simulation cancelled (deadline expired or cancel requested)"
                )
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_concise() {
        let cases: Vec<NetlistError> = vec![
            NetlistError::BadArity {
                kind: "MUX2".into(),
                got: 2,
            },
            NetlistError::UnknownNet { net: NetId(5) },
            NetlistError::CombinationalCycle { gate: GateId(2) },
            NetlistError::WidthMismatch {
                expected: 4,
                got: 3,
            },
            NetlistError::BatchSize { got: 65 },
            NetlistError::Io {
                message: "disk full".into(),
            },
            NetlistError::BadDelayFactor {
                gate: GateId(3),
                factor: "inf".into(),
            },
            NetlistError::Cancelled,
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("gate"));
        }
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<NetlistError>();
    }
}
