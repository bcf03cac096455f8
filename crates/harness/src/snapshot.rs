//! Typed value ⇄ JSON codecs for checkpointed work.
//!
//! Everything a supervised run checkpoints must round-trip
//! **bit-identically** — a resumed run replays recorded evidence instead
//! of recomputing it, and the resume-identity guarantee only holds if the
//! trip through JSON is lossless. The `agemul` [`Json`] model was built
//! for exactly this: `u64` is a distinct variant and floats print in
//! shortest round-trip form, so `f64::to_bits` survives.

use agemul::{Json, PatternProfile, PatternRecord};
use agemul_circuits::MultiplierKind;
use agemul_netlist::NetlistError;

fn kind_label(kind: MultiplierKind) -> &'static str {
    kind.label()
}

fn kind_from_label(label: &str) -> Result<MultiplierKind, String> {
    match label {
        "AM" => Ok(MultiplierKind::Array),
        "CB" => Ok(MultiplierKind::ColumnBypass),
        "RB" => Ok(MultiplierKind::RowBypass),
        "WAL" => Ok(MultiplierKind::Wallace),
        "BOOTH" => Ok(MultiplierKind::Booth),
        other => Err(format!("unknown multiplier kind label {other:?}")),
    }
}

/// Serializes a [`PatternProfile`] losslessly (operands as integers,
/// delays as shortest-round-trip floats, switching activity included).
pub fn profile_to_json(p: &PatternProfile) -> Json {
    let records = p
        .records()
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("a".into(), Json::UInt(r.a)),
                ("b".into(), Json::UInt(r.b)),
                ("zeros".into(), Json::UInt(u64::from(r.zeros))),
                ("delay_ns".into(), Json::Num(r.delay_ns)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("kind".into(), Json::Str(kind_label(p.kind()).into())),
        ("width".into(), Json::UInt(p.width() as u64)),
        ("avg_gate_toggles".into(), Json::Num(p.avg_gate_toggles())),
        ("records".into(), Json::Arr(records)),
    ])
}

/// Rebuilds a [`PatternProfile`] from [`profile_to_json`] output.
///
/// # Errors
///
/// A rendered description of the first missing or mistyped field.
pub fn profile_from_json(v: &Json) -> Result<PatternProfile, String> {
    let kind = kind_from_label(v.get_str("kind")?)?;
    let width = v.get_u64("width")? as usize;
    let toggles = v.get_f64("avg_gate_toggles")?;
    let records = v
        .get_arr("records")?
        .iter()
        .map(|r| {
            Ok(PatternRecord {
                a: r.get_u64("a")?,
                b: r.get_u64("b")?,
                zeros: r.get_u32("zeros")?,
                delay_ns: r.get_f64("delay_ns")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(PatternProfile::from_records_with_toggles(
        kind, width, records, toggles,
    ))
}

/// Whether `err`'s source chain bottoms out in
/// [`NetlistError::Cancelled`] — i.e. the failure is a cooperative
/// deadline firing, not a real fault. [`CaseError::from_error`](crate::CaseError::from_error)
/// uses this to remap propagation errors onto
/// [`CaseError::Cancelled`](crate::CaseError).
pub fn is_cancellation(err: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(err);
    while let Some(e) = cur {
        if matches!(
            e.downcast_ref::<NetlistError>(),
            Some(NetlistError::Cancelled)
        ) {
            return true;
        }
        cur = e.source();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_round_trips_bit_identically() {
        let records = vec![
            PatternRecord {
                a: u64::MAX,
                b: 3,
                zeros: 12,
                delay_ns: 1.3200000000000003,
            },
            PatternRecord {
                a: 0,
                b: 0,
                zeros: 16,
                delay_ns: 0.0,
            },
        ];
        let p = PatternProfile::from_records_with_toggles(
            MultiplierKind::ColumnBypass,
            16,
            records,
            123.456789,
        );
        let j = profile_to_json(&p);
        // Through text, as a checkpoint would.
        let back = profile_from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, p);
        assert_eq!(
            back.records()[0].delay_ns.to_bits(),
            p.records()[0].delay_ns.to_bits()
        );
        assert_eq!(
            back.avg_gate_toggles().to_bits(),
            p.avg_gate_toggles().to_bits()
        );
    }

    #[test]
    fn malformed_documents_are_described() {
        assert!(profile_from_json(&Json::Null).is_err());
        let bogus = Json::Obj(vec![("kind".into(), Json::Str("bogus".into()))]);
        assert!(profile_from_json(&bogus).unwrap_err().contains("bogus"));
        assert!(kind_from_label("XX").is_err());
    }

    /// An error that wraps another one level deeper, as a worker's own
    /// error type wraps the core error it propagates.
    #[derive(Debug)]
    struct Wrapped(Box<dyn std::error::Error + 'static>);

    impl std::fmt::Display for Wrapped {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "worker failed: {}", self.0)
        }
    }

    impl std::error::Error for Wrapped {
        fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
            Some(&*self.0)
        }
    }

    #[test]
    fn cancellation_is_detected_through_error_chains() {
        use agemul::CoreError;

        use crate::CaseError;

        let core = CoreError::from(NetlistError::Cancelled);
        let nested = Wrapped(Box::new(CoreError::from(NetlistError::Cancelled)));
        let boxed: Box<dyn std::error::Error> =
            Box::new(Wrapped(Box::new(CoreError::from(NetlistError::Cancelled))));
        assert!(is_cancellation(&nested));
        assert_eq!(CaseError::from_error(&core), CaseError::Cancelled);
        assert_eq!(CaseError::from_error(&nested), CaseError::Cancelled);
        assert_eq!(CaseError::from_error(&*boxed), CaseError::Cancelled);

        let other = Wrapped("invalid fault site".into());
        assert!(!is_cancellation(&other));
        assert_eq!(
            CaseError::from_error(&other),
            CaseError::Failed(other.to_string())
        );
        let boxed_other: Box<dyn std::error::Error> =
            Box::new(Wrapped("invalid fault site".into()));
        assert_eq!(
            CaseError::from_error(&*boxed_other),
            CaseError::Failed(other.to_string())
        );
    }
}
