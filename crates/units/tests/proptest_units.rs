//! Property tests for the `noc-units` quantity types: the checked
//! constructors reject exactly the out-of-domain inputs, arithmetic is
//! closed over valid quantities (never smuggling NaN/∞ past the
//! boundary), and the one serialization seam (`Display`/`FromStr`/
//! `to_f64`) round-trips bit-exactly.

use std::str::FromStr;

use noc_units::{HopMbps, Hops, Latency, Mbps, Score};
use proptest::prelude::*;

/// Finite non-negative payloads — the domain every quantity accepts.
fn valid() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..1e12).prop_map(|(kind, v)| match kind {
        0 => v,
        1 => 0.0,
        2 => f64::MIN_POSITIVE,
        _ => f64::MAX / 4.0,
    })
}

/// Everything a checked constructor must refuse.
fn invalid() -> impl Strategy<Value = f64> {
    (0u8..4, f64::MIN_POSITIVE..1e12).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => -v,
    })
}

proptest! {
    // ---- constructor boundary -------------------------------------

    #[test]
    fn constructors_accept_the_valid_domain(v in valid()) {
        prop_assert!(Mbps::new(v).is_ok());
        prop_assert!(HopMbps::new(v).is_ok());
        prop_assert!(Latency::new(v).is_ok());
        prop_assert!(Score::new(v).is_ok());
    }

    #[test]
    fn constructors_reject_nan_inf_negative(v in invalid()) {
        prop_assert!(Mbps::new(v).is_err());
        prop_assert!(HopMbps::new(v).is_err());
        prop_assert!(Latency::new(v).is_err());
    }

    #[test]
    fn positive_constructor_also_rejects_zero(v in valid()) {
        prop_assert_eq!(Mbps::positive(v).is_ok(), v > 0.0);
    }

    #[test]
    fn negative_zero_is_normalized(v in Just(-0.0f64)) {
        let q = Mbps::new(v).unwrap();
        prop_assert!(q.to_f64().is_sign_positive());
        prop_assert_eq!(q, Mbps::ZERO);
    }

    // ---- arithmetic unit-closure ----------------------------------

    #[test]
    fn addition_is_closed_and_exact(a in valid(), b in valid()) {
        // Quantity addition must equal raw f64 addition bit-for-bit
        // (byte-identity of every serialized sum) unless the sum
        // overflows to infinity, which the quantity domain forbids.
        let (qa, qb) = (Mbps::new(a).unwrap(), Mbps::new(b).unwrap());
        if (a + b).is_finite() {
            let sum = qa + qb;
            prop_assert_eq!(sum.to_f64().to_bits(), (a + b).to_bits());
        }
    }

    #[test]
    fn sum_matches_fold_order(values in prop::collection::vec(0.0f64..1e9, 0..16)) {
        // `Sum` must accumulate in iteration order, exactly like the
        // bare-f64 loop it replaced.
        let typed: Mbps = values.iter().map(|&v| Mbps::new(v).unwrap()).sum();
        let raw = values.iter().fold(0.0f64, |acc, &v| acc + v);
        prop_assert_eq!(typed.to_f64().to_bits(), raw.to_bits());
    }

    #[test]
    fn rate_times_hops_is_hop_mbps(rate in 0.0f64..1e9, hops in 0usize..64) {
        let product: HopMbps = Mbps::new(rate).unwrap() * Hops::new(hops);
        prop_assert_eq!(product.to_f64().to_bits(), (rate * hops as f64).to_bits());
        // And commuted.
        let flipped: HopMbps = Hops::new(hops) * Mbps::new(rate).unwrap();
        prop_assert_eq!(flipped, product);
    }

    #[test]
    fn cost_difference_round_trips(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let delta = HopMbps::new(a).unwrap() - HopMbps::new(b).unwrap();
        prop_assert_eq!(delta.to_f64().to_bits(), (a - b).to_bits());
    }

    #[test]
    fn ord_agrees_with_f64_on_the_valid_domain(a in valid(), b in valid()) {
        // `Ord` via total_cmp must agree with the partial order the raw
        // comparators used — the comparator swap is behavior-preserving.
        let (qa, qb) = (Mbps::new(a).unwrap(), Mbps::new(b).unwrap());
        prop_assert_eq!(qa.cmp(&qb), a.partial_cmp(&b).unwrap());
    }

    #[test]
    fn max_matches_f64_max(a in valid(), b in valid()) {
        let m = Mbps::new(a).unwrap().max(Mbps::new(b).unwrap());
        prop_assert_eq!(m.to_f64().to_bits(), a.max(b).to_bits());
    }

    // ---- serialization seam ---------------------------------------

    #[test]
    fn display_is_bitwise_f64_display(v in valid()) {
        // The one-seam rule: `{}` on a quantity is `{}` on its payload,
        // so pre-refactor outputs stay byte-identical.
        let q = Mbps::new(v).unwrap();
        prop_assert_eq!(format!("{q}"), format!("{v}"));
        prop_assert_eq!(format!("{q:.1}"), format!("{v:.1}"));
        prop_assert_eq!(format!("{q:.0}"), format!("{v:.0}"));
    }

    #[test]
    fn display_parse_round_trip(v in valid()) {
        // Rust's shortest-round-trip float formatting guarantees
        // parse(format(v)) == v, and the quantity seam must preserve it.
        let q = Mbps::new(v).unwrap();
        let back = Mbps::from_str(&format!("{q}")).unwrap();
        prop_assert_eq!(back.to_f64().to_bits(), q.to_f64().to_bits());
    }

    #[test]
    fn from_str_rejects_out_of_domain_text(v in invalid()) {
        let text = format!("{v}");
        prop_assert!(Mbps::from_str(&text).is_err());
        prop_assert!(Latency::from_str(&text).is_err());
    }

    // ---- Score: the one type that admits +inf ---------------------

    #[test]
    fn score_feasibility_round_trips(cost in valid()) {
        let s = Score::feasible(HopMbps::new(cost).unwrap());
        prop_assert!(s.is_feasible());
        prop_assert_eq!(s.cost().unwrap().to_f64().to_bits(), cost.to_bits());
        prop_assert!(Score::INFEASIBLE.cost().is_none());
        prop_assert!(s < Score::INFEASIBLE);
    }
}
