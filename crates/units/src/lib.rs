//! Unit-safe typed quantities for the NMAP suite.
//!
//! The paper mixes units everywhere: bandwidth constraints in MB/s
//! (Inequality 3), communication cost in hops·MB/s (Equation 7), and
//! simulator latency in cycles. This crate gives each its own newtype so the
//! compiler rejects cross-unit arithmetic — `Mbps + HopMbps` is a type
//! error, `Mbps × Hops` is the one sanctioned product (and it yields
//! [`HopMbps`]).
//!
//! # Invariants and constructors
//!
//! Every f64-backed quantity holds a **finite, non-negative** value
//! (`-0.0` is normalized to `+0.0`); [`Score`] additionally admits `+∞`
//! as the infeasible sentinel. Two constructors per type:
//!
//! * `new` — checked; rejects NaN/∞/negative with a [`UnitError`]. Use it
//!   at every boundary where a bare `f64` enters the typed world (parsers,
//!   builders, public intake APIs).
//! * `raw` — trusted; `debug_assert!`s the invariant. Use it where the
//!   value is produced by arithmetic that preserves the invariant (hot
//!   paths, fold results). CI runs the release test suite with
//!   `-C debug-assertions` so these guards actually execute.
//!
//! Because NaN is unrepresentable, every quantity has a **total order**
//! (`Ord` via `f64::total_cmp`) — quantile and sort code needs no NaN
//! special-casing.
//!
//! # The one-seam serialization rule
//!
//! All human- and machine-readable output goes through exactly one seam
//! per type: `Display` delegates to the inner `f64`'s `Display` (so `{}`
//! keeps Rust's shortest-round-trip form and `{:.1}` keeps its meaning),
//! and `to_f64`/`get` expose the raw value for writers that format
//! themselves. Nothing else renders a quantity, which is what keeps every
//! JSONL/CSV/summary byte-identical across refactors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};
use std::str::FromStr;

/// A quantity constructor rejected its input.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitError {
    /// The value was NaN or infinite.
    NotFinite {
        /// Unit name (e.g. `"MB/s"`).
        unit: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The value was negative.
    Negative {
        /// Unit name.
        unit: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The value fell outside the type's closed range (e.g. a zero
    /// [`Mbps::positive`] capacity).
    OutOfRange {
        /// Unit name.
        unit: &'static str,
        /// The offending value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// The text form did not parse as a number.
    Parse {
        /// Unit name.
        unit: &'static str,
        /// The offending input.
        input: String,
    },
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::NotFinite { unit, value } => {
                write!(f, "{unit} value must be finite, got {value}")
            }
            UnitError::Negative { unit, value } => {
                write!(f, "{unit} value must be non-negative, got {value}")
            }
            UnitError::OutOfRange { unit, value, min, max } => {
                write!(f, "{unit} value must be in [{min}, {max}], got {value}")
            }
            UnitError::Parse { unit, input } => {
                write!(f, "cannot parse {unit} value from {input:?}")
            }
        }
    }
}

impl std::error::Error for UnitError {}

/// Implements the comparison traits for an f64 newtype whose invariant
/// excludes NaN: `total_cmp` is then a total order consistent with value
/// equality (constructors normalize `-0.0` to `+0.0`).
macro_rules! impl_total_order {
    ($name:ident) => {
        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for $name {}
        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
    };
}

/// Implements the one-seam rendering (`Display` delegates to the inner
/// `f64`, so format specs pass through) and checked text parsing.
macro_rules! impl_display_parse {
    ($name:ident) => {
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
        impl FromStr for $name {
            type Err = UnitError;
            fn from_str(s: &str) -> Result<Self, UnitError> {
                let value: f64 = s
                    .parse()
                    .map_err(|_| UnitError::Parse { unit: Self::UNIT, input: s.to_string() })?;
                Self::new(value)
            }
        }
    };
}

/// Defines a finite, non-negative f64 quantity newtype.
macro_rules! nonneg_quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name(f64);

        impl $name {
            /// The unit's display name.
            pub const UNIT: &'static str = $unit;
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Checked constructor: rejects NaN, ±∞ and negative values.
            ///
            /// # Errors
            ///
            /// [`UnitError::NotFinite`] or [`UnitError::Negative`].
            #[inline]
            pub fn new(value: f64) -> Result<Self, UnitError> {
                if !value.is_finite() {
                    return Err(UnitError::NotFinite { unit: $unit, value });
                }
                if value < 0.0 {
                    return Err(UnitError::Negative { unit: $unit, value });
                }
                // `-0.0 + 0.0 == +0.0`; every other finite value is
                // unchanged. Keeps `total_cmp` equality == value equality.
                Ok(Self(value + 0.0))
            }

            /// Trusted constructor for values produced by
            /// invariant-preserving arithmetic (hot paths). The invariant
            /// is `debug_assert!`ed; CI exercises it in release mode via
            /// `-C debug-assertions`.
            #[inline]
            pub fn raw(value: f64) -> Self {
                debug_assert!(
                    value.is_finite() && value >= 0.0,
                    concat!($unit, " value must be finite and non-negative, got {}"),
                    value
                );
                Self(value + 0.0)
            }

            /// The raw value — the only numeric exit seam.
            #[inline]
            pub fn to_f64(self) -> f64 {
                self.0
            }

            /// True when the value is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// The larger of the two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                if other > self { other } else { self }
            }

            /// Dimensionless ratio `self / denom` (`NaN`-free: 0/0 is
            /// defined as 0, x/0 as `+∞` only when `x > 0` never occurs
            /// here — callers guard zero denominators themselves when the
            /// distinction matters).
            #[inline]
            pub fn ratio(self, denom: Self) -> f64 {
                self.0 / denom.0
            }
        }

        impl_total_order!($name);
        impl_display_parse!($name);

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self::raw(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self::raw(iter.map(|q| q.0).sum())
            }
        }
    };
}

nonneg_quantity!(
    /// Bandwidth / throughput / link load in MB/s — the unit of link
    /// capacities (Inequality 3), commodity values (Equation 2) and
    /// simulator throughput columns.
    Mbps,
    "MB/s"
);
nonneg_quantity!(
    /// Communication cost in hops·MB/s — the Equation-7 objective: each
    /// commodity's bandwidth times the hop distance it travels.
    HopMbps,
    "hops*MB/s"
);
nonneg_quantity!(
    /// A latency measured in cycles, as a mean or other statistic (hence
    /// fractional).
    Latency,
    "cycles"
);

impl Mbps {
    /// Checked constructor for values that must be **strictly positive**
    /// (link capacities, `.dse` bandwidth sweep points).
    ///
    /// # Errors
    ///
    /// [`UnitError`] as for [`Mbps::new`]; zero reports
    /// [`UnitError::OutOfRange`] with `min > 0`.
    #[inline]
    pub fn positive(value: f64) -> Result<Self, UnitError> {
        let q = Self::new(value)?;
        if q.is_zero() {
            return Err(UnitError::OutOfRange {
                unit: Self::UNIT,
                value,
                min: f64::MIN_POSITIVE,
                max: f64::MAX,
            });
        }
        Ok(q)
    }
}

/// Hop count of a route (dimensionless path length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hops(usize);

impl Hops {
    /// Wraps a hop count.
    #[inline]
    pub fn new(hops: usize) -> Self {
        Self(hops)
    }

    /// The raw count.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }
}

impl fmt::Display for Hops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// `Mbps × Hops → HopMbps`: the Equation-7 product, and the only
/// cross-unit multiplication the type system admits.
impl Mul<Hops> for Mbps {
    type Output = HopMbps;
    #[inline]
    fn mul(self, rhs: Hops) -> HopMbps {
        HopMbps::raw(self.0 * rhs.0 as f64)
    }
}

/// Commutative spelling of [`Mbps`]` × `[`Hops`].
impl Mul<Mbps> for Hops {
    type Output = HopMbps;
    #[inline]
    fn mul(self, rhs: Mbps) -> HopMbps {
        rhs * self
    }
}

/// Scaling a rate by a dimensionless fraction (e.g. a split-route share)
/// keeps the unit.
impl Mul<f64> for Mbps {
    type Output = Mbps;
    #[inline]
    fn mul(self, rhs: f64) -> Mbps {
        Mbps::raw(self.0 * rhs)
    }
}

/// Signed communication-cost difference in hops·MB/s — the unit of
/// [`HopMbps`]` − `[`HopMbps`] and of the swap-delta kernel's result.
/// Finite, any sign.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostDelta(f64);

impl CostDelta {
    /// The unit's display name.
    pub const UNIT: &'static str = "hops*MB/s";
    /// The zero delta.
    pub const ZERO: Self = Self(0.0);

    /// Checked constructor: rejects NaN and ±∞.
    ///
    /// # Errors
    ///
    /// [`UnitError::NotFinite`].
    #[inline]
    pub fn new(value: f64) -> Result<Self, UnitError> {
        if !value.is_finite() {
            return Err(UnitError::NotFinite { unit: Self::UNIT, value });
        }
        Ok(Self(value + 0.0))
    }

    /// Trusted constructor (see the crate docs); `debug_assert!`s
    /// finiteness.
    #[inline]
    pub fn raw(value: f64) -> Self {
        debug_assert!(value.is_finite(), "cost delta must be finite, got {}", value);
        Self(value + 0.0)
    }

    /// The raw value — the only numeric exit seam.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0
    }

    /// True for deltas that strictly improve (lower) the cost.
    #[inline]
    pub fn is_improvement(self) -> bool {
        self.0 < 0.0
    }
}

impl_total_order!(CostDelta);

impl fmt::Display for CostDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Sub for HopMbps {
    type Output = CostDelta;
    #[inline]
    fn sub(self, rhs: Self) -> CostDelta {
        CostDelta::raw(self.0 - rhs.0)
    }
}

/// A search evaluation score: either a feasible Equation-7 cost or the
/// `+∞` infeasibility sentinel the paper's lazy-feasibility search
/// compares against. Non-negative, never NaN, totally ordered — so
/// `score < threshold` and incumbent updates need no special cases.
#[derive(Debug, Clone, Copy)]
pub struct Score(f64);

impl Score {
    /// The infeasible sentinel: compares greater than every feasible
    /// score.
    pub const INFEASIBLE: Self = Self(f64::INFINITY);
    /// The zero (best possible) score.
    pub const ZERO: Self = Self(0.0);

    /// A feasible score carrying its cost.
    #[inline]
    pub fn feasible(cost: HopMbps) -> Self {
        Self(cost.to_f64())
    }

    /// Checked constructor: rejects NaN and negative values; `+∞` is the
    /// infeasible sentinel and is accepted.
    ///
    /// # Errors
    ///
    /// [`UnitError::NotFinite`] (NaN only) or [`UnitError::Negative`].
    #[inline]
    pub fn new(value: f64) -> Result<Self, UnitError> {
        if value.is_nan() {
            return Err(UnitError::NotFinite { unit: "score", value });
        }
        if value < 0.0 {
            return Err(UnitError::Negative { unit: "score", value });
        }
        Ok(Self(value + 0.0))
    }

    /// Trusted constructor (see the crate docs); `debug_assert!`s the
    /// not-NaN/non-negative invariant.
    #[inline]
    pub fn raw(value: f64) -> Self {
        debug_assert!(!value.is_nan() && value >= 0.0, "score must be ≥ 0 or +∞, got {}", value);
        Self(value + 0.0)
    }

    /// True for scores that carry a feasible cost (not the sentinel).
    #[inline]
    pub fn is_feasible(self) -> bool {
        self.0.is_finite()
    }

    /// The feasible cost, or `None` for [`Score::INFEASIBLE`].
    #[inline]
    pub fn cost(self) -> Option<HopMbps> {
        self.is_feasible().then(|| HopMbps::raw(self.0))
    }

    /// The raw value (`+∞` for the sentinel) — the only numeric exit
    /// seam.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0
    }
}

impl_total_order!(Score);

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Panicking [`Mbps`] literal for compile-time-known values (tests,
/// builders with constant defaults).
///
/// # Panics
///
/// Panics on NaN/∞/negative input.
#[inline]
pub fn mbps(value: f64) -> Mbps {
    match Mbps::new(value) {
        Ok(q) => q,
        Err(e) => panic!("{e}"),
    }
}

/// Panicking [`HopMbps`] literal for compile-time-known values.
///
/// # Panics
///
/// Panics on NaN/∞/negative input.
#[inline]
pub fn hop_mbps(value: f64) -> HopMbps {
    match HopMbps::new(value) {
        Ok(q) => q,
        Err(e) => panic!("{e}"),
    }
}

/// Panicking [`Latency`] literal for compile-time-known values.
///
/// # Panics
///
/// Panics on NaN/∞/negative input.
#[inline]
pub fn latency(value: f64) -> Latency {
    match Latency::new(value) {
        Ok(q) => q,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_constructors_reject_invalid_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(Mbps::new(bad).is_err(), "{bad}");
            assert!(HopMbps::new(bad).is_err(), "{bad}");
            assert!(Latency::new(bad).is_err(), "{bad}");
        }
        assert!(CostDelta::new(-5.0).is_ok(), "deltas are signed");
        assert!(CostDelta::new(f64::INFINITY).is_err());
        assert!(Score::new(f64::INFINITY).is_ok(), "infeasible sentinel");
        assert!(Score::new(f64::NAN).is_err());
        assert!(Score::new(-1.0).is_err());
        assert!(Mbps::positive(0.0).is_err());
        assert!(Mbps::positive(1.0).is_ok());
    }

    #[test]
    fn negative_zero_is_normalized() {
        let z = Mbps::new(-0.0).unwrap();
        assert_eq!(z, Mbps::ZERO);
        assert_eq!(z.to_f64().to_bits(), 0.0f64.to_bits());
        assert_eq!(format!("{z}"), "0");
        assert_eq!(CostDelta::raw(-0.0).to_f64().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn display_matches_f64_display_exactly() {
        for v in [0.0, 1.0, 0.1, 2600.0, 640.8000000000001, 222.8244680851064] {
            assert_eq!(format!("{}", Mbps::raw(v)), format!("{v}"));
            assert_eq!(format!("{:.1}", HopMbps::raw(v)), format!("{v:.1}"));
            assert_eq!(format!("{:>10}", Latency::raw(v)), format!("{v:>10}"));
        }
        assert_eq!(format!("{}", Score::INFEASIBLE), format!("{}", f64::INFINITY));
    }

    #[test]
    fn equation_seven_product() {
        let cost = Mbps::new(100.0).unwrap() * Hops::new(4);
        assert_eq!(cost, HopMbps::new(400.0).unwrap());
        assert_eq!(Hops::new(4) * Mbps::new(100.0).unwrap(), cost);
        assert_eq!(cost + HopMbps::new(100.0).unwrap(), hop_mbps(500.0));
        let total: HopMbps = [hop_mbps(1.0), hop_mbps(2.0)].into_iter().sum();
        assert_eq!(total, hop_mbps(3.0));
    }

    #[test]
    fn cost_differences_are_signed_deltas() {
        let d = hop_mbps(100.0) - hop_mbps(150.0);
        assert!(d.is_improvement());
        assert_eq!(d.to_f64(), -50.0);
        assert!(!(hop_mbps(5.0) - hop_mbps(5.0)).is_improvement());
    }

    #[test]
    fn scores_order_totally_with_the_sentinel_last() {
        let mut v = [Score::INFEASIBLE, Score::feasible(hop_mbps(10.0)), Score::ZERO];
        v.sort();
        assert_eq!(v[0], Score::ZERO);
        assert_eq!(v[2], Score::INFEASIBLE);
        assert!(!Score::INFEASIBLE.is_feasible());
        assert_eq!(Score::feasible(hop_mbps(10.0)).cost(), Some(hop_mbps(10.0)));
        assert_eq!(Score::INFEASIBLE.cost(), None);
    }

    #[test]
    fn quantities_sort_without_nan_special_casing() {
        let mut v = vec![Mbps::raw(3.0), Mbps::ZERO, Mbps::raw(1.5)];
        v.sort();
        assert_eq!(v, vec![Mbps::ZERO, Mbps::raw(1.5), Mbps::raw(3.0)]);
        assert_eq!(Mbps::raw(1.0).max(Mbps::raw(2.0)), Mbps::raw(2.0));
        assert_eq!(Mbps::raw(6.0).ratio(Mbps::raw(3.0)), 2.0);
    }

    #[test]
    fn parse_round_trips_shortest_form() {
        for v in [0.0, 1.0, 0.1, 2600.0, 1e-300, f64::MAX] {
            let q = Mbps::new(v).unwrap();
            assert_eq!(format!("{q}").parse::<Mbps>().unwrap(), q);
        }
        assert!("nan".parse::<Mbps>().is_err());
        assert!("-1".parse::<Mbps>().is_err());
        assert!("bogus".parse::<Mbps>().is_err());
    }

    #[test]
    fn unit_errors_render_their_context() {
        let e = Mbps::new(f64::NAN).unwrap_err();
        assert!(e.to_string().contains("MB/s"), "{e}");
        let e = Mbps::new(-2.0).unwrap_err();
        assert!(e.to_string().contains("non-negative"), "{e}");
        let e = Mbps::positive(0.0).unwrap_err();
        assert!(e.to_string().contains("must be in ["), "{e}");
        let e = "x".parse::<Latency>().unwrap_err();
        assert!(e.to_string().contains("parse"), "{e}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite")]
    fn raw_debug_asserts_nan_freedom() {
        let _ = Mbps::raw(f64::NAN);
    }
}
